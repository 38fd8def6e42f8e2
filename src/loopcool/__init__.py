"""Ground-state cooling of loop-coupled mechanical resonators.

Simulation and analysis toolkit for one driven cavity coupled to N mechanical
resonators with phase-dependent phonon exchange: steady-state covariance and
phonon occupations, input-output scattering and nonreciprocity, adiabatic
cooling limits, and dark-mode structure.
"""

__version__ = "0.1.0"

from .errors import (BlowUp, ConfigError, DimensionOverflow, DomainError,
                     InvalidSpec, LoopcoolError, NoConvergence, NoFixedPoint,
                     ShapeMismatch, SingularMatrix, Unstable)
from .model import (FULL, RWA, CouplingApprox, Linearized, Physical,
                    SystemSpec, build_drift, build_noise, linearize,
                    to_linearized)
from .steadystate import (CoolingReport, cool, cool_many, cool_or_flag,
                          lyapunov_solve, phonon_numbers, stability_check)
from .spectra import (Cooperativities, lambda_analytic, lambda_numeric,
                      scattering_matrix, transmittances)
from .limits import (EffectiveTwoMode, cooling_limit_full,
                     cooling_limit_simplified, effective_model)
from .modes import (BrightDarkModes, HybridModes, LambdaSystem, bright_dark,
                    hybrid_transform, lambda_eigensystem, normal_modes)
from .presets import get_preset
