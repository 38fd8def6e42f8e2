"""Named parameter presets for the figure-reproduction recipes.

The reference figures scatter their parameters across captions; the presets
pin them once.  All rates are in units of the first mechanical frequency.
"""

import math

from .errors import ConfigError
from .model import Linearized, SystemSpec

HALF_PI = math.pi / 2


def _two_mode(g, eta, theta, kappa=0.2, delta=1.0):
    return SystemSpec(
        n_mech=2, omega_m=(1.0, 1.0), kappa=kappa,
        gamma=(1e-5, 1e-5), nbar=(1e3, 1e3),
        eta=(eta,), theta=(theta,),
        drive=Linearized(delta=delta, g_lin=(g, g)))


def _chain(n, g, eta, theta1, kappa=0.2, delta=1.0):
    return SystemSpec(
        n_mech=n, omega_m=(1.0,) * n, kappa=kappa,
        gamma=(1e-5,) * n, nbar=(1e3,) * n,
        eta=(eta,) * (n - 1), theta=(theta1,) + (0.0,) * (n - 2),
        drive=Linearized(delta=delta, g_lin=(g,) * n))


def _base():
    """The two-mode base point: G = 0.1, eta = 0.05, theta = pi/2."""
    return _two_mode(0.1, 0.05, HALF_PI)


PRESETS = {
    # two-mode cooling landscape
    "fig2": _base,
    # same parameters with the exchange channel off (dark-mode ceiling)
    "fig2_eta0": lambda: _two_mode(0.1, 0.0, 0.0),
    # nonreciprocity scan point (Pi = 1 by construction)
    "fig3": _base,
    # cooling-limit comparison (weaker drive, G = 0.05)
    "fig4": lambda: _two_mode(0.05, 0.05, HALF_PI),
    # kappa-sweep comparison of exact vs adiabatic limits (G = 0.08)
    "figS8": lambda: _two_mode(0.08, 0.05, HALF_PI),
    # three-resonator chain, first hop carries the pi/2 phase
    "figS10": lambda: _chain(3, 0.1, 0.1, HALF_PI),
    # four-resonator chain
    "figS11": lambda: _chain(4, 0.1, 0.1, HALF_PI),
    # rotating-wave-validity comparison
    "figS13": _base,
}


def get_preset(name):
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError("unknown preset %r (have: %s)"
                          % (name, ", ".join(sorted(PRESETS)))) from None
