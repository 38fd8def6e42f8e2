"""Adiabatic elimination of the cavity and analytic cooling limits.

In the large-cavity-decay regime the cavity is integrated out, leaving two
mechanical modes with optically induced decay gamma_opt, frequency shifts
omega_opt, and complex exchange couplings xi_1, xi_2.  Two limit formulas are
provided: the lambda-resolved "full" form (valid for Gamma_1 ~ Gamma_2) and
the simplified transfer-rate form built on the resonant approximations.
Both refuse an effective model that is unstable by the engine's one margin,
steadystate.STABILITY_MARGIN; `report` is what the commands print of them.
They describe a drift under APPROX alone (`require_approx`).
Each takes any SystemSpec: model.to_linearized linearizes a Physical drive.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite, scaled, unscaled
from .model import FULL, RWA, CouplingApprox, mechanical_matrix, to_linearized
from .steadystate import STABILITY_MARGIN

#: the approximation the effective model assumes, so the one of the drift its limits describe
APPROX = CouplingApprox(optomechanical=FULL, mechanical=RWA)

#: (this mode, the other mode): the full limit's per-mode formula is one expression over both
PAIRS = ((0, 1), (1, 0))


@dataclass
class EffectiveTwoMode:
    xi1: complex
    xi2: complex
    gamma_eff: tuple      # Gamma_l = gamma_l + gamma_l_opt
    omega_eff: tuple      # Omega_l = omega_l - omega_l_opt
    gamma_opt: tuple
    omega_opt: tuple
    chi1: float
    chi2: float
    chi_plus: float
    chi_minus: float
    n_opt: float
    lambda1: complex
    lambda2: complex
    # resonant approximations (used by the simplified limit formula)
    xi1_res: complex = 0.0
    xi2_res: complex = 0.0
    gamma_opt_res: tuple = (0.0, 0.0)


def _transfer_rates(spec, gamma_opt, xi1, xi2):
    """Gamma_eff and the transfer rates chi_1, chi_2, chi_+, chi_-.

    effective_model passes the exact-Lorentzian xi, cooling_limit_simplified
    the resonant ones.  Gamma_1 + Gamma_2 divides as a numpy float: where it is
    0 the rates are inf or NaN, with no warning and no ZeroDivisionError.
    """
    gamma_eff = (spec.gamma[0] + gamma_opt[0], spec.gamma[1] + gamma_opt[1])
    gg = np.float64(gamma_eff[0] + gamma_eff[1])
    with np.errstate(all="ignore"):
        chi1, chi2 = (abs(xi) * abs(xi) / gg for xi in (xi1, xi2))
        re_part = (xi1 * xi2).real / gg  # = (xi1 * xi2 / gg).real, which raises at gg = 0
        chi_plus = -math.sqrt(chi1 * chi2) - re_part
        chi_minus = math.sqrt(chi1 * chi2) - re_part
    return gamma_eff, chi1, chi2, chi_plus, chi_minus


def _lorentzian(gg, k, x):
    """(gg k, gg x) / (k k + x x) on k and x scaled by errors.scaled, then unscaled: the
    plain quotients bit for bit where every step is a normal float, no sum that
    underflows to 0 or overflows, and a quotient too large for a float is inf."""
    (ks, xs), e = scaled((k, x))
    den = ks * ks + xs * xs
    return unscaled([gg * ks / den, gg * xs / den], -e).tolist()


def effective_model(spec):
    """Exact-Lorentzian effective two-mode quantities (plus resonant forms)."""
    if spec.n_mech != 2:
        raise DomainError("adiabatic elimination is defined for n_mech = 2")
    spec = to_linearized(spec)
    g1, g2 = spec.drive.g_lin
    k = spec.kappa
    d = spec.drive.delta
    w1, w2 = spec.omega_m
    hop = complex(mechanical_matrix(spec)[0, 1])

    lor = [[_lorentzian(g * g, k, x) for x in (d - w, d + w)] for g, w in ((g1, w1), (g2, w2))]
    gamma_opt = tuple(minus[0] - plus[0] for minus, plus in lor)
    omega_opt = tuple(plus[1] + minus[1] for minus, plus in lor)

    def lorentzian(w_other):
        (k_minus, x_minus), (k_plus, x_plus) = (_lorentzian(g1 * g2, k, x)
                                                for x in (d - w_other, d + w_other))
        return complex(k_plus, x_plus) - complex(k_minus, -x_minus)

    xi1 = lorentzian(w2) - 1j * hop
    xi2 = lorentzian(w1) - 1j * hop.conjugate()
    omega_eff = (w1 - omega_opt[0], w2 - omega_opt[1])
    s = w1 + w2 + 2.0 * d
    if s == 0.0:
        raise DomainError("n_opt undefined when omega_1 + omega_2 + 2 delta = 0")
    with np.errstate(all="ignore"):  # s * s may underflow to 0: n_opt is then inf
        n_opt = float(4.0 * k * k / np.float64(s * s))
    gamma_eff, chi1, chi2, chi_plus, chi_minus = _transfer_rates(spec, gamma_opt, xi1, xi2)
    gg = gamma_eff[0] + gamma_eff[1]

    split = gamma_eff[0] - gamma_eff[1] + 1j * (omega_eff[0] - omega_eff[1])
    u = cmath.sqrt(4.0 * xi1 * xi2 + split * split)  # a product: a complex ** raises OverflowError
    trace_half = 0.5 * (gg + 1j * (omega_eff[0] + omega_eff[1]))
    lam1 = trace_half - 0.5 * u
    lam2 = trace_half + 0.5 * u

    xi1_res = -(g1 * g2 / k + 1j * (hop - g1 * g2 / (2.0 * w2)))
    xi2_res = -(g1 * g2 / k + 1j * (hop.conjugate() - g1 * g2 / (2.0 * w1)))
    gamma_opt_res = (g1 * g1 / k, g2 * g2 / k)

    return EffectiveTwoMode(
        xi1=xi1, xi2=xi2, gamma_eff=gamma_eff, omega_eff=omega_eff,
        gamma_opt=gamma_opt, omega_opt=omega_opt,
        chi1=chi1, chi2=chi2, chi_plus=chi_plus, chi_minus=chi_minus,
        n_opt=n_opt, lambda1=lam1, lambda2=lam2,
        xi1_res=xi1_res, xi2_res=xi2_res, gamma_opt_res=gamma_opt_res)


def _apart(a, b):
    """More than 20% of the larger magnitude apart: the validity notes' one threshold."""
    return abs(a - b) > 0.2 * max(abs(a), abs(b))


def validity_notes(eff, spec, found):
    """Sorted messages of the conditions that report's limits `found` fail: omega >> kappa >>
    G >> gamma, exact Gamma_opt ~ g^2/kappa (simplified), Gamma_1 ~ Gamma_2 (full), and
    one note per formula whose occupation is below zero."""
    g_max = max(abs(g) for g in to_linearized(spec).drive.g_lin)
    notes = []
    if not (min(spec.omega_m) > spec.kappa > g_max > max(spec.gamma)):
        notes.append("outside the validity regime omega >> kappa >> G >> gamma")
    if any(map(_apart, eff.gamma_opt, eff.gamma_opt_res)):
        notes.append("exact optical decays differ from the resonant g^2/kappa by more than "
                     "20%; the simplified formula is unreliable")
    if "full" in found and _apart(*eff.gamma_eff):
        notes.append("effective decays Gamma_1, Gamma_2 differ by more than 20%; "
                     "the reduced formula is unreliable")
    notes += ["the %s formula gives an occupation below zero; it is unreliable" % name
              for name, limit in found.items() if min(limit) < 0.0]
    return sorted(notes)


def _require_stable(eff):
    """DomainError if a finite eigenvalue of the effective model does not decay by the
    margin that the engine applies to a drift's abscissa (its eigenvalues are
    -lambda): min Re lambda <= -STABILITY_MARGIN."""
    re_min = min(eff.lambda1.real, eff.lambda2.real)
    if -math.inf < re_min <= -STABILITY_MARGIN:  # -inf is an overflow, named by report's check
        raise DomainError("cooling limits undefined for an unstable effective model: "
                          "min Re lambda = %.3g" % re_min)


def cooling_limit_simplified(eff, spec):
    """Transfer-rate limit formula, built on the resonant approximations.  Its
    quotients divide as numpy floats (chi_+- are), so a pole gives inf or NaN."""
    _require_stable(eff)
    gamma_opt, n_opt = eff.gamma_opt_res, eff.n_opt
    gamma_eff, *chi, chi_plus, chi_minus = _transfer_rates(
        spec, gamma_opt, eff.xi1_res, eff.xi2_res)
    bath = [spec.gamma[l] * spec.nbar[l] + gamma_opt[l] * n_opt for l in (0, 1)]
    with np.errstate(all="ignore"):
        pole = gamma_eff[0] + gamma_eff[1] + 2.0 * chi_plus
        n_chi = [2.0 * b / pole for b in bath[::-1]]
        transfer = math.sqrt(chi[0]) * n_chi[0] - math.sqrt(chi[1]) * n_chi[1]
        return tuple(float(bath[l] / (gamma_eff[l] + chi_plus) + (-1.0) ** l * math.sqrt(chi[l])
                           * transfer / (gamma_eff[l] + chi_minus)) for l in (0, 1))


def cooling_limit_full(eff, spec):
    """Lambda-resolved limit formula (exact Lorentzian effective quantities).

    Uses the reduction valid for Gamma_1 ~ Gamma_2 (see validity_notes); a value
    that is not finite is returned as such, with no RuntimeWarning.
    """
    if eff.xi1 == 0 or eff.xi2 == 0:
        raise DomainError("full cooling limit undefined when xi1 or xi2 = 0")
    _require_stable(eff)
    l1, l2 = eff.lambda1, eff.lambda2
    spec = to_linearized(spec)
    k = spec.kappa
    d = spec.drive.delta
    g = spec.drive.g_lin
    xi = (eff.xi1, eff.xi2)

    with np.errstate(all="ignore"):
        a11 = 1.0 / (np.conj(l1) + l1)
        a12 = 1.0 / (np.conj(l1) + l2)
        a22 = 1.0 / (np.conj(l2) + l2)
        c1 = 1.0 / (k + l1 + 1j * d) + 1.0 / (k + np.conj(l1) - 1j * d)
        c2 = 1.0 / (k + l2 + 1j * d) + 1.0 / (k + np.conj(l1) - 1j * d)
        c3 = 1.0 / (k + l2 + 1j * d) + 1.0 / (k + np.conj(l2) - 1j * d)

        therm = (a11 + 2.0 * (a12).real + a22).real
        drive = (a11 * c1 + 2.0 * (a12 * c2).real + a22 * c3).real
        cross = (a11 * c1 - 2.0 * (a12 * c2).real + a22 * c3).real
        heat = (a11 - 2.0 * (a12).real + a22).real

        return tuple(float(spec.gamma[l] * spec.nbar[l] / 2.0 * therm + g[l] * g[l] / 4.0 * drive
                           + abs(xi[l]) / (4.0 * abs(xi[o]))
                           * (g[o] * g[o] * cross + 2.0 * spec.gamma[o] * spec.nbar[o] * heat))
                     for l, o in PAIRS)


def require_approx(approx):
    """DomainError unless approx equals APPROX, the approximation the limits assume."""
    if approx != APPROX:
        raise DomainError("the cooling limits assume optomechanical %s and mechanical %s"
                          % (APPROX.optomechanical, APPROX.mechanical))


def report(spec, full):
    """(effective quantities, limits, validity notes) of a two-mode spec: the
    reported effective-model quantities, the simplified limit formula and, if
    full, the full one, keyed as the reports name them, and their notes.  An
    unstable effective model is a DomainError; a non-finite quantity,
    eigenvalue or limit (4 kappa^2 overflows above kappa ~ 7e153, |xi|^2 below
    kappa ~ 1e-160, a Lorentzian at kappa = 5e-324, n_opt where (omega_1 +
    omega_2 + 2 delta)^2 underflows) is a FloatingPointError."""
    spec = to_linearized(spec)  # one fixed-point solve for every reader below
    eff = effective_model(spec)
    found = {"simplified": cooling_limit_simplified(eff, spec)}
    if full:
        found["full"] = cooling_limit_full(eff, spec)
    effective = {name: getattr(eff, name) for name in (
        "xi1", "xi2", "gamma_eff", "omega_eff", "chi1", "chi2", "chi_plus", "chi_minus", "n_opt")}
    require_finite("cooling-limit quantities", **effective, **found,
                   **{"lambda": (eff.lambda1, eff.lambda2)})
    return effective, found, validity_notes(eff, spec, found)
