"""Adiabatic elimination of the cavity and analytic cooling limits.

In the large-cavity-decay regime the cavity is integrated out, leaving two
mechanical modes with optically induced decay gamma_opt, frequency shifts
omega_opt, and complex exchange couplings xi_1, xi_2.  Two limit formulas are
provided: the lambda-resolved "full" form (valid for Gamma_1 ~ Gamma_2) and
the simplified transfer-rate form built on the resonant approximations.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import mechanical_matrix


class ValidityWarning(UserWarning):
    """Emitted when a formula is evaluated outside its stated validity regime."""


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


def _transfer_rates(spec, gamma_opt, xi1, xi2, n_opt):
    """Gamma_eff, the transfer rates chi_1, chi_2, chi_+, chi_- and n_chi1, n_chi2.

    effective_model passes the exact-Lorentzian xi, cooling_limit_simplified
    the resonant ones.
    """
    gamma_eff = (spec.gamma[0] + gamma_opt[0], spec.gamma[1] + gamma_opt[1])
    gg = gamma_eff[0] + gamma_eff[1]
    chi1 = abs(xi1) ** 2 / gg
    chi2 = abs(xi2) ** 2 / gg
    re_part = (xi1 * xi2 / gg).real
    chi_plus = -math.sqrt(chi1 * chi2) - re_part
    chi_minus = math.sqrt(chi1 * chi2) - re_part
    n_chi1 = 2.0 * (spec.gamma[1] * spec.nbar[1] + gamma_opt[1] * n_opt) / (gg + 2.0 * chi_plus)
    n_chi2 = 2.0 * (spec.gamma[0] * spec.nbar[0] + gamma_opt[0] * n_opt) / (gg + 2.0 * chi_plus)
    return gamma_eff, chi1, chi2, chi_plus, chi_minus, n_chi1, n_chi2


def _lorentzian(gg, k, x):
    """(gg k, gg x) / (k k + x x), with k and x first scaled by the power of two
    that brings the larger into [0.5, 1) and the quotients scaled back: the plain
    quotients bit for bit where every step is a normal float, and no sum that
    underflows to 0 or overflows; a quotient too large for a float raises
    OverflowError."""
    e = math.frexp(max(k, abs(x)))[1]
    ks, xs = math.ldexp(k, -e), math.ldexp(x, -e)
    den = ks * ks + xs * xs
    return math.ldexp(gg * ks / den, -e), math.ldexp(gg * xs / den, -e)


def effective_model(spec):
    """Exact-Lorentzian effective two-mode quantities (plus resonant forms)."""
    if spec.n_mech != 2:
        raise DomainError("adiabatic elimination is defined for n_mech = 2")
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
    if w1 + w2 + 2.0 * d == 0.0:
        raise DomainError("n_opt undefined when omega_1 + omega_2 + 2 delta = 0")
    n_opt = 4.0 * k * k / (w1 + w2 + 2.0 * d) ** 2
    gamma_eff, chi1, chi2, chi_plus, chi_minus, _, _ = _transfer_rates(
        spec, gamma_opt, xi1, xi2, n_opt)
    gg = gamma_eff[0] + gamma_eff[1]

    u = cmath.sqrt(4.0 * xi1 * xi2
                   + (gamma_eff[0] - gamma_eff[1] + 1j * (omega_eff[0] - omega_eff[1])) ** 2)
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


def _warn_regime(spec):
    g_max = max(abs(g) for g in spec.drive.g_lin)
    if not (min(spec.omega_m) > spec.kappa > g_max > max(spec.gamma)):
        warnings.warn("outside the validity regime omega >> kappa >> G >> gamma",
                      ValidityWarning, stacklevel=3)


def cooling_limit_simplified(eff, spec):
    """Transfer-rate limit formula, built on the resonant approximations."""
    _warn_regime(spec)
    gamma_opt = eff.gamma_opt_res
    n_opt = eff.n_opt
    gamma_eff, chi1, chi2, chi_plus, chi_minus, n_chi1, n_chi2 = _transfer_rates(
        spec, gamma_opt, eff.xi1_res, eff.xi2_res, n_opt)

    out = []
    for l in (0, 1):
        chil = (chi1, chi2)[l]
        n = (spec.gamma[l] * spec.nbar[l] + gamma_opt[l] * n_opt) / (gamma_eff[l] + chi_plus)
        n += ((-1.0) ** l * math.sqrt(chil)
              * (math.sqrt(chi1) * n_chi1 - math.sqrt(chi2) * n_chi2)
              / (gamma_eff[l] + chi_minus))
        out.append(n)
    return out[0], out[1]


def cooling_limit_full(eff, spec):
    """Lambda-resolved limit formula (exact Lorentzian effective quantities).

    Uses the reduction valid for Gamma_1 ~ Gamma_2; warns when the effective
    decays differ by more than 20%.
    """
    if eff.xi1 == 0 or eff.xi2 == 0:
        raise DomainError("full cooling limit undefined when xi1 or xi2 = 0")
    _warn_regime(spec)
    g1m, g2m = eff.gamma_eff
    if abs(g1m - g2m) > 0.2 * max(g1m, g2m):
        warnings.warn("effective decays Gamma_1, Gamma_2 differ by more than 20%%; "
                      "the reduced formula is unreliable", ValidityWarning, stacklevel=2)
    l1, l2 = eff.lambda1, eff.lambda2
    k = spec.kappa
    d = spec.drive.delta
    g1, g2 = spec.drive.g_lin

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

    n1 = (spec.gamma[0] * spec.nbar[0] / 2.0 * therm + g1 * g1 / 4.0 * drive
          + abs(eff.xi1) / (4.0 * abs(eff.xi2))
          * (g2 * g2 * cross + 2.0 * spec.gamma[1] * spec.nbar[1] * heat))
    n2 = (spec.gamma[1] * spec.nbar[1] / 2.0 * therm + g2 * g2 / 4.0 * drive
          + abs(eff.xi2) / (4.0 * abs(eff.xi1))
          * (g1 * g1 * cross + 2.0 * spec.gamma[0] * spec.nbar[0] * heat))
    return float(n1), float(n2)
