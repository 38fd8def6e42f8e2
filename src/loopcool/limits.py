"""Adiabatic elimination of the cavity and analytic cooling limits.

In the large-cavity-decay regime the cavity is integrated out, leaving two
mechanical modes with optically induced decay gamma_opt, frequency shifts
omega_opt, and complex exchange couplings xi_1, xi_2.  Two limit formulas are
provided: the lambda-resolved "full" form (valid for Gamma_1 ~ Gamma_2) and
the simplified transfer-rate form built on the resonant approximations.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import mechanical_matrix


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
    chi1, chi2 = (abs(xi) * abs(xi) / gg for xi in (xi1, xi2))
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
    underflows to 0 or overflows.  The scaling back is np.ldexp's, exact as
    math.ldexp's, so a quotient too large for a float is inf, with no warning."""
    e = math.frexp(max(k, abs(x)))[1]
    ks, xs = math.ldexp(k, -e), math.ldexp(x, -e)
    den = ks * ks + xs * xs
    with np.errstate(over="ignore"):
        return np.ldexp([gg * ks / den, gg * xs / den], -e).tolist()


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
    s = w1 + w2 + 2.0 * d
    if s == 0.0:
        raise DomainError("n_opt undefined when omega_1 + omega_2 + 2 delta = 0")
    n_opt = 4.0 * k * k / (s * s)
    gamma_eff, chi1, chi2, chi_plus, chi_minus, _, _ = _transfer_rates(
        spec, gamma_opt, xi1, xi2, n_opt)
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


def validity_notes(eff, spec, full):
    """Sorted messages of the conditions that the limits fail: omega >> kappa >> G >> gamma,
    exact Gamma_opt ~ g^2/kappa (simplified) and, if full, Gamma_1 ~ Gamma_2 (full)."""
    g_max = max(abs(g) for g in spec.drive.g_lin)
    notes = []
    if not (min(spec.omega_m) > spec.kappa > g_max > max(spec.gamma)):
        notes.append("outside the validity regime omega >> kappa >> G >> gamma")
    if any(map(_apart, eff.gamma_opt, eff.gamma_opt_res)):
        notes.append("exact optical decays differ from the resonant g^2/kappa by more than "
                     "20%; the simplified formula is unreliable")
    if full and _apart(*eff.gamma_eff):
        notes.append("effective decays Gamma_1, Gamma_2 differ by more than 20%; "
                     "the reduced formula is unreliable")
    return sorted(notes)


def _require_stable(eff):
    """DomainError if a finite eigenvalue of the effective model does not decay."""
    re_min = min(eff.lambda1.real, eff.lambda2.real)
    if -math.inf < re_min <= 0:  # -inf is an overflow, named by the caller's finite check
        raise DomainError("cooling limits undefined for an unstable effective model: "
                          "min Re lambda = %.3g" % re_min)


def cooling_limit_simplified(eff, spec):
    """Transfer-rate limit formula, built on the resonant approximations."""
    _require_stable(eff)
    gamma_opt = eff.gamma_opt_res
    n_opt = eff.n_opt
    gamma_eff, chi1, chi2, chi_plus, chi_minus, n_chi1, n_chi2 = _transfer_rates(
        spec, gamma_opt, eff.xi1_res, eff.xi2_res, n_opt)

    out = []
    for l, chil in enumerate((chi1, chi2)):
        n = (spec.gamma[l] * spec.nbar[l] + gamma_opt[l] * n_opt) / (gamma_eff[l] + chi_plus)
        n += ((-1.0) ** l * math.sqrt(chil)
              * (math.sqrt(chi1) * n_chi1 - math.sqrt(chi2) * n_chi2)
              / (gamma_eff[l] + chi_minus))
        out.append(n)
    return tuple(out)


def cooling_limit_full(eff, spec):
    """Lambda-resolved limit formula (exact Lorentzian effective quantities).

    Uses the reduction valid for Gamma_1 ~ Gamma_2 (see validity_notes); a value
    that is not finite is returned as such, with no RuntimeWarning.
    """
    if eff.xi1 == 0 or eff.xi2 == 0:
        raise DomainError("full cooling limit undefined when xi1 or xi2 = 0")
    _require_stable(eff)
    l1, l2 = eff.lambda1, eff.lambda2
    k = spec.kappa
    d = spec.drive.delta
    g1, g2 = spec.drive.g_lin

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

        n1 = (spec.gamma[0] * spec.nbar[0] / 2.0 * therm + g1 * g1 / 4.0 * drive
              + abs(eff.xi1) / (4.0 * abs(eff.xi2))
              * (g2 * g2 * cross + 2.0 * spec.gamma[1] * spec.nbar[1] * heat))
        n2 = (spec.gamma[1] * spec.nbar[1] / 2.0 * therm + g2 * g2 / 4.0 * drive
              + abs(eff.xi2) / (4.0 * abs(eff.xi1))
              * (g1 * g1 * cross + 2.0 * spec.gamma[0] * spec.nbar[0] * heat))
    return float(n1), float(n2)
