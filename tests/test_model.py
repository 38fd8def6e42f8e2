import dataclasses
import itertools

import numpy as np
import pytest

from loopcool.errors import InvalidSpec
from loopcool.limits import cooling_limit_full, effective_model, report, validity_notes
from loopcool.model import (DRIVE_FIELDS, FULL, PHYSICAL_FIELDS, RWA, SPEC_FIELDS,
                            CouplingApprox, Linearized, Physical, SystemSpec, build_drift,
                            build_noise, drift_stack, linearize, mechanical_matrix, param_table,
                            to_linearized)
from loopcool.modes import bright_dark, hybrid_transform, normal_modes
from loopcool.presets import PRESETS
from loopcool.spectra import Cooperativities

APPROXES = [CouplingApprox(om, mech) for om in (FULL, RWA) for mech in (FULL, RWA)]


def two_mode(eta=0.05, theta=np.pi / 2, g=0.1, kappa=0.2, delta=1.0,
             omega=(1.0, 1.0), gamma=(1e-5, 1e-5), nbar=(1e3, 1e3)):
    return SystemSpec(n_mech=2, omega_m=omega, kappa=kappa, gamma=gamma,
                      nbar=nbar, eta=(eta,), theta=(theta,),
                      drive=Linearized(delta=delta, g_lin=(g, g)))


def physical_spec(g=1e-4, amp=1e3, eta=0.05, theta=np.pi / 2, delta_c=1.0):
    """Two-mode physical drive; g is both single-photon couplings, or a pair."""
    return SystemSpec(n_mech=2, omega_m=(1.0, 1.0), kappa=0.2,
                      gamma=(1e-5, 1e-5), nbar=(1e3, 1e3),
                      eta=(eta,), theta=(theta,),
                      drive=Physical(delta_c=delta_c, omega_amp=amp,
                                     g_single=np.broadcast_to(g, 2)))


# --- validation ---------------------------------------------------------

def test_spec_list_length_checks():
    with pytest.raises(InvalidSpec):
        SystemSpec(n_mech=2, omega_m=(1.0,), kappa=0.2, gamma=(1e-5, 1e-5),
                   nbar=(0, 0), eta=(0,), theta=(0,),
                   drive=Linearized(delta=1.0, g_lin=(0.1, 0.1)))
    with pytest.raises(InvalidSpec):
        two_mode().with_(eta=(0.1, 0.2))
    # a drive's lists are counted by its own declaration
    for drive, name in ((Linearized(delta=1.0, g_lin=(0.1,)), "g_lin"),
                        (Physical(delta_c=1.0, omega_amp=1.0, g_single=(1e-4,) * 3), "g_single")):
        message = r"^drive\.%s must have 2 entries for n_mech=2$" % name
        with pytest.raises(InvalidSpec, match=message):
            two_mode().with_(drive=drive)


def test_spec_positivity():
    with pytest.raises(InvalidSpec):
        two_mode(kappa=-0.1)
    with pytest.raises(InvalidSpec):
        two_mode(gamma=(0.0, 1e-5))
    with pytest.raises(InvalidSpec):
        two_mode(nbar=(-1.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite(bad):
    for kw in (dict(kappa=bad), dict(omega=(1.0, bad)), dict(gamma=(bad, 1e-5)),
               dict(nbar=(1e3, bad)), dict(eta=bad), dict(theta=bad)):
        with pytest.raises(InvalidSpec):
            two_mode(**kw)
    # a drive's numbers are checked by the spec that holds it, as a sweep's rows are
    for build, kw, name in ((two_mode, dict(delta=bad), "delta"), (two_mode, dict(g=bad), "g_lin"),
                            (physical_spec, dict(delta_c=bad), "delta_c"),
                            (physical_spec, dict(amp=complex(1.0, bad)), "omega_amp"),
                            (physical_spec, dict(g=(1e-4, bad)), "g_single")):
        with pytest.raises(InvalidSpec, match="^%s must be finite$" % name):
            build(**kw)


def test_theta_reduced():
    spec = two_mode(theta=2 * np.pi + 0.3)
    assert spec.theta[0] == pytest.approx(0.3)
    spec = two_mode(theta=-0.3)
    assert 0 <= spec.theta[0] < 2 * np.pi
    # bit for bit as Python's float %, signed zeros and the 2 pi that -1e-300 rounds to included
    for t in [-7.0, -0.0, 0.0, -1e-300, 0.5, 2 * np.pi, 13.0, *np.linspace(-20.0, 20.0, 41)]:
        assert two_mode(theta=t).theta[0].hex() == (float(t) % (2 * np.pi)).hex()


def test_refusals_name_their_rule():
    with pytest.raises(InvalidSpec, match="^approximation must be 'full' or 'rwa', got 'x'$"):
        CouplingApprox("x")
    with pytest.raises(InvalidSpec, match="^drive must be Linearized or Physical$"):
        PRESETS["fig2"]().with_(drive=None)
    with pytest.raises(InvalidSpec, match="^linearize needs a Physical drive$"):
        linearize(PRESETS["fig2"]())


# --- linearization ------------------------------------------------------

def test_linearize_decoupled_cavity():
    spec = physical_spec(g=0.0)
    st = linearize(spec)
    expect = -1j * np.conj(1e3) / (0.2 + 1j * 1.0)
    assert st.alpha == pytest.approx(expect)
    assert np.allclose(st.beta, 0)
    assert st.delta_eff == pytest.approx(1.0)


def test_linearize_no_drive():
    spec = physical_spec(amp=0.0)
    st = linearize(spec)
    assert st.alpha == 0 and np.allclose(st.beta, 0)


def test_linearize_perturbative_beta():
    # independent one-step oracle for small g: beta_j = -i g |alpha|^2/(gamma+i w)
    spec = physical_spec(g=1e-6, eta=0.0, theta=0.0)
    st = linearize(spec)
    p = abs(st.alpha) ** 2
    expect = -1j * 1e-6 * p / (1e-5 + 1j * 1.0)
    assert np.allclose(st.beta, expect, rtol=1e-6)


def test_linearize_fixed_point_self_consistent():
    spec = physical_spec()
    st = linearize(spec)
    delta = spec.drive.delta_c + sum(2 * g * b.real
                                     for g, b in zip(spec.drive.g_single, st.beta))
    alpha = -1j * np.conj(spec.drive.omega_amp) / (spec.kappa + 1j * delta)
    assert abs(alpha - st.alpha) <= 1e-12 * abs(st.alpha)
    assert delta == pytest.approx(st.delta_eff, rel=1e-12)


def physical_chain(n, theta):
    """Nonuniform physical-drive chain, N = 2 or 3, whose hops shift beta by ~5%."""
    return SystemSpec(n_mech=n, omega_m=(1.0, 1.03, 0.98)[:n], kappa=0.2,
                      gamma=(1e-5,) * n, nbar=(1e3,) * n,
                      eta=(0.05, 0.04)[:n - 1], theta=(theta, 2.1)[:n - 1],
                      drive=Physical(delta_c=1.0, omega_amp=1e3,
                                     g_single=(1e-4, 0.7e-4, 1.2e-4)[:n]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("theta", [0.4, np.pi / 2, 2.5, 4.0])
def test_linearize_beta_phase_convention(n, theta):
    # (gamma_j + i w_j) beta_j = -i (g_j |alpha|^2 + sum_{k != j} H_jk beta_k)
    # with H_{j,j+1} = eta_j e^{i theta_j} written out here, not taken from
    # the model.  The closed-form fixed point leaves a rounding-level residual
    # (measured <= 6.5e-16); a flipped hop phase misses by >= 4e-2.
    spec = physical_chain(n, theta)
    st = linearize(spec)
    beta = np.array(st.beta)
    hops = np.zeros((n, n), complex)
    for j in range(n - 1):
        hops[j, j + 1] = spec.eta[j] * np.exp(1j * spec.theta[j])
        hops[j + 1, j] = spec.eta[j] * np.exp(-1j * spec.theta[j])
    lhs = (np.array(spec.gamma) + 1j * np.array(spec.omega_m)) * beta
    rhs = -1j * (np.array(spec.drive.g_single) * abs(st.alpha) ** 2 + hops @ beta)
    assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(rhs).max()


def test_linearize_counts_the_classical_fixed_points():
    # fig2-like couplings at omega_amp = 200 are bistable: the three fixed points
    # have |alpha|^2 = 78,537.5, 98,429.6 and 321,782.9, and the lowest is returned
    st = linearize(physical_spec(g=1e-3, amp=200.0))
    assert st.fixed_points == 3
    assert abs(st.alpha) ** 2 == pytest.approx(78537.5, abs=0.05)
    assert linearize(physical_spec(g=1e-3, amp=20.0)).fixed_points == 1
    assert linearize(physical_spec()).fixed_points == 3


AMPS = [0.0, 20.0, 100.0, 200.0, 300.0, 600.0, 1e3, 2e3, 1e3 * np.exp(0.7j)]
G_PAIRS = [(1e-3, 1e-3), (1e-4, 1e-4), (1e-3, 5e-4), (2e-4, -1e-3)]


def test_linearize_solves_the_defining_equations_on_a_grid():
    # 108 fig2-like points, 26 of which a damped fixed-point iteration does not
    # settle on, and 9 bistable.  The equations are written out here, each
    # residual relative to its largest term (measured <= 2.5e-15):
    #   Delta = Delta_c + 2 sum_j g_j Re beta_j,  (kappa + i Delta) alpha = -i Omega*,
    #   (gamma_j + i w_j) beta_j = -i (g_j |alpha|^2 + sum_{k != j} H_jk beta_k)
    hop = 0.05 * np.exp(0.5j * np.pi)
    hops = np.array([[0.0, hop], [np.conj(hop), 0.0]])
    for amp, delta_c, g in itertools.product(AMPS, (1.0, -1.0, 0.5), G_PAIRS):
        st = linearize(physical_spec(g=g, amp=amp, delta_c=delta_c))
        g, beta, delta = np.array(g), np.array(st.beta), st.delta_eff
        shift = 2.0 * g * beta.real
        scale = max(abs(delta), abs(delta_c), np.abs(shift).max())
        assert abs(delta - delta_c - shift.sum()) <= 1e-14 * scale
        assert abs((0.2 + 1j * delta) * st.alpha + 1j * np.conj(amp)) <= 1e-14 * abs(amp)
        rhs = -1j * (g * abs(st.alpha) ** 2 + hops @ beta)
        lhs = (1e-5 + 1j) * beta
        assert np.abs(lhs - rhs).max() <= 1e-14 * np.abs(rhs).max()


def test_linearize_overflowing_amplitudes_raise():
    # a finite cubic (Delta = 0) whose |alpha|^2 = (|Omega|/kappa)^2 = 1e400 overflows
    spec = physical_spec(g=0.0, amp=1.0, delta_c=0.0).with_(kappa=1e-200)
    with pytest.raises(FloatingPointError, match="^classical fixed point not finite: beta$"):
        linearize(spec)


def test_drift_stack_names_the_overflowing_matrix():
    # 2 kappa overflows in the noise matrix; a fixed point's own refusal is not rewrapped
    with pytest.raises(FloatingPointError, match="^noise matrix not finite: Q$"):
        drift_stack(param_table(two_mode(kappa=1e308)))
    with pytest.raises(FloatingPointError, match="^classical fixed point not finite: cubic$"):
        drift_stack(param_table(physical_spec(amp=1e200)))


def test_to_linearized_real_couplings():
    spec = physical_spec(amp=1e3 * np.exp(0.7j))
    lin = to_linearized(spec)
    assert isinstance(lin.drive, Linearized)
    assert all(g > 0 for g in lin.drive.g_lin)


def _bits(value):
    """value with each number as (its type, its bytes): equal only when equal to the last bit."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value if isinstance(value, str) else (type(value), np.asarray(value).tobytes())


#: each analysis that reads Delta or G_j, called as f(spec, linearized spec); an effective
#: model is built from the linearized spec, so only the function's own reads differ
LINEARIZED_READERS = {
    "normal_modes": ("fig2", lambda spec, lin: normal_modes(spec)),
    "hybrid_transform": ("fig2", lambda spec, lin: hybrid_transform(spec)),
    "bright_dark": ("fig2_eta0", lambda spec, lin: bright_dark(spec)),
    "effective_model": ("fig2", lambda spec, lin: effective_model(spec)),
    "report": ("fig2", lambda spec, lin: report(spec, True)),
    "cooling_limit_full": ("fig2", lambda spec, lin: cooling_limit_full(effective_model(lin), spec)),
    "validity_notes": ("fig2", lambda spec, lin: validity_notes(effective_model(lin), spec,
                                                                report(lin, True)[1])),
    "Cooperativities.from_spec": ("fig2", lambda spec, lin: Cooperativities.from_spec(spec)),
}


@pytest.mark.parametrize("preset, call", LINEARIZED_READERS.values(), ids=LINEARIZED_READERS)
def test_an_analysis_of_a_physical_drive_is_that_of_its_linearized_spec(preset, call):
    spec = PRESETS[preset]().with_(drive=Physical(delta_c=1.0, omega_amp=100.0,
                                                  g_single=(1e-3, 1e-3)))
    lin = to_linearized(spec)
    assert to_linearized(lin) is lin
    assert _bits(call(spec, lin)) == _bits(call(lin, lin))


# --- drift construction -------------------------------------------------

def test_mechanical_matrix_convention():
    spec = SystemSpec(n_mech=3, omega_m=(1.0, 1.1, 0.9), kappa=0.2,
                      gamma=(1e-5,) * 3, nbar=(1e3,) * 3,
                      eta=(0.05, 0.03), theta=(0.4, 2.5),
                      drive=Linearized(delta=1.0, g_lin=(0.1,) * 3))
    h = mechanical_matrix(spec)
    want = np.array([[1.0, 0.05 * np.exp(0.4j), 0.0],
                     [0.05 * np.exp(-0.4j), 1.1, 0.03 * np.exp(2.5j)],
                     [0.0, 0.03 * np.exp(-2.5j), 0.9]])
    assert np.allclose(h, want, rtol=0.0, atol=1e-15)


def _build_drift_per_entry(spec, approx):
    """Reference: the drift built entry by entry, with the hops written out."""
    n = spec.n_mech
    dim = n + 1
    big_g = spec.drive.g_lin
    x = np.zeros((dim, dim), complex)
    y = np.zeros((dim, dim), complex)
    x[0, 0] = -(spec.kappa + 1j * spec.drive.delta)
    for j in range(n):
        x[0, 1 + j] = -1j * big_g[j]
        x[1 + j, 0] = -1j * np.conj(big_g[j])
        x[1 + j, 1 + j] = -(spec.gamma[j] + 1j * spec.omega_m[j])
        if approx.optomechanical == FULL:
            y[0, 1 + j] = -1j * big_g[j]
            y[1 + j, 0] = -1j * big_g[j]
    for j in range(n - 1):
        hop = spec.eta[j] * np.exp(1j * spec.theta[j])
        x[1 + j, 2 + j] = -1j * hop
        x[2 + j, 1 + j] = -1j * np.conj(hop)
        if approx.mechanical == FULL:
            y[1 + j, 2 + j] = -1j * hop
            y[2 + j, 1 + j] = -1j * hop
    return np.block([[x, y], [np.conj(y), np.conj(x)]])


def _random_chain(rng, n=None):
    n = int(rng.integers(1, 9)) if n is None else n
    # a third of the phases sit on the real axis (0 or pi), the rest anywhere
    theta = np.where(rng.random(n - 1) < 1 / 3, rng.choice([0.0, np.pi], n - 1),
                     rng.uniform(0.0, 2 * np.pi, n - 1))
    eta = rng.uniform(0.0, 0.1, n - 1) * rng.integers(0, 2, n - 1)
    return SystemSpec(n_mech=n, omega_m=rng.uniform(0.9, 1.1, n),
                      kappa=rng.uniform(0.05, 0.5), gamma=rng.uniform(1e-6, 1e-4, n),
                      nbar=rng.uniform(0.0, 1e3, n), eta=eta, theta=theta,
                      drive=Linearized(delta=rng.uniform(0.5, 1.5),
                                       g_lin=rng.uniform(0.0, 0.1, n)))


@pytest.mark.parametrize("approx", APPROXES, ids=lambda a: "%s-%s" % (
    a.optomechanical, a.mechanical))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_drift_matches_per_entry_reference_presets(preset, approx):
    spec = PRESETS[preset]()
    assert np.array_equal(build_drift(spec, approx).a, _build_drift_per_entry(spec, approx))


def test_drift_matches_per_entry_reference_random_chains():
    rng = np.random.default_rng(11)
    for _ in range(200):
        spec = _random_chain(rng)
        for approx in APPROXES:
            assert np.array_equal(build_drift(spec, approx).a,
                                  _build_drift_per_entry(spec, approx))


def _same_bits(x, y):
    """Equal to the last bit, signed zeros included."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _table_of(specs):
    """One parameter table holding spec k in row k."""
    tables = [param_table(spec) for spec in specs]
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


@pytest.mark.parametrize("approx", APPROXES, ids=lambda a: "%s-%s" % (
    a.optomechanical, a.mechanical))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_drift_stack_rows_equal_build_drift_presets(preset, approx):
    spec = PRESETS[preset]()
    d = build_drift(spec, approx)
    a, q = drift_stack(param_table(spec, 3), approx)
    assert a.shape == q.shape == (3,) + d.a.shape
    for k in range(3):
        assert _same_bits(a[k], d.a) and _same_bits(q[k], d.q)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_drift_stack_of_g_equals_g_batches_of_one(n):
    # a row's drift never depends on the other rows (n = 1 has no hops at all)
    rng = np.random.default_rng(n)
    specs = [_random_chain(rng, n) for _ in range(9)]
    for approx in APPROXES:
        a, q = drift_stack(_table_of(specs), approx)
        for k, spec in enumerate(specs):
            d = build_drift(spec, approx)
            assert _same_bits(a[k], d.a) and _same_bits(q[k], d.q)
            assert np.array_equal(a[k], _build_drift_per_entry(spec, approx))


def test_param_table_is_a_copy():
    spec = two_mode()
    table = param_table(spec, 2)
    assert table["theta"].shape == (2, 1) and table["kappa"].shape == (2,)
    assert set(table) == {"omega_m", "kappa", "gamma", "nbar", "eta", "theta",
                          "delta", "g_lin"}
    for column in table.values():
        column[...] = 7.0
    assert spec == two_mode()
    assert "delta" not in param_table(physical_spec())


def _param_table_from_lists(spec, size):
    """The parameter table as first built: each column from a Python list of size
    copies, the drive's columns too (a Physical drive's amplitude is complex)."""
    drive_fields = DRIVE_FIELDS if isinstance(spec.drive, Linearized) else PHYSICAL_FIELDS
    return {name: np.array([getattr(owner, name)] * size,
                           complex if name == "omega_amp" else float)
            for owner, names in ((spec, SPEC_FIELDS), (spec.drive, drive_fields))
            for name in names}


def one_mode():
    return SystemSpec(n_mech=1, omega_m=(1.0,), kappa=0.2, gamma=(1e-5,), nbar=(1e3,),
                      eta=(), theta=(), drive=Linearized(delta=1.0, g_lin=(0.1,)))


@pytest.mark.parametrize("size", [1, 1089])
@pytest.mark.parametrize("make", [
    two_mode, physical_spec, one_mode,
    lambda: to_linearized(PRESETS["figS11"]()),
    lambda: two_mode(eta=0.0, theta=-0.0, delta=-0.0, nbar=(5e-324, 1e300)),
], ids=["two_mode", "physical", "n1", "figS11", "edge_values"])
def test_param_table_matches_the_list_built_table(make, size):
    spec = make()
    table, want = param_table(spec, size), _param_table_from_lists(spec, size)
    assert list(table) == list(want)
    for name, column in table.items():
        assert column.dtype == want[name].dtype and column.shape == want[name].shape
        assert column.tobytes() == want[name].tobytes(), name
        assert column.flags.writeable and column.flags.c_contiguous and column.base is None
    columns = list(table.values())
    assert not any(np.shares_memory(a, b) for k, a in enumerate(columns) for b in columns[k + 1:])


def test_drift_conjugate_block_structure():
    d = build_drift(two_mode(), CouplingApprox(FULL, FULL))
    a = d.a
    n = a.shape[0] // 2
    assert np.allclose(a[n:, n:], np.conj(a[:n, :n]))
    assert np.allclose(a[n:, :n], np.conj(a[:n, n:]))


def test_drift_hop_entries():
    # at theta = pi/2 the (b1, b2) entry -i eta e^{i pi/2} is real eta
    d = build_drift(two_mode(eta=0.05))
    assert d.a[1, 2] == pytest.approx(0.05)
    assert d.a[2, 1] == pytest.approx(-0.05)


def test_drift_eta_zero():
    d = build_drift(two_mode(eta=0.0, theta=0.0))
    assert d.a[1, 2] == 0 and d.a[2, 1] == 0
    assert d.a[1, 5] == 0 and d.a[2, 4] == 0


def test_drift_rwa_zeroes_cross_block():
    d = build_drift(two_mode(), CouplingApprox(RWA, RWA))
    n = d.a.shape[0] // 2
    assert np.allclose(d.a[:n, n:], 0)


def test_drift_mech_full_cross_terms():
    d = build_drift(two_mode(eta=0.05, theta=0.3), CouplingApprox(FULL, FULL))
    hop = -1j * 0.05 * np.exp(1j * 0.3)
    assert d.a[1, 5] == pytest.approx(hop)
    assert d.a[2, 4] == pytest.approx(hop)


def test_drift_rwa_coupling_hermitian():
    # with all theta = 0 and RWA/RWA, the annihilation block is
    # -iH - decays with H hermitian
    spec = two_mode(eta=0.05, theta=0.0)
    d = build_drift(spec, CouplingApprox(RWA, RWA))
    n = d.a.shape[0] // 2
    x = d.a[:n, :n]
    decays = np.diag([spec.kappa] + list(spec.gamma))
    h = 1j * (x + decays)
    assert np.allclose(h, h.conj().T)


def test_drift_linearity_in_couplings():
    base = two_mode(eta=0.02, g=0.05)
    doubled_g = two_mode(eta=0.02, g=0.10)
    a1 = build_drift(base).a
    a2 = build_drift(doubled_g).a
    assert a2[0, 1] == pytest.approx(2 * a1[0, 1])
    assert a2[1, 0] == pytest.approx(2 * a1[1, 0])
    doubled_eta = two_mode(eta=0.04, g=0.05)
    a3 = build_drift(doubled_eta).a
    assert a3[1, 2] == pytest.approx(2 * a1[1, 2])


def test_drift_decoupled_eigenvalues():
    spec = two_mode(eta=0.0, theta=0.0, g=0.0)
    d = build_drift(spec)
    vals = np.linalg.eigvals(d.a)
    expect = [-(0.2 + 1j), -(0.2 - 1j),
              -(1e-5 + 1j), -(1e-5 + 1j), -(1e-5 - 1j), -(1e-5 - 1j)]
    got = sorted(vals, key=lambda z: (round(z.real, 9), z.imag))
    want = sorted(expect, key=lambda z: (round(z.real, 9), z.imag))
    assert np.allclose(got, want, atol=1e-10)


def test_drift_chain_topology():
    # open chain: no direct coupling between resonators 1 and N
    spec = SystemSpec(n_mech=4, omega_m=(1.0,) * 4, kappa=0.2,
                      gamma=(1e-5,) * 4, nbar=(1e3,) * 4,
                      eta=(0.1,) * 3, theta=(np.pi / 2, 0.0, 0.0),
                      drive=Linearized(delta=1.0, g_lin=(0.1,) * 4))
    a = build_drift(spec).a
    assert a[1, 4] == 0 and a[4, 1] == 0
    assert a[1, 2] != 0 and a[2, 3] != 0 and a[3, 4] != 0


def test_drift_from_physical_drive():
    d = build_drift(physical_spec())
    assert isinstance(d.spec.drive, Linearized)
    assert d.a.shape == (6, 6)
    # built from, and keeping, the Linearized spec of its one fixed-point solve
    for amp in (20.0, 200.0 * np.exp(0.3j), 600.0):
        spec = physical_spec(g=1e-3, amp=amp)
        lin = to_linearized(spec)
        for approx in APPROXES:
            d, ref = build_drift(spec, approx), build_drift(lin, approx)
            assert d.spec == lin
            assert d.a.tobytes() == ref.a.tobytes() and d.q.tobytes() == ref.q.tobytes()


# --- noise --------------------------------------------------------------

def test_noise_pattern():
    # Q = (C + C^T)/2 of the bath correlations C: 2 kappa at (a, a^+),
    # 2 gamma (nbar + 1) at (b_j, b_j^+) and 2 gamma nbar at (b_j^+, b_j)
    spec = two_mode()
    q = build_noise(spec)
    assert q[0, 3] == q[3, 0] == 0.5 * (2 * 0.2)
    assert q[1, 4] == q[4, 1] == 0.5 * (2 * 1e-5 * 1001 + 2 * 1e-5 * 1e3)
    # nothing else nonzero
    mask = np.zeros_like(q, dtype=bool)
    for i, j in [(0, 3), (1, 4), (2, 5), (3, 0), (4, 1), (5, 2)]:
        mask[i, j] = True
    assert np.all(q[~mask] == 0)


def test_noise_vacuum_baths():
    spec = two_mode(nbar=(0.0, 0.0))
    q = build_noise(spec)
    assert q[4, 1] == q[1, 4] == q[5, 2] == pytest.approx(1e-5)


def test_noise_q_symmetric():
    q = build_noise(two_mode())
    assert np.array_equal(q, q.T)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_noise_has_the_bits_of_the_symmetrized_bath_correlations(n):
    # the reference builds the correlation matrix C entry by entry, then (C + C^T)/2
    rng = np.random.default_rng(n)
    dim = n + 1
    for _ in range(20):
        spec = _random_chain(rng, n)
        c = np.zeros((2 * dim, 2 * dim))
        c[0, dim] = 2.0 * spec.kappa
        for j in range(n):
            c[1 + j, dim + 1 + j] = 2.0 * spec.gamma[j] * (spec.nbar[j] + 1.0)
            c[dim + 1 + j, 1 + j] = 2.0 * spec.gamma[j] * spec.nbar[j]
        assert build_noise(spec).tobytes() == (0.5 * (c + c.T)).tobytes()
