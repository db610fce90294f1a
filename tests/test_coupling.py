import numpy as np
import pytest

from scqsim import coupling as cp
from scqsim.qcore import number_op, tensor


# ---------------------------------------------------------------------------
# Jaynes-Cummings
# ---------------------------------------------------------------------------

def test_jc_uncoupled_energies():
    p = cp.JCParams(5.0, 6.5, 0.0, n_max=3)
    evals = np.sort(np.linalg.eigvalsh(cp.jc_hamiltonian(p).entries))
    want = np.sort([nq * 5.0 + nr * 6.5 for nq in (0, 1) for nr in range(4)])
    assert np.allclose(evals, want, atol=1e-12)


def test_vacuum_rabi_splitting_is_2g():
    p = cp.JCParams(5.0, 5.0, 0.05, n_max=6)
    split = cp.vacuum_rabi_splitting(p)
    assert abs(split - 0.1) / 0.1 < 1e-10


def test_jc_single_excitation_closed_form():
    # 2x2 block analytics: E = w_r + Delta/2 +- sqrt(Delta^2/4 + g^2)
    wq, wr, g = 5.0, 5.4, 0.07
    p = cp.JCParams(wq, wr, g, n_max=4)
    evals = np.linalg.eigvalsh(cp.jc_hamiltonian(p).entries)
    delta = wq - wr
    upper = wr + delta / 2 + np.sqrt(delta**2 / 4 + g**2)
    lower = wr + delta / 2 - np.sqrt(delta**2 / 4 + g**2)
    assert evals[1] == pytest.approx(lower, abs=1e-12)
    assert evals[2] == pytest.approx(upper, abs=1e-12)
    assert upper - lower == pytest.approx(np.sqrt(delta**2 + 4 * g**2), abs=1e-12)


def test_jc_conserves_excitation_number():
    p = cp.JCParams(5.0, 5.3, 0.08, n_max=5)
    h = cp.jc_hamiltonian(p).entries
    n = cp.jc_excitation_number(5).entries
    assert np.max(np.abs(h @ n - n @ h)) < 1e-12


def test_dispersive_shift_formula():
    p = cp.JCParams(5.0, 6.0, 0.1, kappa=0.02, n_max=5)
    rep = cp.dispersive_shift(p)
    assert rep.chi == pytest.approx(0.01)
    # Delta_qr / (4 g^2) = 1.0 / (4 * 0.01)
    assert rep.n_crit == pytest.approx(25.0)
    assert rep.snr_optimal_kappa == pytest.approx(0.02)
    assert rep.kappa_is_snr_optimal


def test_dispersive_limit_enforced():
    with pytest.raises(cp.DispersiveLimitError):
        cp.dispersive_shift(cp.JCParams(5.0, 5.5, 0.1, n_max=4))


def test_dressed_shift_residual_scaling():
    # fourth-order residual: |chi_exact - g^2/Delta| ~ (g/Delta)^2 * chi
    delta = 1.0
    resid = []
    for ratio in (0.05, 0.02, 0.01):
        g = ratio * delta
        p = cp.JCParams(5.0, 5.0 + delta, g, n_max=8)
        chi = g**2 / delta
        err = abs(-cp.dressed_qubit_shift(p) - chi)
        assert err < 5 * ratio**2 * chi
        resid.append(err / (chi * ratio**2))
    assert max(resid) / min(resid) < 3.0


# ---------------------------------------------------------------------------
# chi_total
# ---------------------------------------------------------------------------

def test_chi_total_two_level_consistency():
    g, wq, wr = 0.1, 5.0, 6.0
    gm = np.zeros((2, 2))
    gm[0, 1] = gm[1, 0] = g
    levels = np.array([0.0, wq])
    total = cp.chi_total(gm, levels, wr, m_cutoff=1)
    # exact expansion: chi_01 - chi_10 with the counter-rotating denominator
    expected = g**2 / (wr + wq) - g**2 / (wr - wq)
    assert total == pytest.approx(expected, rel=1e-12)
    assert abs(abs(total) - g**2 / (wr - wq)) < g**2 / (wr + wq) + 1e-12


def test_chi_total_three_level_transmon():
    # g_12 = sqrt(2) g_01 and a level-2 term shifted by the anharmonicity
    g, wq, alpha, wr = 0.1, 5.0, -0.3, 6.5
    levels = np.array([0.0, wq, 2 * wq + alpha])
    gm = np.zeros((3, 3))
    gm[0, 1] = gm[1, 0] = g
    gm[1, 2] = gm[2, 1] = np.sqrt(2) * g
    total = cp.chi_total(gm, levels, wr, m_cutoff=2)

    def chi(i, j):
        if abs(gm[i, j]) == 0 or i == j:
            return 0.0
        return gm[i, j] ** 2 / (wr - (levels[i] - levels[j]))

    expected = 0.0
    for j in range(3):
        expected += (chi(j, 1) - chi(1, j)) - (chi(j, 0) - chi(0, j))
    expected /= 2
    assert total == pytest.approx(expected, rel=1e-12)
    assert abs(total - (-g**2 / (wr - wq))) > 0.1 * g**2 / (wr - wq)


def test_chi_total_random_term_oracle():
    rng = np.random.default_rng(7)
    levels = np.array([0.0, 4.8, 9.3, 13.5])
    gm = rng.normal(size=(4, 4)) * 0.05
    gm = (gm + gm.T) / 2
    wr = 7.1
    total = cp.chi_total(gm, levels, wr, m_cutoff=3)
    expected = 0.0
    for j in range(4):
        for pair in ((j, 1, +1), (1, j, -1), (j, 0, -1), (0, j, +1)):
            i, k, sgn = pair
            if i == k:
                continue
            expected += sgn * abs(gm[i, k]) ** 2 / (wr - (levels[i] - levels[k]))
    expected /= 2
    assert total == pytest.approx(expected, rel=1e-12)


def test_chi_total_resonance_error():
    gm = np.zeros((2, 2))
    gm[0, 1] = gm[1, 0] = 0.1
    with pytest.raises(ZeroDivisionError, match="resonant"):
        cp.chi_total(gm, np.array([0.0, 5.0]), 5.0, 1)


# ---------------------------------------------------------------------------
# Qubit-qubit coupling
# ---------------------------------------------------------------------------

def test_qubit_qubit_j_zero_coupling():
    spec = cp.CapacitiveCouplingSpec(c_12=0.0, c_q1=50.0, c_q2=50.0)
    assert cp.qubit_qubit_j(spec, 5.0, 5.0) == 0.0


def test_qubit_qubit_j_symmetric_case():
    spec = cp.CapacitiveCouplingSpec(c_12=0.5, c_q1=50.0, c_q2=50.0)
    assert cp.qubit_qubit_j(spec, 5.0, 5.0) == pytest.approx(0.025)


def test_qubit_qubit_j_frequency_scaling():
    spec = cp.CapacitiveCouplingSpec(c_12=0.5, c_q1=50.0, c_q2=50.0)
    j1 = cp.qubit_qubit_j(spec, 4.0, 6.0)
    j2 = cp.qubit_qubit_j(spec, 8.0, 12.0)
    assert j2 == pytest.approx(2 * j1)


def test_qubit_qubit_j_warns_on_large_c12():
    spec = cp.CapacitiveCouplingSpec(c_12=10.0, c_q1=50.0, c_q2=50.0)
    with pytest.warns(UserWarning, match="C_12"):
        cp.qubit_qubit_j(spec, 5.0, 5.0)


def test_two_qubit_rwa_conserves_excitation():
    p = cp.TwoQubitParams(5.0, 5.4, 0.02)
    n_tot = (
        tensor(number_op(2), np.eye(2)).entries
        + tensor(np.eye(2), number_op(2)).entries
    )
    h_rwa = cp.two_qubit_hamiltonian(p, rwa=True).entries
    h_full = cp.two_qubit_hamiltonian(p, rwa=False).entries
    assert np.max(np.abs(h_rwa @ n_tot - n_tot @ h_rwa)) < 1e-12
    assert np.max(np.abs(h_full @ n_tot - n_tot @ h_full)) > 1e-3


# ---------------------------------------------------------------------------
# Transmon Kerr map
# ---------------------------------------------------------------------------

def test_kerr_map_values():
    out = cp.transmon_kerr_map(20.0, 0.4)
    assert out["omega_q"] == pytest.approx(7.6)
    assert out["kerr"] == pytest.approx(-0.4)


def test_kerr_map_zero_point_identity():
    out = cp.transmon_kerr_map(17.0, 0.31)
    assert (out["n_zpf"] * out["phi_zpf"]) ** 2 == pytest.approx(0.25, rel=1e-12)


def test_kerr_map_regime_warning():
    with pytest.warns(UserWarning, match="transmon regime"):
        cp.transmon_kerr_map(5.0, 1.0)


def test_kerr_map_vs_diagonalization():
    from scqsim import circuits as cir

    e_j, e_c = 25.0, 0.25   # E_J/E_C = 100
    out = cp.transmon_kerr_map(e_j, e_c)
    res = cir.spectrum(cir.island_hamiltonian(cir.CircuitParams(e_j, e_c)), 4)
    assert abs(out["omega_q"] - res.omega_q) / res.omega_q < 0.01
    assert abs(out["kerr"] - res.anharmonicity) / abs(res.anharmonicity) < 0.20


# ---------------------------------------------------------------------------
# Classical oscillators
# ---------------------------------------------------------------------------

def test_resonant_pair_beats_and_splitting():
    p = cp.ClassicalOscParams.resonant_pair()
    assert p.f1 == pytest.approx(p.f2)
    f_lo, f_hi = cp.normal_mode_frequencies(p)
    traj = cp.classical_oscillators(p, t_span=120.0)
    freqs, x1_mag, _ = traj.fourier()
    grid = freqs[1] - freqs[0]
    sel = (freqs > 0.5) & (freqs < 1.6)
    fsel, xsel = freqs[sel], x1_mag[sel]
    peaks = [
        i for i in range(1, len(xsel) - 1)
        if xsel[i] > xsel[i - 1] and xsel[i] > xsel[i + 1]
    ]
    top2 = sorted(sorted(peaks, key=lambda i: -xsel[i])[:2])
    assert len(top2) == 2
    split = fsel[top2[1]] - fsel[top2[0]]
    assert abs(split - (f_hi - f_lo)) < grid


def test_detuned_pair_exchanges_little_energy():
    p = cp.ClassicalOscParams()        # f2 ~ 4 f1
    traj = cp.classical_oscillators(p, t_span=40.0)
    assert np.max(np.abs(traj.x2)) < 0.1 * np.max(np.abs(traj.x1))


def test_parametric_pump_exponential_growth():
    base = cp.ClassicalOscParams()
    p = cp.ClassicalOscParams(kappa_m=0.75, f_m=base.f1 + base.f2)
    traj = cp.classical_oscillators(p, t_span=60.0)
    t = traj.times
    mask = t > 10
    for env in (traj.envelope(1), traj.envelope(2)):
        y = np.log(env[mask])
        a = np.vstack([t[mask], np.ones(mask.sum())]).T
        coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
        r2 = 1 - res[0] / np.sum((y - y.mean()) ** 2)
        assert coef[0] > 0
        assert r2 > 0.99
    assert traj.envelope(1)[-1] > 50 * traj.envelope(1)[0]


def test_resonant_drive_linear_growth():
    base = cp.ClassicalOscParams()
    p = cp.ClassicalOscParams(a_d=30.0, f_d=base.f2, x0=(0, 0, 0, 0))
    traj = cp.classical_oscillators(p, t_span=40.0)
    env = traj.envelope(2)
    a = np.vstack([traj.times, np.ones(len(traj.times))]).T
    coef, res, *_ = np.linalg.lstsq(a, env, rcond=None)
    r2 = 1 - res[0] / np.sum((env - env.mean()) ** 2)
    assert coef[0] > 0
    assert r2 > 0.99


def test_energy_conservation_static_coupling():
    p = cp.ClassicalOscParams()
    f_max = max(p.f1, p.f2)
    dt = 1.0 / (400.0 * f_max)
    traj = cp.classical_oscillators(p, t_span=10000 * dt, dt=dt)
    assert len(traj.times) >= 10000
    e = traj.energy()
    assert (e.max() - e.min()) / e.mean() < 1e-6


def test_dt_resolution_guard():
    p = cp.ClassicalOscParams()
    with pytest.raises(ValueError, match="resolve"):
        cp.classical_oscillators(p, t_span=1.0, dt=1.0)


def test_jc_params_validation():
    with pytest.raises(ValueError):
        cp.JCParams(5.0, 6.0, -0.1)
    with pytest.raises(ValueError):
        cp.JCParams(5.0, 6.0, 0.1, n_max=1)
    with pytest.raises(ValueError):
        cp.CapacitiveCouplingSpec(c_12=0.1, c_q1=0.0, c_q2=1.0)
    with pytest.raises(ValueError):
        cp.TwoQubitParams(5.0, 5.5, -0.1)


def test_fock_headroom_check():
    import scqsim.qcore as q

    nr = 4
    psi = q.ket(0, 2 * nr)                       # |0>_q |0>_r
    assert cp.fock_headroom(psi.to_density(), n_max=3) == 0.0
    top = q.ket(3, 2 * nr)                       # |0>_q |3>_r
    with pytest.raises(ValueError, match="n_max"):
        cp.fock_headroom(top.to_density(), n_max=3)
