import itertools

import numpy as np
import pytest

from scqsim import experiments as ex
from scqsim.coupling import JCParams
from scqsim.qcore import H_GATE, S_GATE, equal_up_to_global_phase, to_angular


# ---------------------------------------------------------------------------
# Resonator response
# ---------------------------------------------------------------------------

def test_resonator_response_zero_chi():
    p = JCParams(5.0, 6.0, 0.0, kappa=0.005, n_max=3)
    grid = np.linspace(5.99, 6.01, 301)
    sg = ex.resonator_response(p, "g", grid)
    se = ex.resonator_response(p, "e", grid)
    assert np.allclose(sg, se)


def test_resonator_peaks_split_by_two_chi():
    chi = 0.05**2 / 1.0
    p = JCParams(5.0, 6.0, 0.05, kappa=2 * chi, n_max=3)
    grid = np.linspace(5.99, 6.01, 4001)
    sg = np.abs(ex.resonator_response(p, "g", grid))
    se = np.abs(ex.resonator_response(p, "e", grid))
    split = grid[np.argmax(sg)] - grid[np.argmax(se)]
    assert split == pytest.approx(2 * chi, abs=grid[1] - grid[0])


def test_resonator_phase_trace():
    p = JCParams(5.0, 6.0, 0.05, kappa=0.004, n_max=3)
    grid = np.linspace(5.95, 6.06, 2001)
    phase = np.angle(ex.resonator_response(p, "g", grid))
    assert phase[0] > 1.3                  # approaches +pi/2 below the line
    assert phase[-1] < -1.3                # approaches -pi/2 above it
    assert np.all(np.diff(phase) < 0)


def test_snr_contrast_maximal_at_kappa_2chi():
    chi = 0.05**2 / 1.0

    def contrast(kappa):
        p = JCParams(5.0, 6.0, 0.05, kappa=kappa, n_max=3)
        probe = np.array([6.0])
        sg = ex.resonator_response(p, "g", probe)[0]
        se = ex.resonator_response(p, "e", probe)[0]
        return abs(sg - se)

    best = contrast(2 * chi)
    assert best > contrast(chi)
    assert best > contrast(4 * chi)
    assert best > contrast(0.5 * chi)


# ---------------------------------------------------------------------------
# Two-tone spectroscopy
# ---------------------------------------------------------------------------

def _lorentzian_fwhm(x, y):
    # half-maximum crossings (zero baseline), linearly interpolated
    half = y.max() / 2
    k = int(np.argmax(y))
    left = np.interp(half, y[: k + 1], x[: k + 1])
    right = np.interp(half, y[k:][::-1], x[k:][::-1])
    return right - left


def test_two_tone_far_detuned_baseline():
    pops = ex.two_tone_scan(5.0, 250.0, 200.0, 1.4e-3,
                            np.array([4.90, 5.10]))
    assert np.all(pops < 1e-3)


def test_two_tone_peak_and_linewidth():
    t1, t2 = 250.0, 200.0
    drive = np.sqrt(0.1 / (t1 * t2))       # saturation parameter 0.1
    grid = np.linspace(4.994, 5.006, 41)
    pops = ex.two_tone_scan(5.0, t1, t2, drive, grid)
    assert grid[np.argmax(pops)] == pytest.approx(5.0, abs=grid[1] - grid[0])
    fwhm = _lorentzian_fwhm(grid, pops)
    # width ~ sqrt(1+s)/(pi T2) with s = 0.1
    want = np.sqrt(1.1) / (np.pi * t2)
    assert abs(fwhm - want) / want < 0.10


def test_two_tone_matches_steady_state_oracle():
    """Evolved populations against the closed-form driven-qubit steady state
    rho_ee = (s/2) / (1 + (Delta T2)^2 + s)."""
    t1, t2 = 250.0, 200.0
    drive = np.sqrt(0.1 / (t1 * t2))
    grid = np.linspace(4.996, 5.004, 9)
    pops = ex.two_tone_scan(5.0, t1, t2, drive, grid)
    s = drive**2 * t1 * t2
    delta = to_angular(5.0 - grid)
    oracle = (s / 2) / (1 + (delta * t2) ** 2 + s)
    assert np.max(np.abs(pops - oracle)) < 1e-4


def test_two_tone_lamb_shift_convention():
    t1, t2 = 250.0, 200.0
    drive = np.sqrt(0.05 / (t1 * t2))
    chi = 0.003
    grid = np.linspace(4.991, 5.003, 25)
    pops = ex.two_tone_scan(5.0, t1, t2, drive, grid, chi=chi)
    assert grid[np.argmax(pops)] == pytest.approx(5.0 - chi, abs=grid[1] - grid[0])


def test_two_tone_saturation_warning():
    with pytest.warns(UserWarning, match="saturation"):
        ex.two_tone_scan(5.0, 250.0, 200.0, 0.01, np.array([5.0]))


# ---------------------------------------------------------------------------
# Time-domain experiments
# ---------------------------------------------------------------------------

def test_rabi_frequency_recovered():
    omega = to_angular(0.01)
    taus = np.linspace(0.0, 300.0, 61)
    data = ex.run_rabi(omega, taus, t1=2000.0, t2=3000.0)
    fit = ex.fit_rabi(data.x, data.signal)
    assert fit.converged
    assert abs(fit.params["omega"] - omega) / omega < 0.01


def test_t1_recovered():
    t1 = 500.0
    data = ex.run_t1(np.linspace(0.0, 2500.0, 41), t1)
    fit = ex.fit_t1(data.x, data.signal)
    assert fit.converged
    assert abs(fit.params["t1"] - t1) / t1 < 0.01


def test_ramsey_fringe_frequency():
    det = 0.002
    data = ex.run_ramsey(np.linspace(0.0, 2000.0, 101), t1=5000.0, t2=1500.0,
                         detuning=det)
    fit = ex.fit_ramsey(data.x, data.signal)
    assert fit.converged
    assert abs(fit.params["omega_qd"] - to_angular(det)) / to_angular(det) < 0.01
    assert abs(fit.params["t2"] - 1500.0) / 1500.0 < 0.05


def test_readout_misassignment_shifts_signal():
    taus = np.linspace(0.0, 1000.0, 21)
    clean = ex.run_t1(taus, 300.0)
    noisy = ex.run_t1(taus, 300.0, readout=ex.ReadoutModel(eps01=0.05, eps10=0.05))
    # misassignment compresses the contrast toward 0.5
    assert noisy.signal[0] < clean.signal[0]
    assert noisy.signal[-1] > clean.signal[-1]


def test_shot_noise_sampling_deterministic():
    taus = np.linspace(0.0, 300.0, 16)
    ro = ex.ReadoutModel(shots=500)
    a = ex.run_rabi(to_angular(0.01), taus, readout=ro, seed=42)
    b = ex.run_rabi(to_angular(0.01), taus, readout=ro, seed=42)
    assert np.array_equal(a.signal, b.signal)
    assert np.all(a.sem[1:] > 0)


def test_projective_readout_is_qnd():
    rng = np.random.default_rng(17)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    for _ in range(50):
        out1, post = ex.projective_readout(rho, rng)
        out2, post2 = ex.projective_readout(post, rng)
        assert out1 == out2
        assert np.allclose(post, post2)


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------

def test_fit_rabi_synthetic_round_trip():
    t = np.linspace(0.0, 100.0, 64)
    y = 0.4 + 0.35 * np.cos(0.31 * t + 1.1) * np.exp(-t / 60.0)
    fit = ex.fit_rabi(t, y)
    assert abs(fit.params["omega"] - 0.31) / 0.31 < 1e-3
    assert abs(fit.params["t_r"] - 60.0) / 60.0 < 1e-3


def test_fit_rabi_pure_decay_degeneracy_guard():
    t = np.linspace(0.0, 100.0, 64)
    y = 0.1 + 0.8 * np.exp(-t / 40.0)
    fit = ex.fit_rabi(t, y)
    assert fit.converged
    assert abs(fit.params["omega"]) < 1e-6
    assert all(np.isfinite(v) for v in fit.sigmas.values())


@pytest.mark.parametrize("periods", [1, 2, 5])
def test_fit_rabi_few_periods_keep_oscillating_branch(periods):
    t = np.linspace(0.0, 100.0, 64)
    omega = 2 * np.pi * periods / 100.0
    y = 0.4 + 0.35 * np.cos(omega * t + 1.1) * np.exp(-t / 60.0)
    # one period puts the FFT peak in bin 1, where the decay model competes
    assert ex._fft_frequency(t, y)[1] == periods
    fit = ex.fit_rabi(t, y)
    assert fit.converged
    assert abs(fit.params["omega"] - omega) / omega < 0.01
    assert fit.params["t_r"] > 0


@pytest.mark.parametrize("tau", [20.0, 80.0, 500.0])
def test_fit_rabi_pure_decay_beats_near_zero_frequency_fit(tau):
    # here the oscillating model also fits, with Omega ~ 1e-8 and T_R > 0;
    # the information criterion must still prefer the decay model
    t = np.linspace(0.0, 100.0, 64)
    y = 0.1 + 0.8 * np.exp(-t / tau)
    fit = ex.fit_rabi(t, y)
    assert fit.converged
    assert fit.params["omega"] == 0.0
    assert abs(fit.params["t_r"] - tau) / tau < 1e-6


def test_fit_ramsey_pure_decay_reports_no_detuning():
    t = np.linspace(0.0, 100.0, 64)
    y = 0.1 + 0.8 * np.exp(-t / 40.0)
    fit = ex.fit_ramsey(t, y)
    assert fit.params["omega_qd"] == 0.0
    assert np.isfinite(fit.params["t2"]) and fit.params["t2"] > 0


def test_fit_rabi_noisy_pure_decay_takes_decay_branch():
    rng = np.random.default_rng(2024)
    t = np.linspace(0.0, 100.0, 64)
    y = 0.1 + 0.8 * np.exp(-t / 40.0) + 0.01 * rng.standard_normal(64)
    fit = ex.fit_rabi(t, y)
    assert fit.converged
    assert fit.params["omega"] == 0.0
    assert fit.params["t_r"] > 0
    assert abs(fit.params["t_r"] - 40.0) / 40.0 < 0.1


def test_fit_ramsey_gaussian_round_trip():
    t = np.linspace(0.0, 100.0, 64)
    t_g, t1 = 35.0, 80.0
    y = 0.2 + 0.7 * np.exp(-((t / t_g) ** 2)) * np.exp(-t / (2 * t1))
    fit = ex.fit_ramsey_gaussian(t, y, t1=t1)
    assert abs(fit.params["t_g"] - t_g) / t_g < 0.01


def test_fit_gaussian_requires_t1():
    t = np.linspace(0.0, 100.0, 16)
    with pytest.raises(ValueError, match="T1"):
        ex.fit_ramsey_gaussian(t, np.ones_like(t), t1=np.inf)


def test_fits_require_enough_points():
    with pytest.raises(ValueError, match="8 points"):
        ex.fit_t1(np.arange(5.0), np.ones(5))


def test_fit_determinism():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 100.0, 48)
    y = 0.5 + 0.4 * np.cos(0.2 * t) * np.exp(-t / 50.0) + 0.01 * rng.standard_normal(48)
    f1 = ex.fit_rabi(t, y)
    f2 = ex.fit_rabi(t, y)
    assert f1.params == f2.params
    assert f1.sigmas == f2.sigmas


# ---------------------------------------------------------------------------
# Clifford group
# ---------------------------------------------------------------------------

def test_clifford_group_size_and_identity():
    cl = ex.clifford_1q()
    assert len(cl) == 24
    assert cl[0].word == ""
    assert np.allclose(cl[0].op.entries, np.eye(2))


def test_clifford_hh_is_identity():
    cl = ex.clifford_1q()
    h = next(c for c in cl if c.word == "H")
    key_i = ex._phase_key(np.eye(2, dtype=complex))
    assert ex._phase_key((h.op @ h.op).entries) == key_i


def test_clifford_closure():
    cl = ex.clifford_1q()
    keys = {ex._phase_key(np.asarray(c.op.entries)) for c in cl}
    assert len(keys) == 24
    for a, b in itertools.product(cl, repeat=2):
        assert ex._phase_key((a.op @ b.op).entries) in keys


def test_clifford_words_reproduce_matrices():
    cl = ex.clifford_1q()
    gates = {"H": H_GATE.entries, "S": S_GATE.entries}
    for c in cl:
        m = np.eye(2, dtype=complex)
        for letter in c.word:
            m = gates[letter] @ m
        assert ex._phase_key(m) == ex._phase_key(np.asarray(c.op.entries))


def test_clifford_table_matches_matrix_products():
    """All 576 entries: table[a, b] is M_b @ M_a up to phase; index 0 is the
    identity, and each row holds it exactly once, at the inverse."""
    cl = ex.clifford_1q()
    table, inverse = ex._clifford_table()
    assert table.shape == (24, 24)
    for a, b in itertools.product(range(24), repeat=2):
        want = cl[b].op.entries @ cl[a].op.entries
        assert equal_up_to_global_phase(cl[table[a, b]].op, want)
    assert np.allclose(cl[0].op.entries, np.eye(2))
    assert np.array_equal(table[0], np.arange(24))
    assert np.array_equal(table[:, 0], np.arange(24))
    assert all(np.count_nonzero(row == 0) == 1 for row in table)
    assert np.array_equal(table[np.arange(24), inverse], np.zeros(24))


# ---------------------------------------------------------------------------
# Randomized benchmarking
# ---------------------------------------------------------------------------

RB_LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def test_rb_zero_noise():
    cfg = ex.RBConfig(lengths=(1, 4, 16, 64), sequences_per_length=8,
                      shots=0, error={}, seed=0)
    res = ex.rb_standard(cfg)
    assert np.allclose(res.survival, 1.0)
    assert res.p == pytest.approx(1.0, abs=1e-6)
    assert res.r == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("eps01, eps10", [(0.1, 0.0), (0.0, 0.1), (0.05, 0.2)])
def test_rb_readout_error_convention(eps01, eps10):
    # noiseless gates return |0>, so survival = P(report 0 | 0) = 1 - eps01,
    # the misassignment convention of ReadoutModel
    cfg = ex.RBConfig(lengths=(1, 4, 16), sequences_per_length=4, shots=0,
                      error={}, eps01=eps01, eps10=eps10, seed=0)
    want = 1.0 - ex.ReadoutModel(eps01, eps10).observed_p1(0.0)
    assert want == pytest.approx(1.0 - eps01)
    survival, _ = ex._rb_survival(cfg, interleave=False)
    assert np.allclose(survival, want, atol=1e-12)


def test_rb_recovers_depolarizing_rate():
    cfg = ex.RBConfig(lengths=RB_LENGTHS, sequences_per_length=45, shots=250,
                      error={"depolarizing": 0.01}, seed=3)
    res = ex.rb_standard(cfg)
    assert abs(res.r - 0.01) / 0.01 < 0.05


def test_rb_survival_monotone_within_noise():
    cfg = ex.RBConfig(lengths=RB_LENGTHS, sequences_per_length=40, shots=400,
                      error={"depolarizing": 0.02}, seed=9)
    res = ex.rb_standard(cfg)
    tol = 3 * np.max(res.sem)
    assert all(b <= a + tol for a, b in zip(res.survival, res.survival[1:]))


def test_rb_spam_robust():
    base = ex.RBConfig(lengths=RB_LENGTHS, sequences_per_length=45, shots=250,
                       error={"depolarizing": 0.01}, seed=3)
    spam = ex.RBConfig(lengths=RB_LENGTHS, sequences_per_length=45, shots=250,
                       error={"depolarizing": 0.01}, prep_error=0.02, seed=3)
    r0 = ex.rb_standard(base)
    r1 = ex.rb_standard(spam)
    assert abs(r1.r - r0.r) / r0.r < 0.10
    # the SPAM shows up in A and B instead
    assert abs(r1.a - r0.a) > 1e-3 or abs(r1.b - r0.b) > 1e-3


def test_rb_interleaved_identity_consistent_with_zero():
    cl = ex.clifford_1q()
    ident = next(i for i, c in enumerate(cl) if c.word == "")
    cfg = ex.RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128),
                      sequences_per_length=40, shots=250,
                      error={"depolarizing": 0.01}, interleaved=ident, seed=4)
    res = ex.rb_interleaved(cfg)
    assert abs(res.r_c) <= 2 * res.r_c_sigma
    assert res.bounds[0] <= res.r_c <= res.bounds[1]


def test_rb_interleaved_noisy_gate_detected():
    cl = ex.clifford_1q()
    hadamard = next(i for i, c in enumerate(cl) if c.word == "H")
    cfg = ex.RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64),
                      sequences_per_length=40, shots=400,
                      error={"depolarizing": 0.005}, interleaved=hadamard,
                      interleaved_error={"depolarizing": 0.02}, seed=6)
    res = ex.rb_interleaved(cfg)
    assert abs(res.r_c - 0.02) / 0.02 < 0.25


def test_rb_t1t2_channel():
    cfg = ex.RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128),
                      sequences_per_length=40, shots=0,
                      error={"t1": 3000.0, "t2": 2500.0, "gate_time": 20.0},
                      seed=8)
    res = ex.rb_standard(cfg)
    assert 0.0 < res.r < 0.02
    assert res.p < 1.0


def test_rb_config_validation():
    with pytest.raises(ValueError, match="distinct"):
        ex.RBConfig(lengths=(2, 2, 4))
    with pytest.raises(ValueError):
        ex.RBConfig(lengths=(0, 1))
    with pytest.raises(ValueError, match="Clifford index"):
        ex.rb_interleaved(ex.RBConfig(lengths=(1, 2)))


def test_rb_deterministic_given_seed():
    cfg = ex.RBConfig(lengths=(1, 4, 16), sequences_per_length=10, shots=100,
                      error={"depolarizing": 0.01}, seed=12)
    a = ex.rb_standard(cfg)
    b = ex.rb_standard(cfg)
    assert np.array_equal(a.survival, b.survival)
    assert a.p == b.p


def test_rabi_calibration_chains_into_t1():
    """The T1 sequence reuses the pi time extracted from the Rabi fit; a
    slightly miscalibrated pulse must not bias the recovered T1."""
    omega_true = to_angular(0.01)
    rabi = ex.run_rabi(omega_true, np.linspace(0.0, 300.0, 61),
                       t1=2000.0, t2=3000.0)
    fit = ex.fit_rabi(rabi.x, rabi.signal)
    miscal = 1.0 - omega_true / fit.params["omega"]
    assert abs(miscal) < 0.02
    t1 = 500.0
    data = ex.run_t1(np.linspace(0.0, 2500.0, 41), t1,
                     pi_pulse_error=miscal)
    t1_fit = ex.fit_t1(data.x, data.signal)
    assert abs(t1_fit.params["t1"] - t1) / t1 < 0.01
