import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import least_squares
from scipy.special import betainc

from scqsim import dynamics as dyn
from scqsim import experiments as ex
from scqsim.coupling import JCParams
from scqsim.qcore import (H_GATE, PAULIS, S_GATE, SIGMA_X, global_phase_distance,
                          rotation_operator, to_angular)


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


def test_two_tone_lamb_shift_convention():
    t1, t2 = 250.0, 200.0
    drive = np.sqrt(0.05 / (t1 * t2))
    chi = 0.003
    grid = np.linspace(4.991, 5.003, 25)
    pops = ex.two_tone_scan(5.0, t1, t2, drive, grid, chi=chi)
    assert grid[np.argmax(pops)] == pytest.approx(5.0 - chi, abs=grid[1] - grid[0])


@pytest.mark.parametrize("sat, chi, grid", [
    (0.05, 0.0025, np.linspace(4.991, 5.003, 25)),     # demo 02's scan
    (0.5, -0.004, np.linspace(4.996, 5.012, 33)),
    (0.1, 0.0, np.linspace(4.996, 5.004, 9)),
])
def test_two_tone_is_the_closed_form_steady_state(sat, chi, grid):
    """The scan is the driven qubit's steady state to round-off:
    rho_ee = (s/2) / (1 + (Delta T2)^2 + s) with Delta = 2 pi (w_q - chi - w_d)."""
    t1, t2 = 250.0, 200.0
    drive = np.sqrt(sat / (t1 * t2))
    pops = ex.two_tone_scan(5.0, t1, t2, drive, grid, chi=chi)
    s = drive**2 * t1 * t2
    delta = to_angular(5.0 - chi - grid)
    oracle = (s / 2) / (1 + (delta * t2) ** 2 + s)
    assert np.max(np.abs(pops - oracle)) < 1e-12


def test_two_tone_saturation_warning():
    with pytest.warns(UserWarning, match="saturation"):
        ex.two_tone_scan(5.0, 250.0, 200.0, 0.01, np.array([5.0]))


def test_two_tone_infinite_t2_is_twice_t1():
    """An infinite T2 sizes the saturation parameter as T2 = 2 T1 does,
    and warns of nothing."""
    grid = np.linspace(4.995, 5.005, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pops = ex.two_tone_scan(5.0, 100.0, np.inf, 1e-3, grid)
    assert np.array_equal(pops, ex.two_tone_scan(5.0, 100.0, 200.0, 1e-3, grid))


def test_two_tone_needs_a_finite_coherence_time():
    with pytest.raises(ValueError, match="finite T1 or T2"):
        ex.two_tone_scan(5.0, np.inf, np.inf, 1e-3, np.array([5.0]))


def test_two_tone_without_decay_needs_a_drive():
    """Pure dephasing leaves every diagonal state steady without a drive;
    with one, the steady state is the fully mixed state (and the
    saturation parameter is infinite)."""
    with pytest.raises(ValueError, match="a drive when T1 is infinite"):
        ex.two_tone_scan(5.0, np.inf, 100.0, 0.0, np.array([5.0]))
    with pytest.warns(UserWarning, match="saturation"):
        pops = ex.two_tone_scan(5.0, np.inf, 100.0, 1e-3, np.array([4.999, 5.0]))
    assert np.max(np.abs(pops - 0.5)) < 1e-12


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


# Every run is the rotating-frame qubit H = Delta |1><1| + Omega sigma_x / 2
# with T1/T2 collapse operators; each oracle below builds that model by hand
# and reads it out one point at a time.

GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)
SHOT_READOUT = ex.ReadoutModel(eps01=0.03, eps10=0.08, shots=700)


def _per_point_readout(p1s, readout, seed):
    """One scalar binomial draw per point, in order."""
    rng = np.random.default_rng(seed)
    means, sems = [], []
    for p in p1s:
        q = float(np.clip((1 - readout.eps10) * p + readout.eps01 * (1 - p), 0.0, 1.0))
        if readout.shots is None:
            means.append(q)
            sems.append(0.0)
            continue
        mean = rng.binomial(readout.shots, q) / readout.shots
        means.append(mean)
        sems.append(np.sqrt(max(mean * (1 - mean), 1e-12) / readout.shots))
    return np.array(means), np.array(sems)


def _assert_data(data, p1s, readout, seed):
    mean, sem = _per_point_readout(p1s, readout, seed)
    assert np.array_equal(data.signal, mean)
    assert np.array_equal(data.sem, sem)


@pytest.mark.parametrize("readout", [ex.ReadoutModel(), SHOT_READOUT])
def test_run_rabi_is_the_driven_qubit(readout):
    rate, taus = to_angular(0.01), np.linspace(0.0, 300.0, 31)
    data = ex.run_rabi(rate, taus, 2000.0, 3000.0, readout, seed=5)
    res = dyn.lindblad_evolve(0.5 * rate * SIGMA_X.entries, GROUND,
                              dyn.qubit_collapse_ops(2000.0, 3000.0), times=taus,
                              dt=0.5, e_ops={"p1": EXCITED})
    _assert_data(data, res.expectations["p1"], readout, 5)


@pytest.mark.parametrize("pi_pulse_error", [0.0, 0.03])
def test_run_t1_is_the_inverted_qubit(pi_pulse_error):
    """Inversion recovery at the default T2, which is 2 T1."""
    taus = np.linspace(0.0, 2500.0, 41)
    data = ex.run_t1(taus, 500.0, readout=SHOT_READOUT, seed=6,
                     pi_pulse_error=pi_pulse_error)
    u = rotation_operator("x", np.pi * (1.0 - pi_pulse_error)).entries
    res = dyn.lindblad_evolve(np.zeros((2, 2), dtype=complex),
                              u @ GROUND @ u.conj().T,
                              dyn.qubit_collapse_ops(500.0, 1000.0), times=taus,
                              dt=2.5, e_ops={"p1": EXCITED})
    _assert_data(data, res.expectations["p1"], SHOT_READOUT, 6)


def test_run_ramsey_is_the_free_qubit_between_half_pulses():
    taus = np.linspace(0.0, 2000.0, 101)
    data = ex.run_ramsey(taus, 5000.0, 1500.0, 0.002, SHOT_READOUT, seed=7)
    c = 1 / np.sqrt(2)
    u_half = np.array([[c, -1j * c], [-1j * c, c]])
    res = dyn.lindblad_evolve(to_angular(0.002) * EXCITED,
                              u_half @ GROUND @ u_half.conj().T,
                              dyn.qubit_collapse_ops(5000.0, 1500.0), times=taus,
                              dt=1500.0 / 200.0)
    u_back = u_half.conj().T
    p1s = [(u_back @ st.entries @ u_back.conj().T)[1, 1].real for st in res.states]
    _assert_data(data, p1s, SHOT_READOUT, 7)


@pytest.mark.parametrize("t1, t2, detuning", [
    (5000.0, 1500.0, 0.002), (10000.0, 15000.0, 0.001), (80.0, np.inf, -0.05),
    (np.inf, np.inf, 0.0),
])
def test_run_ramsey_closing_pulse_equals_per_state_loop(t1, t2, detuning):
    """The closing R_x(-pi/2) as one stacked product gives each state's own
    product bit for bit (noiseless readout passes p1 through)."""
    taus = np.linspace(0.0, 2000.0, 101)
    data = ex.run_ramsey(taus, t1, t2, detuning)
    c = 1 / np.sqrt(2)
    u_half = np.array([[c, -1j * c], [-1j * c, c]])
    res = ex.qubit_run(taus, t1, t2, to_angular(detuning), prep=u_half)
    u_back = u_half.conj().T
    p1s = [(u_back @ st.entries @ u_back.conj().T)[1, 1].real for st in res.states]
    assert np.array_equal(data.signal, ex.ReadoutModel().sample(p1s, None)[0])


def test_two_tone_scan_is_the_driven_qubit_per_point():
    """The steady state is where the driven qubit ends up: one long run per
    point (60 T1, so the transient is e^-60 of its start)."""
    t1, t2 = 250.0, 200.0
    drive = np.sqrt(0.1 / (t1 * t2))
    grid = np.array([4.999, 5.0015])
    pops = ex.two_tone_scan(5.0, t1, t2, drive, grid)
    want = [ex.qubit_run(np.array([0.0, 60.0 * t1]), t1, t2, to_angular(5.0 - wd),
                         drive).expectations["p1"][-1]
            for wd in grid]
    assert np.max(np.abs(pops - want)) < 1e-12


@pytest.mark.parametrize("shots", [None, 1, 7, 1000, 100_000])
@pytest.mark.parametrize("eps01, eps10", [(0.0, 0.0), (0.03, 0.08)])
def test_readout_series_equals_per_point_draws(shots, eps01, eps10):
    """One call on the series draws what one call per point draws, p1 = 0
    and 1 included, and leaves the rng where the per-point calls leave it."""
    p1s = np.array([0.0, 1.0, 0.25, 0.5, 1.0, 0.0, 0.9, 1e-9, 1.0 - 1e-9])
    ro = ex.ReadoutModel(eps01, eps10, shots)
    rng, rng_points = np.random.default_rng(11), np.random.default_rng(11)
    mean, sem = ro.sample(p1s, rng)
    pairs = [ro.sample(p, rng_points) for p in p1s]
    want_mean, want_sem = _per_point_readout(p1s, ro, 11)
    assert np.array_equal(mean, want_mean) and np.array_equal(sem, want_sem)
    assert np.array_equal([float(m) for m, _ in pairs], want_mean)
    assert np.array_equal([float(s) for _, s in pairs], want_sem)
    assert rng.random() == rng_points.random()


@pytest.mark.parametrize("shots", [0, -3, 2.5, True])
def test_readout_rejects_bad_shot_counts(shots):
    with pytest.raises(ValueError, match="shots must be None or an integer"):
        ex.ReadoutModel(shots=shots)


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------

def test_fit_rabi_finds_the_exact_decay_at_50_mhz():
    """CLI experiment's rabi at rabi_ghz = 0.05 and its defaults (T1 = 10 us,
    T2 = 15 us, 101 points over 1 us): the noiseless run is the exact map,
    so the fit finds the drive and T_R = 2 / (1/T1 + 1/T2) = 12,000 ns, each
    within 0.5%.  (This grid samples the 20 ns period exactly twice, so the
    polish stalls on a rank-deficient Jacobian and ``converged`` is False.)"""
    omega = to_angular(0.05)
    data = ex.run_rabi(omega, np.linspace(0.0, 1000.0, 101), 10000.0, 15000.0)
    fit = ex.fit_rabi(data.x, data.signal)
    assert abs(fit.params["t_r"] - 12000.0) <= 0.005 * 12000.0
    assert abs(fit.params["omega"] - omega) <= 0.005 * omega


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


@pytest.mark.parametrize("periods, branch", [(1, "oscillating"), (0, "decay"),
                                             (2, "oscillating")])
def test_fit_rabi_stats_count_every_fit_it_ran(periods, branch):
    """In FFT bin 1 both fits run: ``stats`` names the returned one and holds
    each one's evaluations, while ``nfev`` stays the returned fit's."""
    t = np.linspace(0.0, 100.0, 64)
    omega = 2 * np.pi * periods / 100.0
    y = 0.4 + 0.35 * np.cos(omega * t + 1.1) * np.exp(-t / 60.0)
    fit = ex.fit_rabi(t, y)
    assert fit.stats["branch"] == branch
    assert fit.stats["oscillating_nfev"] > 0
    if ex._fft_frequency(t, y)[1] > 1:
        assert fit.stats == {"branch": "oscillating", "oscillating_nfev": fit.nfev}
        return
    decay = ex.fit_t1(t, y)
    assert fit.stats["decay_nfev"] == decay.nfev > 0
    assert fit.nfev == fit.stats[f"{branch}_nfev"]
    assert (fit.params["omega"] == 0.0) == (branch == "decay")
    # fit_ramsey is the same fit, renamed
    assert ex.fit_ramsey(t, y).stats == fit.stats
    assert ex.fit_t1(t, y).stats == {}


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
    y = np.ones(16)
    y[3] = np.nan
    for fit in (ex.fit_t1, ex.fit_rabi):
        with pytest.raises(ValueError, match="finite"):
            fit(np.arange(16.0), y)


@pytest.mark.parametrize("fit", [
    ex.fit_rabi, ex.fit_t1, ex.fit_ramsey,
    lambda x, y: ex.fit_ramsey_gaussian(x, y, t1=80.0),
], ids=["rabi", "t1", "ramsey", "ramsey_gaussian"])
def test_fits_reject_series_of_two_lengths(fit):
    x = np.linspace(0.0, 100.0, 40)
    y = 0.5 + 0.4 * np.cos(0.2 * x) * np.exp(-x / 50.0)
    with pytest.raises(ValueError, match="one length"):
        fit(x, y[:37])
    with pytest.raises(ValueError, match="one length"):
        fit(x.reshape(8, 5), y.reshape(8, 5))


_T = np.linspace(0.0, 100.0, 64)
_NOISE = 0.01 * np.random.default_rng(5).standard_normal(64)
_RB_M = np.array([1.0, 2, 4, 8, 16, 32, 64, 128, 256])
_RB_SEM = 0.004 + 0.002 * np.sqrt(_RB_M / 256)


def _damped_cosine(p, t):
    return p[0] + p[1] * np.cos(p[3] * t + p[2]) * np.exp(-t / p[4])


def _decay(p, t):
    return p[0] + p[1] * np.exp(-t / p[2])


def _gaussian(p, t):
    return p[0] + p[1] * np.exp(-((t / p[2]) ** 2)) * np.exp(-t / 160.0)


def _rb_curve(p, m):
    return p[0] * p[1] ** m + p[2]


# (fit, model, names in model order, x, y, generating params, weights)
_ORACLE_CASES = {
    "rabi": (ex.fit_rabi, _damped_cosine, ["a0", "a1", "a2", "omega", "t_r"], _T,
             0.4 + 0.35 * np.cos(0.31 * _T + 1.1) * np.exp(-_T / 60) + _NOISE,
             [0.4, 0.35, 1.1, 0.31, 60.0], None),
    # signals that start at their maximum, at 1.25 (FFT bin 1) and 1.5 periods
    **{f"rabi_max_first_{n}": (
        ex.fit_rabi, _damped_cosine, ["a0", "a1", "a2", "omega", "t_r"], _T,
        0.5 + 0.4 * np.cos(2 * np.pi * n / 100 * _T) * np.exp(-_T / 60),
        [0.5, 0.4, 0.0, 2 * np.pi * n / 100, 60.0], None) for n in (1.25, 1.5)},
    "ramsey": (ex.fit_ramsey, _damped_cosine, ["a0", "a1", "a2", "omega_qd", "t2"], _T,
               0.5 - 0.45 * np.cos(0.2 * _T) * np.exp(-_T / 45) + _NOISE,
               [0.5, 0.45, np.pi, 0.2, 45.0], None),
    "t1": (ex.fit_t1, _decay, ["a0", "a1", "t1"], _T,
           0.1 + 0.8 * np.exp(-_T / 40) + _NOISE, [0.1, 0.8, 40.0], None),
    "ramsey_gaussian": (lambda x, y: ex.fit_ramsey_gaussian(x, y, t1=80.0), _gaussian,
                        ["a0", "a1", "t_g"], _T,
                        0.2 + 0.7 * np.exp(-((_T / 35) ** 2)) * np.exp(-_T / 160) + _NOISE,
                        [0.2, 0.7, 35.0], None),
    "rb": (lambda m, y: ex.fit_rb_decay(m, y, _RB_SEM), _rb_curve, ["a", "p", "b"], _RB_M,
           0.45 * 0.98 ** _RB_M + 0.5 + _RB_SEM * np.random.default_rng(6).standard_normal(9),
           [0.45, 0.98, 0.5], 1 / _RB_SEM),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_fit_is_the_least_squares_minimum(case):
    """Each fit lands on the minimum that least_squares finds at 1e-15
    tolerances from the generating parameters: its RSS is no more than the
    oracle's plus 1e-14, and its parameters agree to 1e-7 (the oracle itself
    stops up to ~1e-8 short of the minimum on these series)."""
    fit, model, names, x, y, p0, w = _ORACLE_CASES[case]
    w = np.ones_like(y) if w is None else w
    sol = least_squares(lambda p: (model(p, x) - y) * w, p0, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    res = fit(x, y)
    assert res.converged
    assert res.residual_norm ** 2 <= sol.fun @ sol.fun + 1e-14
    got = np.array([res.params[n] for n in names])
    diff = got - sol.x
    if model is _damped_cosine:           # the phase is defined modulo 2 pi
        diff[2] = (diff[2] + np.pi) % (2 * np.pi) - np.pi
    assert np.all(np.abs(diff) <= 1e-7 * np.maximum(np.abs(sol.x), 1e-3)), (got, sol.x)


# Rabi at T_R far beyond the window (as CLI `experiment` kind = rabi with
# 2,000 shots): with J^T J unscaled, pinv's relative cutoff dropped T_R
_T_LONG = np.linspace(0.0, 1000.0, 101)
_SIGMA_CASES = {**_ORACLE_CASES, "rabi_long_t_r": (
    ex.fit_rabi, _damped_cosine, ["a0", "a1", "a2", "omega", "t_r"], _T_LONG,
    0.5 + 0.45 * np.cos(0.0628 * _T_LONG + np.pi) * np.exp(-_T_LONG / 12000)
    + 0.011 * np.random.default_rng(7).standard_normal(101),
    [0.5, 0.45, np.pi, 0.0628, 12000.0], None)}


@pytest.mark.parametrize("case", list(_SIGMA_CASES))
def test_fit_sigmas_are_the_covariance_diagonal(case):
    """Sigmas are sqrt(diag((J^T J)^-1) s^2) at the fitted parameters, s^2 =
    RSS / (n - p), to 1e-6 relative: J by complex-step differentiation of the
    model, the inverse in 40-digit arithmetic (mpmath) with no cutoff.  The
    RB fit's sem weights are known inverse standard errors: s^2 = 1 there."""
    mpmath = pytest.importorskip("mpmath")
    fit, model, names, x, y, _, w = _SIGMA_CASES[case]
    w = np.ones_like(y) if w is None else w
    res = fit(x, y)
    p = np.array([res.params[n] for n in names])
    steps = 1e-20 * np.maximum(np.abs(p), 1.0)
    jac = np.array([model(p + 1j * h * e, x).imag / h * w
                    for h, e in zip(steps, np.eye(len(p)))]).T
    r = (y - model(p, x)) * w
    s2 = 1.0 if case == "rb" else (r @ r) / (len(y) - len(p))
    with mpmath.workdps(40):
        cov = mpmath.inverse(mpmath.matrix(jac.T.tolist()) * mpmath.matrix(jac.tolist()))
        want = [float(mpmath.sqrt(cov[i, i] * s2)) for i in range(len(p))]
    got = [res.sigmas[n] for n in names]
    assert got == pytest.approx(want, rel=1e-6)


# Each fit's result on a flat series at level L (None stands for L)
_FLAT_WANT = {
    "rabi": (ex.fit_rabi, {"a0": None, "a1": 0.0, "a2": 0.0, "omega": 0.0, "t_r": 100.0}),
    "t1": (ex.fit_t1, {"a0": None, "a1": 0.0, "t1": 100.0}),
    "ramsey": (ex.fit_ramsey,
               {"a0": None, "a1": 0.0, "a2": 0.0, "omega_qd": 0.0, "t2": 100.0}),
    "ramsey_gaussian": (lambda x, y: ex.fit_ramsey_gaussian(x, y, t1=80.0),
                        {"a0": None, "a1": 0.0, "t_g": 50.0}),
}


@pytest.mark.parametrize("level", [0.5, 0.0])
@pytest.mark.parametrize("case", list(_FLAT_WANT))
def test_flat_series_fit_unchanged(case, level):
    """A constant series (and an all-zero one) is not fitted: A0 is the
    level, with no amplitude, the span (or, for T_G, half of it) as the time
    constant, zero sigmas and residual, converged."""
    fit, want = _FLAT_WANT[case]
    res = fit(_T, np.full_like(_T, level))
    assert res.params == {k: level if v is None else v for k, v in want.items()}
    assert res.sigmas == dict.fromkeys(want, 0.0)
    assert res.residual_norm == 0.0 and res.converged


def test_rb_three_lengths_stop_unconverged():
    """Three lengths for the three parameters of A p^m + B: the polish stops
    after its 200 steps, reported as not converged, in milliseconds."""
    cfg = ex.RBConfig(lengths=(1, 2, 4), sequences_per_length=3, shots=10,
                      error={"depolarizing": 0.01}, seed=0)
    ex._clifford_ptms(), ex._clifford_table()         # cached; not timed
    start = time.perf_counter()
    res = ex.rb_standard(cfg)
    assert time.perf_counter() - start < 0.1
    assert not res.fit.converged and not res.stats["fit_converged"]
    assert res.stats["fit_nfev"] == 201


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
        assert global_phase_distance(cl[table[a, b]].op, want) < 1e-10
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


def test_rb_flat_curve_reports_p_one():
    # noiseless gates give survival 1 - eps01 at every length, which does not
    # identify p; at this level the fit lands on p > 1 and used to abort
    cfg = ex.RBConfig(lengths=(1, 4, 16), sequences_per_length=4, shots=0,
                      error={}, eps01=0.05, eps10=0.2, seed=0)
    res = ex.rb_standard(cfg)
    assert np.ptp(res.survival) <= 1e-12
    assert res.p == 1.0 and res.r == 0.0
    assert res.fit.params["p"] == 1.0 and not res.fit.converged
    # no flat curve is fitted, so round-off cannot pick an outcome: at this
    # level the standard and gate-7 interleaved curves used to fit differently
    cfg = ex.RBConfig(lengths=(1, 4, 16), sequences_per_length=4, shots=0,
                      error={}, eps01=0.2, eps10=0.05, interleaved=7, seed=0)
    res = ex.rb_interleaved(cfg)
    for curve in (res.standard, res.interleaved):
        assert curve.p == 1.0 and curve.stats["flat_curve"]
        assert not curve.fit.converged
    assert res.p_c == 1.0


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


@pytest.mark.parametrize("t1, t2", [(100.0, 150.0), (100.0, 200.0), (50.0, 20.0),
                                    (np.inf, 80.0), (np.inf, np.inf),
                                    (100.0, np.inf)])
def test_t1t2_ptm_is_the_lindblad_channel(t1, t2):
    """The closed form equals the Pauli transfer matrix of the Lindblad
    channel exp(L t) with the qubit's own collapse operators."""
    gate_time = 10.0
    chan = expm(dyn.liouvillian(np.zeros((2, 2)), dyn.qubit_collapse_ops(t1, t2))
                * gate_time)
    paulis = [PAULIS[l].entries for l in "IXYZ"]
    want = np.array([[0.5 * np.trace(pi @ (chan @ pj.reshape(-1)).reshape(2, 2)).real
                      for pj in paulis] for pi in paulis])
    assert np.max(np.abs(ex.t1t2_ptm(t1, t2, gate_time) - want)) < 1e-15


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


def _rb_survival_loop(cfg, interleave):
    """_rb_survival as two PTM mat-vecs per gate and a table walk (oracle),
    with its draws: each length's picks in one call on one stream, then its
    shots in one call on another."""
    cliff = ex.clifford_1q()
    ptms = [ex._ptm(np.asarray(c.op.entries)) for c in cliff]
    table, inverse = ex._clifford_table()
    e_ptm = ex._error_ptm(cfg.error)
    i_ptm = ptms[cfg.interleaved] if interleave else None
    ie_ptm = ex._error_ptm(cfg.interleaved_error or {}) if interleave else None
    v0 = np.array([1.0, 0.0, 0.0, 1.0 - 2.0 * cfg.prep_error])
    children = np.random.SeedSequence(entropy=cfg.seed).spawn(len(cfg.lengths))
    means = np.empty(len(cfg.lengths))
    sems = np.empty(len(cfg.lengths))
    for li, m in enumerate(cfg.lengths):
        pick_seq, shot_seq = children[li].spawn(2)
        all_picks = np.random.default_rng(pick_seq).integers(
            0, 24, (cfg.sequences_per_length, m), dtype=np.uint8)
        qs = np.empty(cfg.sequences_per_length)
        for s, picks in enumerate(all_picks):
            v = v0.copy()
            acc = 0
            for g in picks:
                v = e_ptm @ (ptms[g] @ v)
                acc = table[acc, g]
                if interleave:
                    v = ie_ptm @ (i_ptm @ v)
                    acc = table[acc, cfg.interleaved]
            v = e_ptm @ (ptms[inverse[acc]] @ v)
            p1 = 0.5 * (1.0 - v[3])
            q = (1 - cfg.eps01) * (1 - p1) + cfg.eps10 * p1
            qs[s] = np.clip(q, 0.0, 1.0)
        if cfg.shots:
            vals = np.random.default_rng(shot_seq).binomial(cfg.shots, qs) / cfg.shots
        else:
            vals = qs
        means[li] = vals.mean()
        sems[li] = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return means, sems


_RB_ORACLE_LENGTHS = (1, 3, 7, 100, 256)
_RB_ERRORS = [{"depolarizing": 0.01}, {"t1": 3000.0, "t2": 2500.0, "gate_time": 20.0}]
# (interleaved, interleaved_error)
_RB_MODES = [(None, None), (5, None), (17, {"depolarizing": 0.02}),
             (9, {"t1": 2000.0, "t2": 1500.0, "gate_time": 30.0})]
# (eps01, eps10, prep_error)
_RB_SPAM = [(0.0, 0.0, 0.0), (0.03, 0.08, 0.02)]


def _oracle_grid(shots):
    for seed, (error, (inter, ierr), (e01, e10, prep)) in enumerate(
            itertools.product(_RB_ERRORS, _RB_MODES, _RB_SPAM)):
        yield ex.RBConfig(lengths=_RB_ORACLE_LENGTHS, sequences_per_length=6,
                          shots=shots, error=error, interleaved=inter,
                          interleaved_error=ierr, eps01=e01, eps10=e10,
                          prep_error=prep, seed=seed)


@pytest.mark.parametrize("shots", [100, 400])
def test_rb_survival_equals_per_gate_loop(shots):
    """With shot noise the tree product draws and reports what the per-gate
    loop does, bit for bit."""
    for cfg in _oracle_grid(shots):
        interleave = cfg.interleaved is not None
        means, sems = ex._rb_survival(cfg, interleave)
        want_means, want_sems = _rb_survival_loop(cfg, interleave)
        assert np.array_equal(means, want_means), cfg
        assert np.array_equal(sems, want_sems), cfg


def _depolarizing_survival(cfg, interleave):
    """Closed form: m + 1 depolarizing errors (and m of the interleaved
    gate's own) shrink the Bloch vector, then readout."""
    m = np.asarray(cfg.lengths, float)
    shrink = (1 - 2 * cfg.error["depolarizing"]) ** (m + 1)
    if interleave and cfg.interleaved_error:
        shrink = shrink * (1 - 2 * cfg.interleaved_error["depolarizing"]) ** m
    p0 = 0.5 + 0.5 * shrink * (1 - 2 * cfg.prep_error)
    return (1 - cfg.eps01) * p0 + cfg.eps10 * (1 - p0)


def test_rb_noiseless_shots_agree_with_loop_and_closed_form():
    """Without shot noise only round-off may differ from the loop, and a
    depolarizing run keeps to its closed form."""
    for cfg in _oracle_grid(0):
        interleave = cfg.interleaved is not None
        means, sems = ex._rb_survival(cfg, interleave)
        want_means, want_sems = _rb_survival_loop(cfg, interleave)
        assert np.max(np.abs(means - want_means)) <= 1e-14, cfg
        assert np.max(np.abs(sems - want_sems)) <= 1e-14, cfg
        if "depolarizing" in cfg.error and (
                not interleave or not cfg.interleaved_error
                or "depolarizing" in cfg.interleaved_error):
            exact = _depolarizing_survival(cfg, interleave)
            assert np.max(np.abs(means - exact)) <= 1e-13, cfg


@pytest.mark.parametrize("m, n_seq", [
    (ex.RB_CHUNK_MAPS // 4 + 1, 3),       # two rows of half a cap: rows span chunks
    (ex.RB_CHUNK_MAPS - 1, 2), (ex.RB_CHUNK_MAPS, 2),
    (ex.RB_CHUNK_MAPS + 1, 2), (2 * ex.RB_CHUNK_MAPS + 3, 1),   # segments
])
def test_rb_survival_at_the_stack_cap_equals_per_gate_loop(m, n_seq):
    """Sequences around and past ``RB_CHUNK_MAPS`` (chunks of rows, and one
    sequence reduced in segments, the later on the left) keep to the
    per-gate loop under a non-unital error that does not commute with the
    Cliffords."""
    for interleaved, ierr in [(None, None), (9, {"t1": 2000.0, "t2": 1500.0,
                                                 "gate_time": 30.0})]:
        cfg = ex.RBConfig(lengths=(m, 3), sequences_per_length=n_seq, shots=0,
                          error={"t1": 3000.0, "t2": 2500.0, "gate_time": 20.0},
                          interleaved=interleaved, interleaved_error=ierr,
                          prep_error=0.02, seed=m)
        interleave = interleaved is not None
        means, sems = ex._rb_survival(cfg, interleave)
        want_means, want_sems = _rb_survival_loop(cfg, interleave)
        assert np.max(np.abs(means - want_means)) <= 1e-13, cfg
        assert np.max(np.abs(sems - want_sems)) <= 1e-13, cfg


def test_rb_survival_memory_is_flat_in_length():
    """A stack holds at most ``RB_CHUNK_MAPS`` maps: one length of 2**15
    Cliffords over 3 sequences peaks under 1 MB of traced allocations once
    the Clifford caches are warm (about 0.5 MB; one stack of all its maps
    would take 12.6 MB)."""
    cfg = ex.RBConfig(lengths=(1 << 15,), sequences_per_length=3, shots=100,
                      error={"depolarizing": 1e-5}, seed=5)
    ex._rb_survival(cfg, interleave=False)
    tracemalloc.start()
    try:
        ex._rb_survival(cfg, interleave=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_rb_interval_coverage():
    """The 95% interval r +- 1.96 r_sigma holds the injected r on a count of
    300 seeds that is a plausible Binomial(300, 0.95) draw: neither tail of
    the count falls below 1e-6 (5 lengths x 20 sequences x 100 shots)."""
    rate, seeds = 0.01, 300
    covered = 0
    for seed in range(seeds):
        res = ex.rb_standard(ex.RBConfig(lengths=(1, 4, 16, 64, 128),
                                         sequences_per_length=20, shots=100,
                                         error={"depolarizing": rate}, seed=seed))
        covered += abs(res.r - rate) <= 1.96 * res.r_sigma
    at_most = betainc(seeds - covered, covered + 1, 0.05) if covered < seeds else 1.0
    at_least = betainc(covered, seeds - covered + 1, 0.95) if covered > 0 else 1.0
    assert min(at_most, at_least) >= 1e-6, covered


def test_clifford_ptms_are_cached_signed_permutations():
    ptms = ex._clifford_ptms()
    assert ptms.shape == (24, 4, 4) and not ptms.flags.writeable
    assert ex._clifford_ptms() is ptms
    for c, r in zip(ex.clifford_1q(), ptms):
        assert np.array_equal(r, ex._ptm(np.asarray(c.op.entries)))
        signed = np.rint(r)
        assert set(np.unique(signed)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(np.abs(signed).sum(axis=0), np.ones(4))
        assert np.array_equal(np.abs(signed).sum(axis=1), np.ones(4))
        assert np.max(np.abs(r - signed)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 300), min_size=1, max_size=4),
       st.one_of(st.none(), st.integers(0, 23)), st.integers(0, 2**32 - 1),
       st.floats(0.0, 0.5))
def test_noiseless_rb_survives(lengths, interleaved, seed, eps01):
    """Noiseless gates return every sequence to |0>: survival is 1 - eps01
    to round-off at every length.  A wrong product order, a lost pick or a
    wrong composite index sends most sequences to another Pauli axis."""
    cfg = ex.RBConfig(lengths=tuple(lengths), sequences_per_length=2, shots=0,
                      error={}, interleaved=interleaved, eps01=eps01, eps10=0.1,
                      seed=seed)
    means, sems = ex._rb_survival(cfg, interleave=interleaved is not None)
    assert np.max(np.abs(means - (1 - eps01))) <= 1e-12
    assert np.max(sems) <= 1e-12


@pytest.mark.parametrize("kwargs, name", [
    (dict(interleaved=24), "interleaved"), (dict(interleaved=-1), "interleaved"),
    (dict(interleaved=3.0), "interleaved"), (dict(eps01=1.5), "eps01"),
    (dict(eps01=np.nan), "eps01"), (dict(eps10=-0.1), "eps10"),
    (dict(prep_error=2.0), "prep_error"), (dict(shots=-1), "shots"),
    (dict(sequences_per_length=0), "sequences_per_length"),
])
def test_rb_config_rejects_out_of_range(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        ex.RBConfig(lengths=(1, 2), **kwargs)


def test_rb_config_accepts_range_edges():
    for kwargs in (dict(interleaved=0), dict(interleaved=np.int64(23)),
                   dict(eps01=1.0, eps10=0.0, prep_error=1.0), dict(shots=0),
                   dict(sequences_per_length=1)):
        ex.RBConfig(lengths=(1, 2), **kwargs)


def test_rb_stats():
    cfg = ex.RBConfig(lengths=RB_LENGTHS, sequences_per_length=20, shots=200,
                      error={"depolarizing": 0.01}, interleaved=3, seed=2)
    res = ex.rb_interleaved(cfg)
    for curve in (res.standard, res.interleaved):
        assert curve.stats == {"fit_converged": True, "fit_nfev": curve.fit.nfev,
                               "flat_curve": False, "cliffords": 20 * 511}
        assert curve.fit.nfev > 0
    flat = ex.rb_standard(ex.RBConfig(lengths=(1, 4, 16), sequences_per_length=4,
                                      shots=0, error={}, eps01=0.05, eps10=0.2))
    assert flat.stats["flat_curve"] and not flat.stats["fit_converged"]
    assert flat.stats["cliffords"] == 4 * 21


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
