import re

import numpy as np
import pytest
from scipy.linalg import expm

from scqsim import control as ctl
from scqsim.qcore import global_phase_distance, pauli, rotation_operator, step_unitaries

ALPHA = 2 * np.pi * (-0.2)      # rad/ns anharmonicity used throughout


# ---------------------------------------------------------------------------
# Envelopes and spectra
# ---------------------------------------------------------------------------

def test_square_spectrum_sinc_null():
    tau = 8.0
    p = ctl.make_envelope("square", tau, amplitude=0.4, nsamples=1025)
    f, s = ctl.spectrum_of(p, npoints=1 << 16)
    # first null of |sinc| at detuning 1/tau
    k = np.argmin(np.abs(f - 1.0 / tau))
    assert s[k] < 0.02 * np.max(s)
    # peak at zero detuning
    assert abs(f[np.argmax(s)]) < f[1] - f[0] + 1e-12


def test_gaussian_narrower_than_square():
    # equal area at equal peak amplitude (the square is shorter in time)
    ga = ctl.make_envelope("gaussian", 8.0, area=np.pi, nsamples=1025)
    amp = np.max(ga.omega_x)
    sq = ctl.make_envelope("square", np.pi / amp, amplitude=amp, nsamples=1025)
    assert sq.area_x() == pytest.approx(ga.area_x(), rel=1e-6)
    f_sq, s_sq = ctl.spectrum_of(sq, 1 << 14)
    f_ga, s_ga = ctl.spectrum_of(ga, 1 << 14)

    def width_at(f, s, frac):
        above = f[s >= frac * np.max(s)]
        return above.max() - above.min()

    # narrower both at -3 dB and far down where the sinc sidelobes live
    assert width_at(f_ga, s_ga, 1 / np.sqrt(2)) < width_at(f_sq, s_sq, 1 / np.sqrt(2))
    assert width_at(f_ga, s_ga, 0.1) < width_at(f_sq, s_sq, 0.1)


def test_pi_pulse_area_calibration():
    for kind in ("square", "gaussian", "cosine"):
        p = ctl.pi_pulse(kind, 6.4)
        assert p.area_x() == pytest.approx(np.pi, rel=1e-9)


def test_gaussian_truncation_zero_endpoints():
    p = ctl.make_envelope("gaussian", 6.4, area=np.pi)
    assert p.omega_x[0] == 0.0
    assert p.omega_x[-1] == 0.0


def test_gaussian_width_is_a_quarter_duration():
    """The Gaussian envelope is the truncated Gaussian of sigma = duration / 4."""
    tau = 6.4
    p = ctl.make_envelope("gaussian", tau, area=np.pi)
    sigma = tau / 4
    shape = (np.exp(-((p.times - tau / 2) ** 2) / (2 * sigma**2))
             - np.exp(-(tau / 2) ** 2 / (2 * sigma**2)))
    assert np.max(np.abs(p.omega_x / p.omega_x.max() - shape / shape.max())) < 1e-12


def test_envelope_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ctl.make_envelope("square", 1.0)
    with pytest.raises(ValueError, match="unknown envelope"):
        ctl.make_envelope("sawtooth", 1.0, amplitude=1.0)
    with pytest.raises(ValueError, match="unknown envelope"):
        ctl.make_envelope("piecewise", 1.0)


# ---------------------------------------------------------------------------
# DRAG
# ---------------------------------------------------------------------------

def test_drag_derivative_shape():
    base = ctl.pi_pulse("gaussian", 6.4)
    d = ctl.drag_envelope(base, ALPHA)
    want = -np.gradient(base.omega_x, base.times) / ALPHA
    assert np.max(np.abs(d.omega_y - want)) < 1e-12
    # antisymmetric about the center, vanishing at the peak
    mid = len(d.omega_y) // 2
    assert abs(d.omega_y[mid]) < 1e-10


def test_drag_constant_envelope_gives_zero_y():
    base = ctl.make_envelope("square", 4.0, amplitude=0.3)
    d = ctl.drag_envelope(base, ALPHA)
    assert np.max(np.abs(d.omega_y[1:-1])) < 1e-12


def test_drag_vanishes_at_large_anharmonicity():
    base = ctl.pi_pulse("gaussian", 6.4)
    d = ctl.drag_envelope(base, 1e6 * ALPHA)
    assert np.max(np.abs(d.omega_y)) < 1e-6 * np.max(np.abs(base.omega_x))


def test_drag_requires_nonzero_alpha_and_empty_y():
    base = ctl.pi_pulse("gaussian", 6.4)
    with pytest.raises(ValueError, match="alpha"):
        ctl.drag_envelope(base, 0.0)
    with pytest.raises(ValueError, match="Y quadrature"):
        ctl.drag_envelope(ctl.drag_envelope(base, ALPHA), ALPHA)


def test_drag_spectral_notch():
    base = ctl.pi_pulse("gaussian", 6.4, nsamples=641)
    d = ctl.drag_envelope(base, ALPHA)
    f, s_plain = ctl.spectrum_of(base, 1 << 14)
    _, s_drag = ctl.spectrum_of(d, 1 << 14)
    k = np.argmin(np.abs(f - (-0.2)))     # detuning = alpha/2pi = -0.2 GHz
    db = 20 * np.log10(s_drag[k] / s_plain[k])
    assert db <= -20.0


def test_drag_leakage_suppression():
    base = ctl.pi_pulse("gaussian", 6.4, nsamples=641)
    _, leak_plain = ctl.leakage_simulate(base, ALPHA, np.sqrt(2))
    _, leak_drag = ctl.leakage_simulate(
        ctl.drag_envelope(base, ALPHA), ALPHA, np.sqrt(2))
    assert leak_plain > 1e-3
    assert leak_drag <= leak_plain / 10


def test_leakage_lambda_zero_is_two_level():
    base = ctl.pi_pulse("gaussian", 6.4, nsamples=641)
    u, leak = ctl.leakage_simulate(base, ALPHA, lam=0.0)
    assert leak == 0.0
    x_block = np.array([[0, 1], [1, 0]], dtype=complex)
    assert global_phase_distance(u.entries[:2, :2], x_block) < 1e-6


def test_longer_pulse_needs_smaller_y_quadrature():
    d_short = ctl.drag_envelope(ctl.pi_pulse("gaussian", 6.4), ALPHA)
    d_long = ctl.drag_envelope(ctl.pi_pulse("gaussian", 19.2), ALPHA)
    ratio = np.max(np.abs(d_short.omega_y)) / np.max(np.abs(d_long.omega_y))
    assert 7.0 < ratio < 11.0      # ~ (19.2/6.4)^2 = 9 for self-similar shapes


@pytest.mark.parametrize("drag", [False, True], ids=["plain", "drag"])
def test_leakage_default_matches_refine_32(drag):
    """One fourth-order step per sample interval (checked at two) is within
    1e-11 of 32 steps per interval on demo 06's 641-sample pi pulse."""
    base = ctl.pi_pulse("gaussian", 6.4, nsamples=641)
    p = ctl.drag_envelope(base, ALPHA) if drag else base
    u, leak = ctl.leakage_simulate(p, ALPHA, np.sqrt(2))
    u32, leak32 = ctl.leakage_simulate(p, ALPHA, np.sqrt(2), refine=32, check=False)
    assert np.max(np.abs(u.entries - u32.entries)) < 1e-11
    assert abs(leak - leak32) < 1e-11


@pytest.mark.parametrize("nsamples, bound", [(513, 1e-11), (161, 1e-10)])
def test_plain_pi_pulse_passes_the_halving_check(nsamples, bound):
    """A plain 6.4 ns Gaussian pi pulse (leakage 0.11) passes the 1e-7
    halving check at the default 513 samples and at 161, within ``bound``
    of 64 steps per interval (second-order steps moved it by 1.5e-7 and
    1.5e-6 under halving and raised)."""
    base = ctl.pi_pulse("gaussian", 6.4, nsamples=nsamples)
    u, leak = ctl.leakage_simulate(base, ALPHA, np.sqrt(2))
    u64, leak64 = ctl.leakage_simulate(base, ALPHA, np.sqrt(2), refine=64, check=False)
    assert leak > 0.1
    assert np.max(np.abs(u.entries - u64.entries)) < bound
    assert abs(leak - leak64) < bound


def test_leakage_convergence_guard():
    # 9 samples over a pi pulse is far too coarse for the halving check
    base = ctl.pi_pulse("gaussian", 6.4, nsamples=9)
    with pytest.raises(ctl.ConvergenceError):
        ctl.leakage_simulate(base, ALPHA, np.sqrt(2), refine=1)


# ---------------------------------------------------------------------------
# GRAPE
# ---------------------------------------------------------------------------

def test_grape_two_level_x_gate():
    sx = pauli("x").entries
    prob = ctl.GrapeProblem(
        h0=np.zeros((2, 2), dtype=complex),
        controls=(0.5 * sx,),
        n_slices=4,
        dt=1.6,
        target=sx.astype(complex),
        target_infidelity=1e-9,
        max_iter=2000,
    )
    res = ctl.grape_optimize(prob, seed=3)
    assert res.converged
    assert res.infidelity < 1e-9
    # any area-pi solution works; check the area
    assert abs(abs(np.sum(res.amplitudes) * 1.6) - np.pi) < 1e-3


def test_grape_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for trial in range(3):
        prob = ctl.transmon_pi_problem(ALPHA, n_slices=4)
        u = 0.4 * rng.standard_normal((2, 4))
        grad, _, _, _ = ctl._grape_gradient(prob, u)
        num = np.zeros_like(grad)
        du = 1e-6
        for k in range(2):
            for j in range(4):
                up, dn = u.copy(), u.copy()
                up[k, j] += du
                dn[k, j] -= du
                _, fp, _, _ = ctl._grape_gradient(prob, up)
                _, fm, _, _ = ctl._grape_gradient(prob, dn)
                num[k, j] = (fp - fm) / (2 * du)
        rel = np.max(np.abs(grad - num)) / np.max(np.abs(num))
        assert rel < 1e-4


def _looped_gradient(prob, u):
    """Oracle: the gradient slice by slice and control by control."""
    n_ctrl, n = u.shape
    us, evs, vs = step_unitaries(prob.h0, prob.controls, u, np.full(n, prob.dt))
    d = prob.dim
    fwd = [np.eye(d, dtype=complex)]
    for uj in us:
        fwd.append(uj @ fwd[-1])
    bwd = [np.eye(d, dtype=complex)]
    for uj in reversed(us):
        bwd.append(bwd[-1] @ uj)
    bwd = bwd[::-1]              # bwd[j] = U_N ... U_{j+1} (bwd[n] = I)

    u_total = fwd[-1]
    fid, target, phi = ctl._grape_fidelity(prob, u_total)
    c = np.trace(target.conj().T @ u_total)

    grad = np.empty((n_ctrl, n))
    for j in range(n):
        lam, vec = evs[j], vs[j]
        e = np.exp(-1j * prob.dt * lam)
        dl = lam[:, None] - lam[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = (e[:, None] - e[None, :]) / dl
        diag = -1j * prob.dt * e
        gamma[dl == 0] = np.broadcast_to(diag[:, None], gamma.shape)[dl == 0]
        left = target.conj().T @ bwd[j + 1]
        right = fwd[j]
        for k in range(n_ctrl):
            hk_tilde = vec.conj().T @ prob.controls[k] @ vec
            du = vec @ (gamma * hk_tilde) @ vec.conj().T
            dc = np.trace(left @ du @ right)
            grad[k, j] = 2.0 * np.real(np.conj(c) * dc) / d**2
    return grad, fid, u_total, phi


def _gradient_cases():
    rng = np.random.default_rng(37)
    for n in (1, 4, 12, 30):
        prob = ctl.transmon_pi_problem(ALPHA, n_slices=n)
        for trial in range(3):
            yield f"transmon-{n}-{trial}", prob, 0.3 * rng.standard_normal((2, n))
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=12, dt=1.6)
    u = 0.3 * rng.standard_normal((2, 12))
    u[:, [0, 5, 6, 11]] = 0.0          # H_j = H0: exactly degenerate levels 0, 1
    yield "zero-slices", prob, u
    yield "all-zero", prob, np.zeros((2, 12))
    bound = 2 * np.pi * 0.04
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=12, dt=1.6, bounds=(-bound, bound))
    yield "bounded-12", prob, np.clip(rng.standard_normal((2, 12)), -bound, bound)
    sx = pauli("x").entries
    prob = ctl.GrapeProblem(h0=np.zeros((2, 2)), controls=(0.5 * sx,), n_slices=4,
                            dt=1.6, target=sx)             # no free phase
    for trial in range(3):
        yield f"two-level-{trial}", prob, rng.standard_normal((1, 4))


@pytest.mark.parametrize("prob, u", [case[1:] for case in _gradient_cases()],
                         ids=[case[0] for case in _gradient_cases()])
def test_grape_gradient_equals_per_slice_loop(prob, u):
    """The batched gradient keeps the loop's order of operations, so every
    output is bit-equal to it."""
    grad, fid, u_total, phi = ctl._grape_gradient(prob, u)
    ref_grad, ref_fid, ref_u, ref_phi = _looped_gradient(prob, u)
    assert np.array_equal(grad, ref_grad)
    assert fid == ref_fid and phi == ref_phi
    assert np.array_equal(u_total, ref_u)


def test_grape_monotone_fidelity():
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=4, target_infidelity=1e-6,
                                   max_iter=300)
    res = ctl.grape_optimize(prob, seed=5)
    infids = res.trace
    assert all(b <= a + 1e-15 for a, b in zip(infids, infids[1:]))


def test_grape_three_level_pi_rotation():
    # 4 slices of 1.6 ns (T = 6.4 ns); push past 1e-5 so the 64-point
    # phi_2 scan still reports >= 0.9999
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=4, dt=1.6,
                                   target_infidelity=1e-5)
    assert prob.total_time == pytest.approx(6.4)
    u0 = np.zeros((2, 4))
    u0[0] = ctl.pi_pulse("gaussian", prob.total_time, nsamples=5).omega_x[:-1]
    res = ctl.grape_multistart(prob, restarts=8, seed=0, u0=u0)
    assert res.fidelity >= 0.99995
    assert ctl.phi2_scan_fidelity(prob, res.amplitudes) >= 0.9999


def test_grape_bounded_amplitudes():
    bound = 2 * np.pi * 0.04
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=12, dt=1.6,
                                   bounds=(-bound, bound),
                                   target_infidelity=1e-5)
    assert prob.total_time == pytest.approx(19.2)
    u0 = np.zeros((2, 12))
    u0[0] = np.clip(
        ctl.pi_pulse("gaussian", prob.total_time, nsamples=13).omega_x[:-1],
        -bound, bound)
    res = ctl.grape_multistart(prob, restarts=8, seed=0, u0=u0)
    assert ctl.phi2_scan_fidelity(prob, res.amplitudes) >= 0.9999
    assert np.max(np.abs(res.amplitudes)) <= bound + 1e-12


def test_grape_deterministic_given_seed():
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=4, target_infidelity=1e-5,
                                   max_iter=200)
    r1 = ctl.grape_multistart(prob, restarts=3, seed=11)
    r2 = ctl.grape_multistart(prob, restarts=3, seed=11)
    assert np.array_equal(r1.amplitudes, r2.amplitudes)
    assert r1.infidelity == r2.infidelity


def test_grape_stagnation_reported_not_raised():
    # zero-control problem can never reach the target: must report, not raise
    prob = ctl.GrapeProblem(
        h0=np.diag([0.0, 1.0]).astype(complex),
        controls=(np.zeros((2, 2), dtype=complex),),
        n_slices=2,
        dt=1.0,
        target=pauli("x").entries.astype(complex),
        target_infidelity=1e-6,
        max_iter=200,
    )
    res = ctl.grape_optimize(prob, seed=0)
    assert not res.converged
    assert res.stagnated


@pytest.mark.parametrize("case", ["target", "max_iter", "stall"])
def test_grape_stop_reasons(case):
    """Each way a run ends is reported: stagnation only for the stall, and
    a gradient is computed at the start and at each accepted step only."""
    if case == "target":
        prob = ctl.transmon_pi_problem(ALPHA, n_slices=4)
    elif case == "max_iter":
        prob = ctl.transmon_pi_problem(ALPHA, n_slices=4, target_infidelity=1e-12,
                                       max_iter=2)
    else:
        prob = ctl.GrapeProblem(h0=np.diag([0.0, 1.0]).astype(complex),
                                controls=(np.zeros((2, 2), dtype=complex),),
                                n_slices=2, dt=1.0, target=pauli("x").entries,
                                max_iter=200)
    res = ctl.grape_optimize(prob, seed=0)
    assert res.stats["stop"] == case
    assert res.converged == (case == "target")
    assert res.stagnated == (case == "stall")
    assert res.stats["gradient_evals"] == len(res.trace)
    if case == "max_iter":
        assert len(res.trace) == 3
    if case == "stall":
        assert res.stats["backtracks"] > 0


def _loop_optimize(prob, u0=None, seed=None):
    """Oracle: the optimizer loop that computes the gradient of every trial
    step, rejected ones included, and decides on its fidelity."""
    n_ctrl = len(prob.controls)
    if u0 is None:
        rng = np.random.default_rng(seed)
        u = 0.1 * rng.standard_normal((n_ctrl, prob.n_slices))
    else:
        u = np.array(u0, dtype=float).reshape(n_ctrl, prob.n_slices)
    if prob.bounds is not None:
        u = np.clip(u, *prob.bounds)
    grad, fid, u_total, phi = ctl._grape_gradient(prob, u)
    trace = [1.0 - fid]
    eps = ctl.GRAPE_STEP
    stall = 0
    for _ in range(prob.max_iter):
        if 1.0 - fid <= prob.target_infidelity:
            break
        improved = False
        for _ in range(60):
            u_new = u + eps * grad
            if prob.bounds is not None:
                u_new = np.clip(u_new, *prob.bounds)
            grad_new, fid_new, u_total, phi = ctl._grape_gradient(prob, u_new)
            if fid_new > fid:
                improved = True
                break
            eps *= 0.5
            if eps < 1e-14:
                break
        if not improved:
            stall += 1
            if stall >= 50:
                break
            continue
        if fid_new - fid < 1e-14:
            stall += 1
        else:
            stall = 0
        u, fid, grad = u_new, fid_new, grad_new
        trace.append(1.0 - fid)
        eps = min(eps * 1.5, ctl.GRAPE_STEP)
        if stall >= 50:
            break
    converged = (1.0 - fid) <= prob.target_infidelity
    return ctl.GrapeResult(amplitudes=u, infidelity=1.0 - fid, trace=np.asarray(trace),
                           converged=converged, stagnated=False, phi2=phi)


def _bounded_problem():
    """Demo 06's bounded 12-slice problem and its Gaussian start."""
    bound = 2 * np.pi * 0.04
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=12, dt=1.6, bounds=(-bound, bound),
                                   target_infidelity=1e-5)
    u0 = np.zeros((2, 12))
    u0[0] = np.clip(ctl.pi_pulse("gaussian", prob.total_time, nsamples=13).omega_x[:-1],
                    -bound, bound)
    return prob, u0


def _cli_default_problem():
    """CLI ``grape``'s default problem and its Gaussian start."""
    prob = ctl.transmon_pi_problem(ALPHA, np.sqrt(2), 4, target_infidelity=1e-4,
                                   max_iter=3000)
    u0 = np.zeros((2, 4))
    u0[0] = ctl.pi_pulse("gaussian", prob.total_time, nsamples=5).omega_x[:-1]
    return prob, u0


@pytest.mark.parametrize("case", ["bounded", "cli-default"])
def test_grape_trials_decided_on_fidelity_equal_loop(case, monkeypatch):
    """Deciding each trial on its fidelity and building the gradient only
    for accepted steps changes no bit of any result: amplitudes, trace,
    infidelity and phi2 equal the loop that computes every trial's
    gradient, for the multistart run from the Gaussian start (as the
    benchmark and the CLI call it) and a run from each seed's random start,
    seeds 0-19; only the gradient count falls, to ``len(trace)``."""
    prob, u0 = _bounded_problem() if case == "bounded" else _cli_default_problem()
    backtracks = 0
    for seed in range(20):
        got = [ctl.grape_multistart(prob, restarts=8, seed=seed, u0=u0),
               ctl.grape_optimize(prob, seed=seed)]
        with monkeypatch.context() as patch:
            patch.setattr(ctl, "grape_optimize", _loop_optimize)
            want = [ctl.grape_multistart(prob, restarts=8, seed=seed, u0=u0),
                    _loop_optimize(prob, seed=seed)]
        for a, b in zip(got, want):
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert np.array_equal(a.trace, b.trace)
            assert a.infidelity == b.infidelity
            assert a.phi2 == b.phi2
            assert a.stats["gradient_evals"] == len(a.trace)
            backtracks += a.stats["backtracks"]
    assert backtracks > 0                  # rejected trials were taken


@pytest.mark.parametrize("field, change", [
    ("h0", {"h0": np.zeros((3, 2))}),
    ("h0", {"h0": np.zeros(3)}),
    ("controls[1]", {"controls": (np.zeros((3, 3)), np.zeros((2, 2)))}),
    ("target", {"target": np.eye(2)}),
    ("free_phase_level", {"free_phase_level": 3}),
    ("free_phase_level", {"free_phase_level": -1}),
])
def test_grape_problem_rejects_bad_shapes(field, change):
    """A shape or level that does not fit h0 fails at construction, naming
    the field, not later inside the optimizer."""
    args = dict(h0=np.diag([0.0, 0.0, ALPHA]), controls=(np.zeros((3, 3)),) * 2,
                n_slices=4, dt=1.0, target=np.eye(3), free_phase_level=2)
    args.update(change)
    with pytest.raises(ValueError, match=re.escape(field)):
        ctl.GrapeProblem(**args)


def test_grape_makes_no_block_search(monkeypatch):
    """GRAPE's slices are one full-matrix stack per gradient: no
    conserved-block search runs inside the optimizer."""
    def no_search(*args):
        raise AssertionError("conserved_blocks called during GRAPE")

    monkeypatch.setattr("scqsim.qcore.conserved_blocks", no_search)
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=4, max_iter=20)
    res = ctl.grape_optimize(prob, seed=0)
    assert len(res.trace) > 1 and res.trace[-1] < res.trace[0]


def _phi2_grid_fidelity(prob, amplitudes, npoints=64):
    """Oracle: the best fidelity over ``npoints`` equally spaced phi_2."""
    u_total = np.eye(prob.dim, dtype=complex)
    for uj in step_unitaries(prob.h0, prob.controls, amplitudes,
                             np.full(prob.n_slices, prob.dt))[0]:
        u_total = uj @ u_total
    l = prob.free_phase_level
    best = 0.0
    for phi in np.linspace(0.0, 2 * np.pi, npoints, endpoint=False):
        t = prob.target.copy()
        t[l, l] = np.exp(1j * phi)
        best = max(best, abs(np.trace(t.conj().T @ u_total)) ** 2 / prob.dim**2)
    return float(best)


def test_grape_phi2_scan_matches_internal_optimum():
    """The refined phi_2 scan equals the closed-form optimum used inside
    the optimizer; the bare grid sits within grid resolution below it."""
    prob = ctl.transmon_pi_problem(ALPHA, n_slices=4, target_infidelity=1e-5)
    res = ctl.grape_multistart(prob, restarts=2, seed=0)
    refined = ctl.phi2_scan_fidelity(prob, res.amplitudes)
    bare = _phi2_grid_fidelity(prob, res.amplitudes)
    assert refined == pytest.approx(res.fidelity, abs=1e-12)
    assert bare <= refined
    assert refined - bare < (np.pi / 64) ** 2


# ---------------------------------------------------------------------------
# Pulse distortion
# ---------------------------------------------------------------------------

def test_predistort_round_trip():
    p = ctl.pi_pulse("gaussian", 10.0, nsamples=513)
    tau_rc = 10 * p.dt
    rt = ctl.apply_distortion(ctl.predistort(p, tau_rc), tau_rc)
    assert np.max(np.abs(rt.omega_x - p.omega_x)) < 1e-3 * np.max(np.abs(p.omega_x))


def test_distorted_step_exponential_rise():
    step = ctl.make_envelope("square", 10.0, amplitude=1.0, nsamples=1001)
    d = ctl.apply_distortion(step, 1.0)
    for t_probe in (1.0, 2.0, 3.0):
        k = np.argmin(np.abs(d.times - t_probe))
        assert d.omega_x[k] == pytest.approx(1 - np.exp(-t_probe), abs=0.01)


def test_predistorted_step_overshoots_then_settles():
    step = ctl.make_envelope("square", 10.0, amplitude=1.0, nsamples=501)
    pre = ctl.predistort(step, 1.0)
    assert pre.omega_x[0] > 5.0          # initial overshoot
    assert pre.omega_x[-1] == pytest.approx(1.0, abs=1e-9)


def test_distortion_sampling_guard():
    p = ctl.pi_pulse("gaussian", 10.0, nsamples=11)
    with pytest.raises(ValueError, match="coarse"):
        ctl.apply_distortion(p, 0.5)


# ---------------------------------------------------------------------------
# Refocusing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("env_axis", ["i", "x", "y", "z"])
def test_hahn_cancels_sz_couplings(env_axis):
    env_op = np.eye(2, dtype=complex) if env_axis == "i" else pauli(env_axis).entries
    h = ctl.qubit_env_coupling(0.13, "z", env_op)
    u = ctl.sequence_propagator(ctl.refocus_sequence("hahn", 20.0), h)
    assert global_phase_distance(u.entries, np.eye(4)) < 1e-10


def test_hahn_does_not_cancel_sx_coupling():
    h = ctl.qubit_env_coupling(0.13, "x", pauli("z").entries)
    u = ctl.sequence_propagator(ctl.refocus_sequence("hahn", 20.0), h)
    assert global_phase_distance(u.entries, np.eye(4)) > 0.1


@pytest.mark.parametrize("qubit_axis", ["x", "y", "z"])
def test_xy4_cancels_all_axes(qubit_axis):
    h = ctl.qubit_env_coupling(0.13, qubit_axis, pauli("z").entries)
    u = ctl.sequence_propagator(ctl.refocus_sequence("xy4", 20.0), h)
    assert global_phase_distance(u.entries, np.eye(4)) < 1e-10


def test_zero_coupling_trivial():
    h = ctl.qubit_env_coupling(0.0, "z", pauli("z").entries)
    u = ctl.sequence_propagator(ctl.refocus_sequence("hahn", 8.0), h)
    assert global_phase_distance(u.entries, np.eye(4)) < 1e-12


@pytest.mark.parametrize("kind, n", [("hahn", 1), ("cpmg", 3)])
def test_sequence_propagator_matches_expm_oracle(kind, n):
    """A non-diagonal H_qe (one conserved block) and a pulse at t = 0 (a
    zero gap): each free gap by scipy expm, each pulse its explicit matrix."""
    h_qe = ctl.qubit_env_coupling(0.13, "x", pauli("z").entries).entries
    seq = ctl.refocus_sequence(kind, 7.3, n=n, include_prep=True)
    assert seq.pulses[0][0] == 0.0
    want, t = np.eye(4, dtype=complex), 0.0
    for t_pulse, axis, angle in seq.pulses:
        want = expm(-1j * (t_pulse - t) * h_qe) @ want
        want = np.kron(rotation_operator(axis, angle).entries, np.eye(2)) @ want
        t = t_pulse
    want = expm(-1j * (seq.tau - t) * h_qe) @ want
    got = ctl.sequence_propagator(seq, h_qe).entries
    assert np.max(np.abs(got - want)) < 1e-12


def test_sequence_time_validation():
    with pytest.raises(ValueError, match="increasing"):
        ctl.RefocusSequence(((2.0, "x", np.pi), (1.0, "x", np.pi)), 4.0)
    with pytest.raises(ValueError, match="within"):
        ctl.RefocusSequence(((5.0, "x", np.pi),), 4.0)


def test_hahn_with_prep_composes_trailing_pulses():
    seq = ctl.refocus_sequence("hahn", 10.0, include_prep=True)
    times = [t for t, _, _ in seq.pulses]
    assert times == sorted(times)
    assert len(times) == len(set(times))
    angles = [a for _, _, a in seq.pulses]
    assert angles[0] == pytest.approx(np.pi / 2)
    assert angles[-1] == pytest.approx(np.pi / 2)   # pi - pi/2 merged


# ---------------------------------------------------------------------------
# Filter functions
# ---------------------------------------------------------------------------

def test_filter_free_evolution_peaks_at_dc():
    omega = np.linspace(0.0, 2 * np.pi, 2001)
    f = ctl.filter_function(ctl.RefocusSequence((), 20.0, "free"), omega)
    assert np.argmax(f) == 0


def test_filter_hahn_zero_at_dc():
    omega = np.linspace(0.0, 2 * np.pi, 2001)
    f = ctl.filter_function(ctl.refocus_sequence("hahn", 20.0), omega)
    assert f[0] == pytest.approx(0.0, abs=1e-12)
    assert np.max(f) > 0


def test_filter_cpmg_passband_monotone():
    omega = np.linspace(0.0, 4 * np.pi, 4001)
    peaks = []
    for n in (1, 2, 4, 8):
        f = ctl.filter_function(ctl.refocus_sequence("cpmg", 20.0, n=n), omega)
        peaks.append(omega[np.argmax(f)])
    assert all(b > a for a, b in zip(peaks, peaks[1:]))


def test_filter_normalization_constant():
    omega = np.linspace(0.0, 4 * np.pi, 4001)
    for kind, n in (("hahn", 1), ("cpmg", 4), ("xy4", 1)):
        f = ctl.filter_function(ctl.refocus_sequence(kind, 20.0, n=n), omega)
        assert np.trapezoid(f, omega) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Multi-qubit ZZ engineering
# ---------------------------------------------------------------------------

def test_zz_pattern_keeps_only_first_pair():
    rng = np.random.default_rng(2)
    jm = np.zeros((4, 4))
    for i in range(4):
        for k in range(i + 1, 4):
            jm[i, k] = rng.uniform(0.01, 0.06)
    tau = 9.0
    u = ctl.zz_engineering_propagator(jm, tau)

    def z_diag(qubit):
        d = np.ones(1)
        for i in range(4):
            d = np.kron(d, np.array([1.0, -1.0]) if i == qubit else np.ones(2))
        return d

    want = np.diag(np.exp(-1j * jm[0, 1] * z_diag(0) * z_diag(1) * tau))
    assert global_phase_distance(u.entries, want) < 1e-10


def test_zz_surviving_fraction_table():
    s = ctl.surviving_zz(ctl.ZZ_KEEP_PAIR_PATTERN)
    assert s[0, 1] == pytest.approx(1.0)
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        assert s[i, j] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Pulse CSV interchange
# ---------------------------------------------------------------------------

def test_pulse_csv_round_trip(tmp_path):
    p = ctl.drag_envelope(ctl.pi_pulse("gaussian", 6.4, nsamples=65), ALPHA)
    path = tmp_path / "pulse.csv"
    ctl.pulse_to_csv(p, path)
    header = path.read_text().splitlines()[0]
    assert header == "t_ns,omega_x_GHz,omega_y_GHz"
    back = ctl.pulse_from_csv(path)
    assert np.allclose(back.times, p.times, atol=1e-9)
    assert np.allclose(back.omega_x, p.omega_x, rtol=1e-9, atol=1e-12)
    assert np.allclose(back.omega_y, p.omega_y, rtol=1e-9, atol=1e-12)


def test_pulse_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        ctl.pulse_from_csv(path)


def test_envelope_drives_dynamics_engine():
    """A pi-area pulse handed to the dynamics engine inverts the qubit."""
    from scqsim import dynamics as dyn

    p = ctl.pi_pulse("cosine", 8.0, nsamples=257)
    fx, fy = p.drive_functions()
    sx = pauli("x").entries
    sy = pauli("y").entries
    h = dyn.TimeDependentH(np.zeros((2, 2), complex),
                           [(0.5 * sx, fx), (0.5 * sy, fy)])
    res = dyn.unitary_evolve(h, np.array([1.0, 0.0], complex),
                             times=np.array([0.0, 8.0]), dt=0.01)
    assert abs(res.states[-1].amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-6)
    assert fx(-1.0) == 0.0 and fx(9.0) == 0.0
