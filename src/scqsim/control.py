"""Pulse engineering: envelope library, DRAG, transfer-function
pre-distortion, GRAPE optimization, refocusing sequences, filter functions.

Envelope quadratures are stored in rad/ns so that the pulse area
``integral Omega_x dt`` is the rotation angle in radians (a pi pulse has
area pi).  The CSV interchange format converts to ordinary GHz
(column value = rad/ns / 2pi).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .qcore import (Operator, _as_matrix, _cf4_rows, ordered_product, pauli,
                    piecewise_propagator, rotation_operator, step_unitaries, tensor)

TWO_PI = 2.0 * np.pi
GRAPE_STEP = 0.5


class ConvergenceError(RuntimeError):
    """Sampling too coarse: halving the step changed the answer materially."""


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseEnvelope:
    """Two-quadrature control sampled on a uniform grid over [0, duration]."""

    kind: str
    times: np.ndarray
    omega_x: np.ndarray
    omega_y: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        ox = np.asarray(self.omega_x, dtype=float)
        oy = np.asarray(self.omega_y, dtype=float)
        if len(t) < 2 or len(t) != len(ox) or len(t) != len(oy):
            raise ValueError("times and quadratures must share a length >= 2")
        if t[-1] <= t[0]:
            raise ValueError("pulse duration must be > 0")
        for name, arr in (("times", t), ("omega_x", ox), ("omega_y", oy)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def area_x(self) -> float:
        return float(np.trapezoid(self.omega_x, self.times))

    def with_quadratures(self, omega_x=None, omega_y=None, kind=None) -> "PulseEnvelope":
        return PulseEnvelope(
            kind or self.kind,
            self.times,
            self.omega_x if omega_x is None else omega_x,
            self.omega_y if omega_y is None else omega_y,
        )

    def drive_functions(self):
        """(t -> Omega_x, t -> Omega_y) interpolants for the dynamics engine.

        Zero outside [0, duration], linear between samples; hand these to
        :class:`scqsim.dynamics.TimeDependentH` together with the drive
        operators.
        """
        t, ox, oy = self.times, self.omega_x, self.omega_y

        def fx(s):
            return float(np.interp(s, t, ox, left=0.0, right=0.0))

        def fy(s):
            return float(np.interp(s, t, oy, left=0.0, right=0.0))

        return fx, fy


def make_envelope(
    kind: str,
    duration: float,
    amplitude: float | None = None,
    area: float | None = None,
    nsamples: int = 513,
) -> PulseEnvelope:
    """Build a single-quadrature envelope (Omega_y = 0).

    kinds: 'square'; 'gaussian' (sigma = duration/4, truncated at +-2 sigma
    with the truncation offset subtracted so the endpoints are exactly
    zero); 'cosine' (Hann, zero endpoints).  Exactly one of
    ``amplitude`` or ``area`` sets the scale.  Piecewise-constant envelopes
    come from :func:`grape_pulse` and :func:`pulse_from_csv`.
    """
    t = np.linspace(0.0, duration, nsamples)
    if kind == "square":
        shape = np.ones_like(t)
    elif kind == "gaussian":
        s = duration / 4
        center = duration / 2
        shape = np.exp(-((t - center) ** 2) / (2 * s**2))
        shape = shape - np.exp(-(duration / 2) ** 2 / (2 * s**2))
        np.clip(shape, 0.0, None, out=shape)
    elif kind == "cosine":
        shape = 0.5 * (1 - np.cos(TWO_PI * t / duration))
    else:
        raise ValueError(f"unknown envelope kind {kind!r}")

    if (amplitude is None) == (area is None):
        raise ValueError("provide exactly one of amplitude or area")
    if area is not None:
        raw = np.trapezoid(shape, t)
        amplitude = area / raw
    shape = amplitude * shape
    return PulseEnvelope(kind, t, shape, np.zeros_like(t))


def pi_pulse(kind: str, duration: float, nsamples: int = 513) -> PulseEnvelope:
    """Envelope calibrated to area pi (a pi rotation for an ideal qubit)."""
    return make_envelope(kind, duration, area=np.pi, nsamples=nsamples)


def spectrum_of(p: PulseEnvelope, npoints: int = 4096):
    """Magnitude spectrum of the complex baseband Omega_x - i Omega_y.

    Zero-pads to ``npoints`` samples; returns (detuning in GHz, |S|) sorted
    by frequency, with |S| in continuous-transform normalization
    (DFT values scaled by dt).
    """
    s = p.omega_x - 1j * p.omega_y
    n = max(npoints, len(s))
    spec = np.fft.fft(s, n) * p.dt
    freqs = np.fft.fftfreq(n, p.dt)
    order = np.argsort(freqs)
    return freqs[order], np.abs(spec)[order]


def drag_envelope(base: PulseEnvelope, alpha: float) -> PulseEnvelope:
    """Attach the derivative quadrature Omega_y = -dOmega_x/dt / alpha.

    ``alpha`` is the anharmonicity in rad/ns and must be nonzero; the base
    pulse must have an empty Y quadrature.  The derivative is sampled with
    central differences (one-sided at the ends).
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero for DRAG")
    if np.any(base.omega_y != 0):
        raise ValueError("base envelope already has a Y quadrature")
    dy = np.gradient(base.omega_x, base.times)
    return base.with_quadratures(omega_y=-dy / alpha, kind="drag")


# ---------------------------------------------------------------------------
# Three-level leakage simulation
# ---------------------------------------------------------------------------

def three_level_drive_ops(lam: float):
    """sigma_x / sigma_y extended to the 0-1-2 ladder with 1-2 weight lam."""
    sx = np.array([[0, 1, 0], [1, 0, lam], [0, lam, 0]], dtype=complex)
    sy = np.array([[0, -1j, 0], [1j, 0, -1j * lam], [0, 1j * lam, 0]], dtype=complex)
    return sx, sy


def _three_level_unitary(p: PulseEnvelope, alpha: float, lam: float,
                         refine: int) -> np.ndarray:
    # ``refine`` CF4 steps per sample interval, the quadratures
    # interpolated linearly to each Gauss node
    def sample(c):
        frac = (np.arange(refine) + c) / refine
        return 0.5 * np.reshape([np.outer(q[:-1], 1 - frac) + np.outer(q[1:], frac)
                                 for q in (p.omega_x, p.omega_y)], (2, -1))

    amps, widths = _cf4_rows(sample, np.repeat(np.diff(p.times) / refine, refine))
    return piecewise_propagator(np.diag([0.0, 0.0, alpha]), three_level_drive_ops(lam),
                                amps, widths)


def leakage_simulate(p: PulseEnvelope, alpha: float, lam: float = np.sqrt(2),
                     refine: int = 1, check: bool = True):
    """Drive a three-level ladder with the envelope; report |2> leakage.

    The rotating-frame Hamiltonian is diag(0, 0, alpha) plus the
    lam-weighted x/y drive operators; ``alpha`` in rad/ns.  Each sample
    interval takes ``refine`` fourth-order commutator-free steps (two
    exponentials each, with the quadratures interpolated linearly to the
    Gauss nodes; see :func:`~scqsim.qcore._cf4_rows`), each exponential a
    shifted Taylor polynomial of the 3 x 3 step, and U is their
    :func:`~scqsim.qcore.piecewise_propagator` tree product.  Returns
    ``(U, leakage)`` with leakage = max over the computational basis states
    of the final |2> population.  With ``check=True`` the run is repeated
    at ``2 * refine`` steps, that result is returned, and a leakage shift
    above 1e-7 raises :class:`ConvergenceError`.
    """
    u = _three_level_unitary(p, alpha, lam, refine)
    leak = float(max(abs(u[2, 0]) ** 2, abs(u[2, 1]) ** 2))
    if check:
        u2 = _three_level_unitary(p, alpha, lam, refine * 2)
        leak2 = float(max(abs(u2[2, 0]) ** 2, abs(u2[2, 1]) ** 2))
        if abs(leak2 - leak) > 1e-7:
            raise ConvergenceError(
                f"leakage changed by {abs(leak2 - leak):.2e} under step halving; "
                "sample the envelope more finely"
            )
        u, leak = u2, leak2
    return Operator(u), leak


# ---------------------------------------------------------------------------
# GRAPE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrapeProblem:
    """Piecewise-constant control problem H(t) = H0 + sum_k u_k(j) H_k.

    All generators in rad/ns.  ``target`` is the goal unitary; when
    ``free_phase_level`` names a diagonal level (e.g. 2 for the leakage
    level of a three-level gate) the target phase on that level is free and
    the fidelity is maximized over it.  ``bounds = (lo, hi)`` clips the
    amplitudes after every update.
    """

    h0: np.ndarray
    controls: tuple
    n_slices: int
    dt: float
    target: np.ndarray
    free_phase_level: int | None = None
    bounds: tuple | None = None
    target_infidelity: float = 1e-4
    max_iter: int = 3000

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(
            self, "controls",
            tuple(np.asarray(c, dtype=complex) for c in self.controls),
        )
        object.__setattr__(self, "target", np.asarray(self.target, dtype=complex))
        if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise ValueError(f"h0 must be a square matrix, got shape {h0.shape}")
        for k, c in enumerate(self.controls):
            if c.shape != h0.shape:
                raise ValueError(f"controls[{k}] has shape {c.shape}, h0 {h0.shape}")
        if self.target.shape != h0.shape:
            raise ValueError(f"target has shape {self.target.shape}, h0 {h0.shape}")
        if self.free_phase_level is not None and not 0 <= self.free_phase_level < len(h0):
            raise ValueError(f"free_phase_level {self.free_phase_level} is not a "
                             f"level of the {len(h0)}-level system")
        if self.n_slices < 1 or self.dt <= 0:
            raise ValueError("need n_slices >= 1 and dt > 0")
        if self.bounds is not None and self.bounds[0] >= self.bounds[1]:
            raise ValueError("bounds must satisfy lo < hi")

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def total_time(self) -> float:
        return self.n_slices * self.dt


@dataclass(frozen=True)
class GrapeResult:
    """Outcome of one :func:`grape_optimize` run.

    ``trace`` holds the starting infidelity and then one entry per accepted
    iteration.  ``converged`` means the target infidelity was reached and
    ``stagnated`` that the run stopped on the 50-iteration stall instead.
    ``stats`` counts the work: ``gradient_evals`` (the gradients computed:
    the start's and one per accepted step, so ``len(trace)``; a trial step
    is decided on its fidelity alone), ``backtracks`` (step halvings after
    a rejected trial) and ``stop``, one of ``"target"``, ``"max_iter"`` or
    ``"stall"``.
    """

    amplitudes: np.ndarray          # (n_controls, n_slices)
    infidelity: float
    trace: np.ndarray               # infidelity per accepted iteration
    converged: bool
    stagnated: bool
    phi2: float | None = None
    stats: dict = field(default_factory=dict)

    @property
    def fidelity(self) -> float:
        return 1.0 - self.infidelity


def _target_and_phase(prob: GrapeProblem, u_total: np.ndarray):
    """Effective target (free phase pinned at its optimum) and that phase."""
    if prob.free_phase_level is None:
        return prob.target, None
    l = prob.free_phase_level
    t0 = prob.target.copy()
    t0[l, l] = 0.0
    c0 = np.trace(t0.conj().T @ u_total)
    ull = u_total[l, l]
    phi = float(np.angle(ull) - np.angle(c0)) if abs(c0) > 1e-15 else float(
        np.angle(ull)
    )
    t = t0.copy()
    t[l, l] = np.exp(1j * phi)
    return t, phi


def _grape_fidelity(prob: GrapeProblem, u_total: np.ndarray):
    target, phi = _target_and_phase(prob, u_total)
    d = prob.dim
    c = np.trace(target.conj().T @ u_total)
    return float(abs(c) ** 2 / d**2), target, phi


def _grape_forward(prob: GrapeProblem, u: np.ndarray):
    """``(fidelity, phi, slices)`` of the amplitudes ``u``: what a trial step
    is decided on.  ``slices`` holds the :func:`~scqsim.qcore.step_unitaries`
    stack, the forward products U_j ... U_1 (j = 0..n) and the effective
    target, from which :func:`_grape_gradient` continues."""
    us, evs, vs = step_unitaries(prob.h0, prob.controls, u,
                                 np.full(u.shape[1], prob.dt))
    fwd = [np.eye(prob.dim, dtype=complex)]
    for uj in us:
        fwd.append(uj @ fwd[-1])
    fid, target, phi = _grape_fidelity(prob, fwd[-1])
    return fid, phi, (us, evs, vs, fwd, target)


def _grape_gradient(prob: GrapeProblem, u: np.ndarray, forward=None):
    """Exact fidelity gradient via the spectral derivative of each slice,
    continuing from ``forward = _grape_forward(prob, u)`` when given.

    The textbook first-order formula -2 Re{tr(i dt H_k V_j Lam_j^dag)
    tr(V_j^dag Lam_j)} is the dt -> 0 limit of this; the exact directional
    derivative keeps the finite-difference check tight at finite dt.  The
    slices are one full-matrix :func:`~scqsim.qcore.step_unitaries` stack.

    Slice j, control k: with H_j = V diag(lam) V^dag, the derivative of U_j
    is V (Gamma o (V^dag H_k V)) V^dag, Gamma_ab = (e_a - e_b)/(lam_a - lam_b)
    for e = exp(-i dt lam) and -i dt e_a where lam_a = lam_b; it enters
    dc = tr(T^dag U_N..U_{j+1} dU_j U_j..U_1).  All (k, j) are computed at
    once as (n_ctrl, n, d, d) stacks, in the per-slice order of operations,
    so the gradient is bit-equal to a loop over slices and controls.  The
    final Re(conj(c) dc) is written out in real arithmetic, because numpy's
    complex array product rounds differently from the complex scalar one.
    """
    n_ctrl = len(u)
    fid, phi, (us, evs, vs, fwd, target) = forward or _grape_forward(prob, u)
    d = prob.dim
    bwd = [np.eye(d, dtype=complex)]
    for uj in reversed(us):
        bwd.append(bwd[-1] @ uj)
    bwd = bwd[::-1]              # bwd[j] = U_N ... U_{j+1} (bwd[n] = I)

    u_total = fwd[-1]
    c = np.trace(target.conj().T @ u_total)

    e = np.exp(-1j * prob.dt * evs)
    dl = evs[:, :, None] - evs[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = (e[:, :, None] - e[:, None, :]) / dl
    degenerate = dl == 0
    gamma[degenerate] = np.broadcast_to((-1j * prob.dt * e)[:, :, None],
                                        gamma.shape)[degenerate]
    vs_h = vs.conj().swapaxes(-1, -2)
    hk = (vs_h @ np.reshape(prob.controls, (n_ctrl, 1, d, d))) @ vs
    du = (vs @ (gamma * hk)) @ vs_h
    left = target.conj().T @ np.stack(bwd[1:])
    dc = np.trace((left @ du) @ np.stack(fwd[:-1]), axis1=-2, axis2=-1)
    grad = 2.0 * (c.real * dc.real + c.imag * dc.imag) / d**2
    return grad, fid, u_total, phi


def grape_optimize(prob: GrapeProblem, u0: np.ndarray | None = None,
                   seed: int | None = None) -> GrapeResult:
    """Gradient ascent on fidelity with backtracking halving of a step that
    starts at, and never grows past, ``GRAPE_STEP``.

    Deterministic for a given (u0, seed).  Stops at the target infidelity,
    at max_iter, or when 50 successive iterations fail to improve the
    fidelity by more than 1e-14 (reported as ``stagnated``, not an error);
    ``stats["stop"]`` names which.  Amplitudes are clipped to the bounds
    after every update.  A trial step is accepted or halved on its fidelity
    alone (:func:`_grape_forward`); the gradient is built from the same
    slices only once the step is accepted.
    """
    n_ctrl = len(prob.controls)
    if u0 is None:
        rng = np.random.default_rng(seed)
        u = 0.1 * rng.standard_normal((n_ctrl, prob.n_slices))
    else:
        u = np.array(u0, dtype=float).reshape(n_ctrl, prob.n_slices)
    if prob.bounds is not None:
        u = np.clip(u, *prob.bounds)

    grad, fid, _, phi = _grape_gradient(prob, u)
    evals, backtracks = 1, 0
    trace = [1.0 - fid]
    eps = GRAPE_STEP
    stall = 0
    for _ in range(prob.max_iter):
        if 1.0 - fid <= prob.target_infidelity:
            break
        improved = False
        for _ in range(60):
            u_new = u + eps * grad
            if prob.bounds is not None:
                u_new = np.clip(u_new, *prob.bounds)
            forward = _grape_forward(prob, u_new)
            fid_new, phi = forward[:2]
            if fid_new > fid:
                improved = True
                break
            eps *= 0.5
            backtracks += 1
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
        u, fid, grad = u_new, fid_new, _grape_gradient(prob, u_new, forward)[0]
        evals += 1
        trace.append(1.0 - fid)
        eps = min(eps * 1.5, GRAPE_STEP)
        if stall >= 50:
            break
    converged = (1.0 - fid) <= prob.target_infidelity
    stop = "target" if converged else "stall" if stall >= 50 else "max_iter"
    return GrapeResult(
        amplitudes=u,
        infidelity=1.0 - fid,
        trace=np.asarray(trace),
        converged=converged,
        stagnated=stop == "stall",
        phi2=phi,
        stats={"gradient_evals": evals, "backtracks": backtracks, "stop": stop},
    )


def grape_multistart(prob: GrapeProblem, restarts: int = 8,
                     seed: int = 0, u0: np.ndarray | None = None) -> GrapeResult:
    """Best of ``restarts`` runs; restart 0 uses ``u0`` when given.

    Identical (seed, restarts, problem) always reproduces the same result.
    """
    best = None
    rng = np.random.default_rng(seed)
    for r in range(restarts):
        if r == 0 and u0 is not None:
            start = u0
        else:
            scale = 0.5 / max(prob.total_time, 1.0)
            start = scale * rng.standard_normal((len(prob.controls), prob.n_slices))
            if u0 is not None:
                start = start + u0
            if prob.bounds is not None:
                start = np.clip(start, *prob.bounds)
        res = grape_optimize(prob, u0=start)
        if best is None or res.infidelity < best.infidelity:
            best = res
        if best.converged:
            break
    return best


def transmon_pi_problem(alpha: float, lam: float = np.sqrt(2),
                        n_slices: int = 4, dt: float | None = None,
                        bounds: tuple | None = None,
                        target_infidelity: float = 1e-4,
                        max_iter: int = 3000) -> GrapeProblem:
    """Three-level pi-rotation problem: X on the 0-1 block, free |2> phase.

    ``alpha`` is the anharmonicity in rad/ns; the slice width defaults to
    2/|alpha|, the natural time unit the anharmonicity sets.
    """
    if dt is None:
        dt = 2.0 / abs(alpha)
    sx, sy = three_level_drive_ops(lam)
    h0 = np.diag([0.0, 0.0, alpha]).astype(complex)
    target = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    return GrapeProblem(
        h0=h0,
        controls=(0.5 * sx, 0.5 * sy),
        n_slices=n_slices,
        dt=dt,
        target=target,
        free_phase_level=2,
        bounds=bounds,
        target_infidelity=target_infidelity,
        max_iter=max_iter,
    )


def phi2_scan_fidelity(prob: GrapeProblem, amplitudes: np.ndarray) -> float:
    """Reported fidelity, maximized over the free target phase.

    With a free phase level l this is the closed-form optimum
    (|tr_comp| + |U_ll|)^2 / d^2 of |c0 + e^{-i phi} U_ll|^2, the value the
    optimizer itself reports, so it is the one quoted against fidelity
    targets.
    """
    u_total = piecewise_propagator(prob.h0, prob.controls, amplitudes,
                                   np.full(prob.n_slices, prob.dt))
    return _grape_fidelity(prob, u_total)[0]


def grape_pulse(prob: GrapeProblem, res: GrapeResult) -> PulseEnvelope:
    """Piecewise envelope from the first two control channels of a result."""
    edges = np.arange(prob.n_slices + 1) * prob.dt
    t = np.repeat(edges, 2)[1:-1]
    ox = np.repeat(res.amplitudes[0], 2)
    oy = (
        np.repeat(res.amplitudes[1], 2)
        if res.amplitudes.shape[0] > 1
        else np.zeros_like(ox)
    )
    return PulseEnvelope("piecewise", t, ox, oy)


# ---------------------------------------------------------------------------
# Transfer-function distortion
# ---------------------------------------------------------------------------

def _rc_filter(x: np.ndarray, dt: float, tau_rc: float) -> np.ndarray:
    a = np.exp(-dt / tau_rc)
    y = np.empty_like(x)
    y[0] = (1 - a) * x[0]
    for i in range(1, len(x)):
        y[i] = a * y[i - 1] + (1 - a) * x[i]
    return y


def _rc_inverse(x: np.ndarray, dt: float, tau_rc: float) -> np.ndarray:
    a = np.exp(-dt / tau_rc)
    y = np.empty_like(x)
    y[0] = x[0] / (1 - a)
    y[1:] = (x[1:] - a * x[:-1]) / (1 - a)
    return y


def apply_distortion(p: PulseEnvelope, tau_rc: float) -> PulseEnvelope:
    """First-order low-pass response with time constant tau_rc (both quads)."""
    _check_rc(p, tau_rc)
    return p.with_quadratures(
        omega_x=_rc_filter(p.omega_x, p.dt, tau_rc),
        omega_y=_rc_filter(p.omega_y, p.dt, tau_rc),
    )


def predistort(p: PulseEnvelope, tau_rc: float) -> PulseEnvelope:
    """Discrete inverse of :func:`apply_distortion`.

    apply_distortion(predistort(p)) reproduces p exactly on the sample grid;
    the inverse adds the overshoot and negative tails that compensate the
    low-pass transient.
    """
    _check_rc(p, tau_rc)
    return p.with_quadratures(
        omega_x=_rc_inverse(p.omega_x, p.dt, tau_rc),
        omega_y=_rc_inverse(p.omega_y, p.dt, tau_rc),
    )


def _check_rc(p: PulseEnvelope, tau_rc: float) -> None:
    if tau_rc <= 0:
        raise ValueError("tau_rc must be > 0")
    if p.dt > tau_rc / 2:
        raise ValueError(
            f"sample step {p.dt:.4g} ns is too coarse for tau_rc = {tau_rc:.4g} ns "
            "(need dt <= tau_rc/2)"
        )


# ---------------------------------------------------------------------------
# Refocusing sequences and filter functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefocusSequence:
    """Ideal (delta) pulses at given times within a total window tau."""

    pulses: tuple           # of (time, axis, angle)
    tau: float
    kind: str = "custom"

    def __post_init__(self):
        times = [t for t, _, _ in self.pulses]
        if any(t < -1e-12 or t > self.tau + 1e-12 for t in times):
            raise ValueError("pulse times must lie within [0, tau]")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("pulse times must be strictly increasing")

    def pi_pulse_times(self) -> list[float]:
        return [t for t, _, a in self.pulses if abs(abs(a) - np.pi) < 1e-12]


def refocus_sequence(kind: str, tau: float, n: int = 1,
                     include_prep: bool = False) -> RefocusSequence:
    """Canonical refocusing cores over a window of length tau.

    'hahn': pi_x at tau/2 and tau (the echo core; two pi pulses bracketing
    two tau/2 intervals).  'cpmg': n pi_y pulses at the odd multiples of
    tau/2n.  'xy4': X, Y, X, Y at the quarter points.  With
    ``include_prep`` the +-pi/2 x-pulses that map z to the equator and back
    are prepended/appended.
    """
    if kind == "hahn":
        core = [(tau / 2, "x", np.pi), (tau, "x", np.pi)]
    elif kind == "cpmg":
        if n < 1:
            raise ValueError("cpmg needs n >= 1")
        core = [((2 * k - 1) * tau / (2 * n), "y", np.pi) for k in range(1, n + 1)]
    elif kind == "xy4":
        core = [
            (tau / 4, "x", np.pi),
            (tau / 2, "y", np.pi),
            (3 * tau / 4, "x", np.pi),
            (tau, "y", np.pi),
        ]
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if include_prep:
        # the +-pi/2 bookends are state preparation, not refocusing; a
        # trailing core pulse at tau is folded into the closing x rotation
        # when the axes match, keeping the event times strictly increasing
        core = [(0.0, "x", np.pi / 2)] + core
        t_last, ax_last, ang_last = core[-1]
        if abs(t_last - tau) < 1e-12:
            if ax_last != "x":
                raise ValueError(
                    f"{kind}: the closing pulse at tau is about {ax_last}; "
                    "the -pi/2 x bookend cannot be merged with it"
                )
            core[-1] = (tau, "x", ang_last - np.pi / 2)
        else:
            core.append((tau, "x", -np.pi / 2))
    return RefocusSequence(tuple(core), tau, kind)


def sequence_propagator(seq: RefocusSequence, h_qe) -> Operator:
    """Exact propagator: free evolution under H_qe interleaved with delta pulses.

    ``h_qe`` acts on qubit x environment (qubit first, so its dimension is
    2 x the environment's and must be even); pulses rotate the qubit only.
    Pulse length is treated as zero, so H_qe is ignored while a pulse fires.
    The free steps are one-step rows of ``qcore.piecewise_propagator`` (so a
    diagonal H_qe evolves entry by entry), multiplied with the pulses by
    :func:`~scqsim.qcore.ordered_product`.
    """
    hm = _as_matrix(h_qe)
    dim = hm.shape[0]
    if dim % 2:
        raise ValueError("h_qe must act on qubit x environment")
    eye_env = np.eye(dim // 2)
    # free evolution before each pulse and after the last; zero gaps skipped
    edges = [0.0] + [t for t, _, _ in seq.pulses] + [seq.tau]
    gaps = [t1 - t0 for t0, t1 in zip(edges, edges[1:])]
    rows = np.reshape([g for g in gaps if g > 0], (-1, 1))
    free = iter(piecewise_propagator(hm, (), (), rows))
    factors = []
    for gap, pulse in zip(gaps, [*seq.pulses, None]):
        if gap > 0:
            factors.append(next(free))
        if pulse is not None:
            _, axis, angle = pulse
            factors.append(tensor(rotation_operator(axis, angle), eye_env).entries)
    return Operator(ordered_product(np.reshape(factors, (-1, dim, dim))))


def qubit_env_coupling(j_z: float, axis: str, env_op) -> Operator:
    """H_qe = J_z sigma_axis (qubit) x A (environment), in rad/ns."""
    return Operator(j_z * tensor(pauli(axis), env_op).entries, hermitian=True)


def toggling_function(seq: RefocusSequence):
    """Sign segments (t_start, t_end, s) of the +-1 direction of evolution."""
    flips = seq.pi_pulse_times()
    edges = [0.0] + flips + [seq.tau]
    out = []
    s = 1.0
    for t0, t1 in zip(edges, edges[1:]):
        if t1 > t0:
            out.append((t0, t1, s))
        s = -s
    return out


def filter_function(seq: RefocusSequence, omega: np.ndarray) -> np.ndarray:
    """|DFT of the toggling function|^2 on the angular-frequency grid.

    Each pi pulse flips the sign of the accumulated phase; segments are
    integrated in closed form (the continuum limit of the sampled DFT).
    Normalized to unit integral over the supplied grid, so only comparisons
    between sequences of equal tau are meaningful.
    """
    omega = np.asarray(omega, dtype=float)
    segs = toggling_function(seq)
    vals = np.zeros_like(omega, dtype=complex)
    small = np.abs(omega) < 1e-14
    edge = {}                 # exp(-i omega t) at each edge, shared by its segments
    for t0, t1, s in segs:
        for t in (t0, t1):
            if t not in edge:
                edge[t] = np.exp(-1j * omega * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = s * (edge[t1] - edge[t0]) / (-1j * omega)
        term[small] = s * (t1 - t0)
        vals += term
    f = np.abs(vals) ** 2
    norm = np.trapezoid(f, omega)
    return f / norm if norm > 0 else f


# ---------------------------------------------------------------------------
# Multi-qubit ZZ engineering
# ---------------------------------------------------------------------------

ZZ_KEEP_PAIR_PATTERN = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ]
)
"""Four-slice toggling signs that keep only the qubit-1/qubit-2 ZZ term."""


def _on_qubit(axis: str, q: int, nq: int) -> np.ndarray:
    """Pauli ``axis`` on qubit q of nq (qubit 0 most significant)."""
    return tensor([pauli(axis if k == q else "i") for k in range(nq)]).entries


def zz_engineering_propagator(j_matrix: np.ndarray, tau: float,
                              signs: np.ndarray = ZZ_KEEP_PAIR_PATTERN) -> Operator:
    """Propagator of an all-to-all ZZ Hamiltonian under a pi-pulse pattern.

    ``j_matrix[i, j]`` (i < j, rad/ns) are the couplings; ``signs`` has one
    row per qubit and one column per equal slice.  A pi_x pulse fires on a
    qubit at every slice boundary where its sign flips (plus a closing
    pulse when the last slice ends at -1), so the frame returns to identity.
    The surviving coupling of a pattern is sum_s s_i s_j / n_slices.  The
    pulses and the diagonal free slices are multiplied by
    :func:`~scqsim.qcore.ordered_product`.
    """
    j_matrix = np.asarray(j_matrix, dtype=float)
    nq, nslices = signs.shape
    if j_matrix.shape != (nq, nq):
        raise ValueError("j_matrix must be n_qubits x n_qubits")
    dim = 2**nq
    zs = [np.diag(_on_qubit("z", q, nq)).real for q in range(nq)]
    h_diag = np.zeros(dim)
    for i in range(nq):
        for j in range(i + 1, nq):
            h_diag += j_matrix[i, j] * zs[i] * zs[j]

    free = np.diag(np.exp(-1j * h_diag * (tau / nslices)))
    factors = []
    current = np.ones(nq, dtype=int)
    for s in range(nslices):
        for q in range(nq):
            if signs[q, s] != current[q]:
                factors.append(_on_qubit("x", q, nq))
                current[q] = signs[q, s]
        factors.append(free)
    factors += [_on_qubit("x", q, nq) for q in range(nq) if current[q] != 1]
    return Operator(ordered_product(np.reshape(factors, (-1, dim, dim))))


def surviving_zz(signs: np.ndarray) -> np.ndarray:
    """Average s_i s_j over slices: the fraction of each ZZ term that survives."""
    n = signs.shape[1]
    return signs @ signs.T / n


# ---------------------------------------------------------------------------
# Pulse CSV interchange
# ---------------------------------------------------------------------------

CSV_HEADER = ["t_ns", "omega_x_GHz", "omega_y_GHz"]


def pulse_to_csv(p: PulseEnvelope, path) -> None:
    """Write the envelope with quadratures converted to ordinary GHz."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for t, ox, oy in zip(p.times, p.omega_x, p.omega_y):
            w.writerow([f"{t:.12g}", f"{ox / TWO_PI:.12g}", f"{oy / TWO_PI:.12g}"])


def pulse_from_csv(path) -> PulseEnvelope:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise ValueError(
                f"pulse CSV must start with header {','.join(CSV_HEADER)!r}"
            )
        rows = [(float(a), float(b), float(c)) for a, b, c in r]
    if len(rows) < 2:
        raise ValueError("pulse CSV needs at least two samples")
    t = np.array([r[0] for r in rows])
    ox = np.array([r[1] for r in rows]) * TWO_PI
    oy = np.array([r[2] for r in rows]) * TWO_PI
    return PulseEnvelope("piecewise", t, ox, oy)
