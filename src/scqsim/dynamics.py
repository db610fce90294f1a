"""Open- and closed-system time evolution.

Generators here are in angular units (rad/ns); times in ns.  Integration is
fixed-step RK4 throughout: deterministic and bit-stable, which the
regression and acceptance suites rely on.  Adaptive stepping is deliberately
absent.

Collapse operators carry their rate inside the operator (units 1/sqrt(ns)).
The qubit constructors follow the standard open-system model

    L1 = sqrt(Gamma_par) * (|0><1|)      energy decay |1> -> |0>
    L2 = sqrt(Gamma_phi / 2) * sigma_z   pure dephasing

and the resonator constructor keeps the printed sqrt(kappa/2pi) a form:
with kappa in rad/ns the photon number then decays at kappa/2pi per ns,
i.e. at the *ordinary* frequency matching that angular kappa.  Use
``kappa_for_photon_rate`` to go from a target 1/ns decay rate to the kappa
argument and avoid double-counting the 2pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .qcore import (NORM_TOL, SIGMA_PLUS, SIGMA_Z, DensityMatrix, Operator,
                    StateVector, _as_matrix, annihilation, expm_hermitian,
                    ordered_product, piecewise_propagator)

TRACE_HARD_LIMIT = 1e-4
TRACE_SOFT_LIMIT = 1e-6
# samples in a static run's first checked block; a block with no event
# doubles the next one, an event starts again from here
BLOCK_START = 8


class IntegrationError(RuntimeError):
    """Trace drift exceeded the hard limit; retry with a smaller dt."""


@dataclass(frozen=True)
class TimeDependentH:
    """H(t) = H0 + sum_k u_k(t) H_k with real envelope functions u_k.

    ``static`` and every drive operator are in rad/ns and share one dimension.
    """

    static: np.ndarray
    drives: Sequence[tuple[np.ndarray, Callable[[float], float]]] = ()

    def __post_init__(self):
        h0 = _as_matrix(self.static)
        object.__setattr__(self, "static", h0)
        drives = tuple((_as_matrix(op), fn) for op, fn in self.drives)
        for op, _ in drives:
            if op.shape != h0.shape:
                raise ValueError("all drive operators must share the static dim")
        object.__setattr__(self, "drives", drives)

    @property
    def dim(self) -> int:
        return self.static.shape[0]

    def at(self, t: float) -> np.ndarray:
        h = self.static.copy()
        for op, fn in self.drives:
            h += float(fn(t)) * op
        return h


def _as_hamiltonian(h) -> TimeDependentH:
    if isinstance(h, TimeDependentH):
        return h
    return TimeDependentH(_as_matrix(h))


def _sample_times(times, t_span, dt) -> np.ndarray:
    """The requested sample times, or a grid of steps <= dt over [0, t_span];
    dt must be finite and > 0, the times at least one, finite and
    non-decreasing."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if times is None:
        if t_span is None:
            raise ValueError("provide either times or t_span")
        if not (np.isfinite(t_span) and t_span >= 0):
            raise ValueError(f"t_span must be finite and >= 0, got {t_span}")
        times = np.linspace(0.0, t_span, max(int(np.ceil(t_span / dt)) + 1, 2))
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("the sample grid is empty: give at least one sample time")
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
        raise ValueError("sample times must be finite and non-decreasing")
    return times


def _substeps(span: float, dt: float) -> tuple[int, float]:
    """Split one sample interval into the fewest equal steps of size <= dt."""
    nsub = max(int(np.ceil(span / dt - 1e-12)), 1)
    return nsub, span / nsub


@dataclass(frozen=True)
class EvolveResult:
    times: np.ndarray
    states: list
    expectations: dict = field(default_factory=dict)
    # lindblad_evolve's repair counts: renormalized and clipped samples,
    # checked blocks, the largest trace drift, distinct powered maps
    stats: dict = field(default_factory=dict)

    def final(self):
        return self.states[-1]


# ---------------------------------------------------------------------------
# Collapse-operator constructors
# ---------------------------------------------------------------------------

def qubit_decay(gamma_par: float) -> Operator:
    """sqrt(Gamma_par) |0><1|: thermalization of a two-level system."""
    if gamma_par < 0:
        raise ValueError("Gamma_par must be >= 0")
    return SIGMA_PLUS * np.sqrt(gamma_par)


def qubit_dephasing(gamma_phi: float) -> Operator:
    """sqrt(Gamma_phi / 2) sigma_z: pure dephasing of a two-level system."""
    if gamma_phi < 0:
        raise ValueError("Gamma_phi must be >= 0")
    return SIGMA_Z * np.sqrt(gamma_phi / 2)


def resonator_decay(kappa: float, n_levels: int) -> Operator:
    """sqrt(kappa / 2pi) a, kept verbatim in the printed form.

    kappa is angular (rad/ns); the resulting photon-number decay rate is
    kappa/2pi in 1/ns.  See the module docstring for the bookkeeping.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return Operator(np.sqrt(kappa / (2 * np.pi)) * annihilation(n_levels).entries)


def effective_t2(t1: float, t2: float) -> float:
    """T2 (ns) of a qubit with decay T1: an infinite T2 means no pure
    dephasing, i.e. 2 T1; a finite T2 > 2 T1 is unphysical and raises."""
    if not np.isfinite(t2):
        return 2 * t1
    if t2 > 2 * t1 + 1e-12:
        raise ValueError("T2 cannot exceed 2 T1")
    return t2


def qubit_collapse_ops(t1: float, t2: float) -> list:
    """Collapse operators of a qubit with energy decay T1 and coherence T2 (ns).

    An infinite T1 drops the decay operator; pure dephasing at
    Gamma_phi = 1/T2 - 1/(2 T1) is added only when positive, so T2 = 2 T1
    means no pure dephasing (1/(2 T1) and 0.5/T1 are one double, so
    Gamma_phi is exactly 0); T2 follows :func:`effective_t2`.
    """
    t2 = effective_t2(t1, t2)
    ops = []
    if np.isfinite(t1):
        ops.append(qubit_decay(1.0 / t1))
    gamma_phi = 1.0 / t2 - 0.5 / t1
    if gamma_phi > 0:
        ops.append(qubit_dephasing(gamma_phi))
    return ops


def kappa_for_photon_rate(rate_per_ns: float) -> float:
    """kappa argument of :func:`resonator_decay` giving d<n>/dt = -rate <n>."""
    return 2 * np.pi * rate_per_ns


# ---------------------------------------------------------------------------
# Lindblad evolution
# ---------------------------------------------------------------------------

def liouvillian(h, collapse: Sequence = ()) -> np.ndarray:
    """Superoperator of the Lindblad generator of a static H on row-major
    vec(rho) = rho.reshape(-1): -i (H x I - I x H^T)
    + sum_k (L_k x L_k^* - (L_k^dag L_k x I + I x (L_k^dag L_k)^T) / 2)."""
    hm = _as_matrix(h)
    eye = np.eye(hm.shape[0])
    out = -1j * (np.kron(hm, eye) - np.kron(eye, hm.T))
    for c in collapse:
        l = _as_matrix(c)
        ll = l.conj().T @ l
        out += np.kron(l, l.conj()) - 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
    return out


def _coerce_rho(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return np.array(state.entries, dtype=complex)
    if isinstance(state, StateVector):
        v = state.amplitudes
        return np.outer(v, v.conj())
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    return arr.copy()


def lindblad_evolve(
    h,
    rho0,
    collapse: Sequence = (),
    times: np.ndarray | None = None,
    dt: float = 1e-2,
    t_span: float | None = None,
    e_ops: dict | None = None,
) -> EvolveResult:
    """Fixed-step RK4 integration of the Lindblad master equation.

    d rho/dt = -i [H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

    RK4 runs on vec(rho), with the :func:`liouvillian` superoperators built
    once: L(t) = L0 + sum_k u_k(t) L_k.  A driven H steps through the RK4
    loop.  A static H (no drives) takes each sample interval as one mat-vec
    with the RK4 step map raised to its step count; that power is built once
    per distinct (step count, step size) within the call.  Both are the same
    RK4 steps, so dt means the same thing on either path.

    ``times`` are the requested sample points (the grid is the union of RK4
    steps of size <= dt hitting each sample exactly).  Trace drift beyond
    1e-4 raises :class:`IntegrationError`, and so does positivity loss
    beyond -1e-6 (RK4 keeps the trace of this generator exactly, so an
    unstable step announces itself through the spectrum).  Drift inside
    those limits is repaired: renormalization above 1e-6 trace error,
    eigenvalue clipping of sub-threshold negative dust.  A driven run checks
    every sample on its own.  A static run steps a block of samples ahead
    and checks the block with one stacked ``eigh``; the first sample that
    needs repair (or fails) is checked on its own, and stepping resumes from
    it, so the result is the same as checking every sample.  The counts of
    these repairs are in ``stats``.
    """
    h = _as_hamiltonian(h)
    times = _sample_times(times, t_span, dt)
    l0 = liouvillian(h.static, collapse)
    drives = [(liouvillian(op), fn) for op, fn in h.drives]

    def generator(t):
        out = l0
        for lk, fn in drives:
            out = out + float(fn(t)) * lk
        return out

    rho = _coerce_rho(rho0)
    e_arr = {k: _as_matrix(v) for k, v in (e_ops or {}).items()}

    stats = {"renormalized": 0, "clipped": 0, "checked_blocks": 0,
             "max_trace_drift": 0.0, "powered_maps": 0}
    states = [DensityMatrix(_repair(rho, 0.0, stats))]
    expect = {k: [float(np.trace(rho @ a).real)] for k, a in e_arr.items()}
    if not drives:
        for block, verified in _static_blocks(l0, rho, times, dt, stats):
            if verified:
                states.extend(DensityMatrix._verified(m) for m in block)
            else:
                states.append(DensityMatrix(block[0]))
            for k, a in e_arr.items():
                expect[k].extend(np.trace(block @ a, axis1=1, axis2=2).real.tolist())
    else:
        for t0, t1 in zip(times[:-1], times[1:]):
            nsub, sub = _substeps(t1 - t0, dt)
            v = rho.reshape(-1)
            t = t0
            # an unstable step overflows to inf/nan; _settle reports it
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(nsub):
                    mid = generator(t + sub / 2)
                    k1 = generator(t) @ v
                    k2 = mid @ (v + sub / 2 * k1)
                    k3 = mid @ (v + sub / 2 * k2)
                    k4 = generator(t + sub) @ (v + sub * k3)
                    v = v + sub / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                    t += sub
            rho = _settle(v.reshape(rho.shape), t1, dt, stats)
            states.append(DensityMatrix(rho))
            for k, a in e_arr.items():
                expect[k].append(float(np.trace(rho @ a).real))
    return EvolveResult(times, states, {k: np.asarray(v) for k, v in expect.items()},
                        stats)


def _static_blocks(l0, rho, times, dt, stats):
    """The samples after the first of a static run, in order, as (stack,
    verified) pairs.  Each block of samples is stepped ahead as
    ``v <- v + D v`` and symmetrized, then checked at once: finite, trace
    drift within both NORM_TOL and the soft limit, smallest eigenvalue
    >= 0.  The samples before the first that fails come out verified (they
    are what :func:`_settle` would return); that one goes through
    :func:`_settle` itself, and stepping resumes from its result."""
    spans = [_substeps(t1 - t0, dt) for t0, t1 in zip(times[:-1], times[1:])]
    maps = {}
    v = rho.reshape(-1)
    i, size = 0, BLOCK_START
    while i < len(spans):
        block = spans[i:i + size]
        raw = np.empty((len(block),) + rho.shape, dtype=complex)
        sym = np.empty_like(raw)
        # an unstable step overflows to inf/nan; _settle reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (nsub, sub) in enumerate(block):
                if (nsub, sub) not in maps:
                    maps[nsub, sub] = _powered_step(l0 * sub, nsub)
                raw[j] = step = (v + maps[nsub, sub] @ v).reshape(rho.shape)
                sym[j] = step = 0.5 * (step + step.conj().T)
                v = step.reshape(-1)
            drift = np.abs(np.trace(raw, axis1=1, axis2=2).real - 1.0)
        ok = ((drift < NORM_TOL) & (drift <= TRACE_SOFT_LIMIT)
              & np.isfinite(sym).all(axis=(1, 2)))
        n = len(block) if ok.all() else int(ok.argmin())
        if n:
            ok = np.linalg.eigh(sym[:n])[0].min(axis=1) >= 0.0
            n = n if ok.all() else int(ok.argmin())
        stats["checked_blocks"] += 1
        if n:
            stats["max_trace_drift"] = max(stats["max_trace_drift"],
                                           float(drift[:n].max()))
            yield sym[:n], True
        i += n
        size *= 2
        if n < len(block):
            rho = _settle(raw[n], times[i + 1], dt, stats)
            yield rho[None], False
            v = rho.reshape(-1)
            i += 1
            size = BLOCK_START
    stats["powered_maps"] = len(maps)


def _settle(rho: np.ndarray, t: float, dt: float, stats: dict) -> np.ndarray:
    """One stepped sample's checks: the trace-drift limits, renormalization
    beyond the soft limit, then :func:`_repair`."""
    drift = abs(np.trace(rho).real - 1.0)
    if not np.isfinite(drift) or drift > TRACE_HARD_LIMIT:
        raise IntegrationError(
            f"trace drift {drift:.2e} at t = {t:.4g} ns; reduce dt below "
            f"{dt / 4:.3g}"
        )
    stats["max_trace_drift"] = max(stats["max_trace_drift"], float(drift))
    if drift > TRACE_SOFT_LIMIT:
        rho = rho / np.trace(rho).real
        stats["renormalized"] += 1
    return _repair(rho, t, stats)


def _powered_step(x: np.ndarray, n: int) -> np.ndarray:
    """The increment D of n RK4 steps of a static generator, x = L dt:
    I + D = (I + x + x^2/2 + x^3/6 + x^4/24)^n, by binary powering in
    increment form, (I + A)(I + B) = I + (A + B + AB) and D_2k = 2 D_k + D_k^2,
    so that I never swamps the small increments."""
    x2 = x @ x
    step = x + x2 / 2 + x2 @ (x / 6 + x2 / 24)
    out = None
    while True:
        if n & 1:
            out = step if out is None else out + step + out @ step
        n >>= 1
        if not n:
            return out
        step = 2 * step + step @ step


POSITIVITY_HARD_LIMIT = 1e-6


def _repair(rho: np.ndarray, t: float, stats: dict) -> np.ndarray:
    """Symmetrize round-off; clip eigenvalue dust (counted in ``stats``);
    reject real blow-ups."""
    rho = 0.5 * (rho + rho.conj().T)
    evals, vecs = np.linalg.eigh(rho)
    if not np.all(np.isfinite(evals)) or evals.min() < -POSITIVITY_HARD_LIMIT:
        raise IntegrationError(
            f"positivity lost (min eigenvalue {evals.min():.2e}) at "
            f"t = {t:.4g} ns; reduce dt"
        )
    if evals.min() < 0.0:
        stats["clipped"] += 1
        clipped = np.clip(evals, 0.0, None)
        rho = (vecs * clipped) @ vecs.conj().T
        rho = rho / np.trace(rho).real
    return rho


# ---------------------------------------------------------------------------
# Unitary evolution
# ---------------------------------------------------------------------------

def step_propagators(h: TimeDependentH, times: np.ndarray, dt: float) -> np.ndarray:
    """Midpoint-sampled piecewise-constant propagators over each [t_i, t_i+1],
    as a (len(times) - 1, d, d) stack; the intervals with the same number of
    substeps are reduced together by one :func:`piecewise_propagator` call."""
    spans = [_substeps(t1 - t0, dt) for t0, t1 in zip(times[:-1], times[1:])]
    nsubs = np.array([nsub for nsub, _ in spans], dtype=int)
    subs = np.array([sub for _, sub in spans])
    out = np.empty((len(spans), h.dim, h.dim), dtype=complex)
    for nsub in np.unique(nsubs):
        rows = np.flatnonzero(nsubs == nsub)
        mids = times[rows, None] + (np.arange(nsub) + 0.5) * subs[rows, None]
        amplitudes = [[float(fn(t)) for t in mids.ravel()] for _, fn in h.drives]
        out[rows] = piecewise_propagator(h.static, [op for op, _ in h.drives],
                                         amplitudes,
                                         np.broadcast_to(subs[rows, None], mids.shape))
    return out


def unitary_evolve(
    h,
    state0,
    times: np.ndarray | None = None,
    dt: float = 1e-2,
    t_span: float | None = None,
    e_ops: dict | None = None,
) -> EvolveResult:
    """Closed-system evolution of a ket by a product of midpoint-sampled
    propagators.  Exact for a static H regardless of dt.  Kets only: evolve a
    density matrix with ``lindblad_evolve(h, rho, [])``."""
    psi = state0.amplitudes if isinstance(state0, StateVector) else state0
    if np.ndim(psi) != 1:
        raise ValueError("unitary_evolve takes a ket; evolve a density matrix "
                         "with lindblad_evolve(h, rho, [])")
    h = _as_hamiltonian(h)
    times = _sample_times(times, t_span, dt)
    e_arr = {k: _as_matrix(v) for k, v in (e_ops or {}).items()}

    psi = np.array(psi, dtype=complex)
    states = [StateVector(psi.copy(), _skip_norm_check=True)]
    expect = {k: [float(np.vdot(psi, a @ psi).real)] for k, a in e_arr.items()}
    for u in step_propagators(h, times, dt):
        psi = u @ psi
        states.append(StateVector(psi.copy(), _skip_norm_check=True))
        for k, a in e_arr.items():
            expect[k].append(float(np.vdot(psi, a @ psi).real))
    return EvolveResult(times, states, {k: np.asarray(v) for k, v in expect.items()})


def total_propagator(h, t_span: float, dt: float = 1e-2) -> Operator:
    """Time-ordered product of midpoint-sampled step propagators over [0, T]."""
    h = _as_hamiltonian(h)
    return Operator(ordered_product(step_propagators(h, _sample_times(None, t_span, dt),
                                                     dt)))


# ---------------------------------------------------------------------------
# Rotating frame
# ---------------------------------------------------------------------------

def rotating_frame(h, h0, t: float) -> np.ndarray:
    """Frame-transformed generator e^{i H0 t} (H - H0) e^{-i H0 t} at time t."""
    hm = _as_matrix(h.at(t) if isinstance(h, TimeDependentH) else h)
    h0m = _as_matrix(h0)
    u = expm_hermitian(h0m, scale=1j * t)
    return u @ (hm - h0m) @ u.conj().T


def rwa_filter(h, h0, cutoff: float) -> np.ndarray:
    """Drop matrix elements of (H - H0) oscillating faster than ``cutoff``.

    In the eigenbasis of H0 the element (i, j) of the rotating-frame
    generator oscillates at |E_i - E_j| (rad/ns); elements above the cutoff
    are zeroed and the result is rotated back to the original basis.
    """
    hm = _as_matrix(h)
    h0m = _as_matrix(h0)
    evals, vecs = np.linalg.eigh(h0m)
    delta = hm - h0m
    tilde = vecs.conj().T @ delta @ vecs
    freq = np.abs(evals[:, None] - evals[None, :])
    tilde[freq > cutoff] = 0.0
    return h0m + vecs @ tilde @ vecs.conj().T
