"""Open- and closed-system time evolution.

Generators here are in angular units (rad/ns); times in ns.  A static
Lindblad run takes each sample interval by its exact map, e^(L dt) by
scaling and squaring; a driven one by fixed-step RK4.  Both are
deterministic and bit-stable, which the regression and acceptance suites
rely on.  Adaptive stepping is deliberately absent.

Collapse operators carry their rate inside the operator (units 1/sqrt(ns)).
The qubit constructors follow the standard open-system model

    L1 = sqrt(Gamma_par) * (|0><1|)      energy decay |1> -> |0>
    L2 = sqrt(Gamma_phi / 2) * sigma_z   pure dephasing

and the resonator constructor keeps the printed sqrt(kappa/2pi) a form:
with kappa in rad/ns the photon number then decays at kappa/2pi per ns,
i.e. at the *ordinary* frequency matching that angular kappa.  Use
``qcore.to_angular`` to go from a target 1/ns decay rate to the kappa
argument and avoid double-counting the 2pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .qcore import (NORM_TOL, SIGMA_PLUS, SIGMA_Z, DensityMatrix, Operator,
                    StateVector, _as_matrix, _chunk, _taylor_plan, annihilation,
                    expm_hermitian, piecewise_propagator)

TRACE_HARD_LIMIT = 1e-4
TRACE_SOFT_LIMIT = 1e-6


class IntegrationError(RuntimeError):
    """A sample's trace drift or negative eigenvalue exceeded its hard limit."""


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
    # lindblad_evolve's repair counts: renormalized and clipped samples, the
    # summed magnitude of the clipped eigenvalues, checked chunks, the
    # largest trace drift, distinct interval maps; a driven run adds its
    # RK4 step count, rk4_steps
    stats: dict = field(default_factory=dict)


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


# ---------------------------------------------------------------------------
# Lindblad evolution
# ---------------------------------------------------------------------------

def liouvillian(h, collapse: Sequence = ()) -> np.ndarray:
    """Superoperator of the Lindblad generator of a static H on row-major
    vec(rho) = rho.reshape(-1): -i (H x I - I x H^T)
    + sum_k (L_k x L_k^* - (L_k^dag L_k x I + I x (L_k^dag L_k)^T) / 2).
    Raises ``ValueError`` unless H is a square matrix."""
    hm = _as_matrix(h)
    if hm.ndim != 2 or hm.shape[0] != hm.shape[1]:
        raise ValueError(f"H must be a square matrix, got shape {hm.shape}")
    d = hm.shape[0]
    eye = np.eye(d)

    def kron(a, b):
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)

    out = -1j * (kron(hm, eye) - kron(eye, hm.T))
    for c in collapse:
        l = _as_matrix(c)
        ll = l.conj().T @ l
        out += kron(l, l.conj()) - 0.5 * (kron(ll, eye) + kron(eye, ll.T))
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
    """Integration of the Lindblad master equation.

    d rho/dt = -i [H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

    Both paths step vec(rho) as v <- v + D v, with the :func:`liouvillian`
    superoperators built once: L(t) = L0 + sum_k u_k(t) L_k.  A static H
    (no drives) is exact and ``dt`` does not enter: each sample interval is
    one step by D = exp(L0 dt_j) - I from :func:`_powered_step`, built once
    per distinct interval.  A driven H takes RK4 steps of size <= dt hitting
    each sample exactly: every product of 1 to 4 of L0 ... LK is built once
    per call, and each chunk of steps gets its increments from them by one
    matrix product with the RK4 coefficients of the envelope samples at each
    step's start, midpoint and end (1 + 2 nsub calls of each envelope per
    interval of nsub steps).

    The initial state is repaired as every sample is, and that repaired
    state is the first sample, its expectations and the start of the
    stepping.  Trace drift beyond 1e-4 raises :class:`IntegrationError`,
    and so does positivity loss beyond -1e-6 (an unstable step keeps the
    trace and announces itself through the spectrum).  Drift inside those
    limits is repaired: renormalization above 1e-6 trace error, eigenvalue
    clipping of sub-threshold negative dust.  A driven run checks every
    sample and steps on from the repaired one.  A static run feeds no repair
    forward: it checks a chunk of samples with one stacked ``eigh`` and puts
    only those that fail through the per-sample checks, so each sample is
    exp(L0 (t_k - t_0)) rho0 checked on its own.  The repair counts are in
    ``stats``, and a driven run's number of RK4 steps in its ``rk4_steps``.
    Raises ``ValueError`` unless H is a square matrix of rho's dimension,
    and ``numpy.linalg.LinAlgError`` for a non-finite static generator.
    """
    h = _as_hamiltonian(h)
    times = _sample_times(times, t_span, dt)
    # a non-finite generator is reported by the Taylor plan or the checks
    with np.errstate(over="ignore", invalid="ignore"):
        l0 = liouvillian(h.static, collapse)
    e_arr = {k: _as_matrix(v) for k, v in (e_ops or {}).items()}

    rho = _coerce_rho(rho0)
    if rho.shape != h.static.shape:
        raise ValueError(f"rho of shape {rho.shape} for H of shape {h.static.shape}")
    stats = {"renormalized": 0, "clipped": 0, "clipped_mass": 0.0,
             "checked_blocks": 0, "max_trace_drift": 0.0, "powered_maps": 0}
    rho = _repair(rho, 0.0, stats)
    states = [DensityMatrix(rho)]
    expect = {k: [float(np.trace(rho @ a).real)] for k, a in e_arr.items()}
    if not h.drives:
        for stack, chunk in _static_chunks(l0, rho, times, stats):
            states.extend(chunk)
            for k, a in e_arr.items():
                expect[k].extend(np.trace(stack @ a, axis1=1, axis2=2).real.tolist())
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            words = _generator_words(np.stack([l0] + [liouvillian(op)
                                                      for op, _ in h.drives]))
        fns = [fn for _, fn in h.drives]
        size = _chunk(len(l0))
        stats["rk4_steps"] = 0
        for t0, t1 in zip(times[:-1], times[1:]):
            nsub, sub = _substeps(t1 - t0, dt)
            stats["rk4_steps"] += nsub
            v = rho.reshape(-1).copy()
            # an unstable step overflows to inf/nan; _settle reports it
            with np.errstate(over="ignore", invalid="ignore"):
                for rows in _envelope_rows(fns, t0, nsub, sub, size):
                    incs = _step_increments(words, rows, sub)
                    for inc in incs.reshape((-1,) + l0.shape):
                        v += inc @ v
            rho = _settle(v.reshape(rho.shape), t1, dt, stats)
            states.append(DensityMatrix(rho))
            for k, a in e_arr.items():
                expect[k].append(float(np.trace(rho @ a).real))
    return EvolveResult(times, states, {k: np.asarray(v) for k, v in expect.items()},
                        stats)


def _generator_words(gens: np.ndarray) -> np.ndarray:
    """Every product of 1 to 4 of the generators gens (K + 1, m, m), the
    word (a, b, ...) being L_a L_b ..., shortest first and each length in
    lexicographic order, as the rows of one real (words, 2 m^2) array."""
    words = [gens]
    for _ in range(3):
        words.append((words[-1][:, None] @ gens).reshape((-1,) + gens.shape[1:]))
    words = np.concatenate(words)
    return words.reshape(len(words), -1).view(np.float64)


def _envelope_rows(fns, t0, nsub: int, sub: float, size: int):
    """The generator coefficients (1, u_1(t), ..., u_K(t)) of one sample
    interval's nsub RK4 steps, as (2n + 1, K + 1) rows per chunk of at most
    ``size`` steps: the chunk's start, then each step's midpoint and end,
    the ends accumulated from t0 as t += sub would.  Each envelope is called
    1 + 2 nsub times, in time order; a chunk starts at the last row of the
    one before."""
    start, t = [float(fn(t0)) for fn in fns], t0
    for s in range(0, nsub, size):
        n = min(size, nsub - s)
        ends = np.cumsum([t] + [sub] * n)
        ts = np.empty(2 * n)
        ts[::2], ts[1::2] = ends[:-1] + sub / 2, ends[1:]
        rows = np.ones((2 * n + 1, len(fns) + 1))
        rows[0, 1:] = start
        rows[1:, 1:] = np.reshape([float(fn(x)) for x in ts for fn in fns], (2 * n, -1))
        yield rows
        start, t = rows[-1, 1:], ends[-1]


def _step_increments(words: np.ndarray, rows: np.ndarray, h: float) -> np.ndarray:
    """The increments D_j of n RK4 steps of size h, I + D_j being the step
    map, from :func:`_generator_words` and the (2n + 1, K + 1) generator
    coefficients rows (1, u_1, ..., u_K) at the steps' start, midpoint, end,
    midpoint, end, ...  With G0, Gm, G1 the generators at a step's start,
    midpoint and end, RK4's stages multiply out to

        D = h/6 (G0 + 4 Gm + G1) + h^2/6 (Gm G0 + Gm^2 + G1 Gm)
            + h^3/12 (Gm^2 G0 + G1 Gm^2) + h^4/24 G1 Gm^2 G0,

    whose coefficients on the words are products of the rows' entries.
    Each D_j comes back flat, as row j of an (n, m^2) array."""
    a0, am, a1 = rows[:-1:2], rows[1::2], rows[2::2]
    n = len(am)

    def outer(x, y):
        return (x[:, :, None] * y[:, None, :]).reshape(n, -1)

    amam = outer(am, am)
    amama0 = outer(amam, a0)
    coef = np.concatenate([h / 6 * (a0 + 4 * am + a1),
                           h**2 / 6 * (outer(am, a0 + am) + outer(a1, am)),
                           h**3 / 12 * (amama0 + outer(a1, amam)),
                           h**4 / 24 * outer(a1, amama0)], axis=1)
    return (coef @ words).view(complex)


def _static_chunks(l0, rho, times, stats):
    """The samples after the first of a static run, as (stack, states) per
    chunk.  One loop steps the chunk, ``v <- v + D_j v`` with the exact
    increment of each interval; the chunk is then symmetrized and checked
    at once: finite, trace drift within NORM_TOL and the soft limit, and
    smallest eigenvalue >= 0 by the ``eigh`` that :func:`_repair` runs.  A
    sample that passes is what :func:`_settle` would return; one that
    fails goes through it and the full ``DensityMatrix`` constructor."""
    spans, index = np.unique(np.diff(times), return_inverse=True)
    stats["powered_maps"] = len(spans)
    with np.errstate(over="ignore", invalid="ignore"):
        incs = list(_powered_step(l0 * spans[:, None, None]))
    steps = [incs[j] for j in index.tolist()]
    size = _chunk(len(l0))
    v = rho.reshape(-1)
    for start in range(0, len(steps), size):
        chunk = steps[start:start + size]
        raw = np.empty((len(chunk) + 1, v.size), dtype=complex)
        raw[0] = v
        rows = list(raw)
        for prev, row, inc in zip(rows, rows[1:], chunk):
            np.add(prev, inc @ prev, out=row)
        v = raw[-1]
        raw = raw[1:].reshape((-1,) + rho.shape)
        sym = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        drift = np.abs(np.trace(raw, axis1=1, axis2=2).real - 1.0)
        ok = ((drift < NORM_TOL) & (drift <= TRACE_SOFT_LIMIT)
              & np.isfinite(sym).all(axis=(1, 2)))
        ok[ok] = np.linalg.eigh(sym[ok])[0].min(axis=1) >= 0.0
        stats["checked_blocks"] += 1
        stats["max_trace_drift"] = max(stats["max_trace_drift"],
                                       float(drift[ok].max(initial=0.0)))
        settled = {}
        for k in np.flatnonzero(~ok).tolist():
            sym[k] = _settle(raw[k], times[start + k + 1], None, stats)
            settled[k] = DensityMatrix(sym[k])
        yield sym, [settled[k] if k in settled else DensityMatrix._verified(m)
                    for k, m in enumerate(sym)]


def _settle(rho: np.ndarray, t: float, dt: float | None, stats: dict) -> np.ndarray:
    """One stepped sample's checks: the trace-drift limits, renormalization
    beyond the soft limit, then :func:`_repair`.  ``dt`` is the RK4 step
    that made rho, None for an exact map; only a step gets the advice to
    reduce it."""
    advice = "" if dt is None else f"; reduce dt below {dt / 4:.3g}"
    drift = abs(np.trace(rho).real - 1.0)
    if not np.isfinite(drift) or drift > TRACE_HARD_LIMIT:
        raise IntegrationError(f"trace drift {drift:.2e} at t = {t:.4g} ns{advice}")
    stats["max_trace_drift"] = max(stats["max_trace_drift"], float(drift))
    if drift > TRACE_SOFT_LIMIT:
        rho = rho / np.trace(rho).real
        stats["renormalized"] += 1
    return _repair(rho, t, stats, advice)


def _powered_step(x: np.ndarray) -> np.ndarray:
    """exp(X_j) - I for every X_j of an (n, m, m) stack by scaling and
    squaring (Moler & Van Loan, SIAM Rev. 45 (2003) 3): with s and K from
    :func:`qcore._taylor_plan` for the largest ||X_j||_1, the Taylor
    polynomial of Y = X / 2^s to degree K + 1 without its constant term,
    D = Y (I + Y/2 (I + ...)), then s squarings in increment form,
    D <- 2 D + D^2, so that I never swamps a small increment.  The extra
    degree bounds the truncation by 2^-53 ||Y||_1, relative to D."""
    s, k = _taylor_plan(float(np.abs(x).sum(axis=1).max(initial=0.0)))
    y = x * 0.5**s
    k += 1
    d = y / k
    for j in range(k - 1, 0, -1):
        yj = y / j
        d = yj + yj @ d
    for _ in range(s):
        d = 2 * d + d @ d
    return d


POSITIVITY_HARD_LIMIT = 1e-6


def _repair(rho: np.ndarray, t: float, stats: dict, advice: str = "") -> np.ndarray:
    """Symmetrize round-off; clip eigenvalue dust (counted in ``stats``, with
    the clipped eigenvalues' summed magnitude); reject real blow-ups."""
    rho = 0.5 * (rho + rho.conj().T)
    evals, vecs = np.linalg.eigh(rho)
    if not np.all(np.isfinite(evals)) or evals.min() < -POSITIVITY_HARD_LIMIT:
        raise IntegrationError(
            f"positivity lost (min eigenvalue {evals.min():.2e}) at "
            f"t = {t:.4g} ns{advice}"
        )
    if evals.min() < 0.0:
        stats["clipped"] += 1
        stats["clipped_mass"] -= float(evals[evals < 0.0].sum())
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
