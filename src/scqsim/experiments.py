"""Virtual characterization experiments and randomized benchmarking.

Experiments run on the Lindblad engine (rotating-frame models) and return
plain data series; the fitters are deterministic damped least squares
(Levenberg-Marquardt) seeded from spectral estimates, so identical data
always reproduce bit-identical fits.

Benchmarking is single-qubit only: the estimator formulas are
dimension-generic, but the 11,520-element two-qubit Clifford group is out
of scope here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .coupling import DispersiveLimitError, JCParams
from .dynamics import effective_t2, lindblad_evolve, qubit_collapse_ops
from .qcore import (H_GATE, PAULIS, S_GATE, SIGMA_X, Operator, rotation_operator,
                    to_angular)

N_Q = np.diag([0.0, 1.0]).astype(complex)


class FitQualityError(RuntimeError):
    """The decay fit landed outside its physical range."""


@dataclass(frozen=True)
class FitResult:
    params: dict
    sigmas: dict
    residual_norm: float
    converged: bool
    nfev: int = 0                  # model evaluations the optimizer spent

    def __post_init__(self):
        if self.converged and not np.isfinite(self.residual_norm):
            raise ValueError("converged fit must report a finite residual norm")
        if any(s < 0 for s in self.sigmas.values()):
            raise ValueError("uncertainties must be >= 0")


@dataclass(frozen=True)
class ReadoutModel:
    """Projective readout with optional misassignment.

    eps01 = P(report 1 | qubit in 0), eps10 = P(report 0 | qubit in 1).
    ``shots`` = None returns noiseless expectation values; an integer
    >= 1 samples binomially with the supplied rng.
    """

    eps01: float = 0.0
    eps10: float = 0.0
    shots: int | None = None

    def __post_init__(self):
        if not (self.shots is None or isinstance(self.shots, (int, np.integer))
                and not isinstance(self.shots, bool) and self.shots >= 1):
            raise ValueError(f"shots must be None or an integer >= 1, got {self.shots!r}")

    def observed_p1(self, p1):
        return (1 - self.eps10) * p1 + self.eps01 * (1 - p1)

    def sample(self, p1, rng) -> tuple[np.ndarray, np.ndarray]:
        """(mean, sem) arrays of the observed excited-state fraction for a
        series of true p1 values (a scalar gives 0-d arrays); one binomial
        draw per point, in order, as one scalar call per point would draw."""
        q = np.clip(self.observed_p1(np.asarray(p1, dtype=float)), 0.0, 1.0)
        if self.shots is None:
            return q, np.zeros_like(q)
        mean = rng.binomial(self.shots, q) / self.shots
        sem = np.sqrt(np.maximum(mean * (1 - mean), 1e-12) / self.shots)
        return mean, sem


@dataclass(frozen=True)
class ExperimentData:
    x: np.ndarray
    signal: np.ndarray
    sem: np.ndarray
    label: str = ""


def qubit_run(times: np.ndarray, t1: float = np.inf, t2: float = np.inf,
              detuning: float = 0.0, rabi_rate: float = 0.0, dt: float = 1e-2,
              prep: np.ndarray | None = None):
    """The driven qubit in the rotating frame, every characterization run's
    model: H = detuning |1><1| + rabi_rate sigma_x / 2 (rad/ns), decay and
    dephasing from :func:`qubit_collapse_ops`, started in prep |0><0| prep^dag
    (|0><0| when ``prep`` is None).  Returns the :func:`lindblad_evolve`
    result with the excited population as expectation ``"p1"``.
    """
    h = detuning * N_Q + 0.5 * rabi_rate * SIGMA_X.entries
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    if prep is not None:
        rho0 = prep @ rho0 @ prep.conj().T
    return lindblad_evolve(h, rho0, qubit_collapse_ops(t1, t2), times=times,
                           dt=dt, e_ops={"p1": N_Q})


# ---------------------------------------------------------------------------
# Spectroscopy
# ---------------------------------------------------------------------------

def resonator_response(p: JCParams, qubit_state: str, omega: np.ndarray) -> np.ndarray:
    """Complex transmission of the dispersively shifted readout resonator.

    Lorentzian line S(w) = (kappa/2) / (kappa/2 + i (w - w0)) with
    w0 = omega_r + chi for the qubit in |g> and omega_r - chi in |e>
    (chi = g^2 / Delta_qr), so the two peaks are split by exactly 2 chi.
    The phase runs from +pi/2 through 0 to -pi/2 across the line.
    """
    if qubit_state not in ("g", "e"):
        raise ValueError("qubit_state must be 'g' or 'e'")
    if p.g > 0 and not p.is_dispersive:
        raise DispersiveLimitError("resonator_response requires the dispersive limit")
    if p.kappa <= 0:
        raise ValueError("resonator linewidth kappa must be > 0")
    chi = p.g**2 / p.detuning if p.g > 0 else 0.0
    w0 = p.omega_r + chi if qubit_state == "g" else p.omega_r - chi
    omega = np.asarray(omega, dtype=float)
    return (p.kappa / 2) / (p.kappa / 2 + 1j * (omega - w0))


def two_tone_scan(
    omega_q: float,
    t1: float,
    t2: float,
    drive_rate: float,
    omega_d: np.ndarray,
    chi: float = 0.0,
    settle: float = 8.0,
    dt: float | None = None,
) -> np.ndarray:
    """Steady-state excited population versus drive frequency (GHz grid).

    Runs the rotating-frame Lindblad model per drive point until ~settle
    transverse lifetimes have passed.  ``drive_rate`` is the Rabi rate in
    rad/ns; linearity requires the saturation parameter
    s = drive_rate^2 T1 T2 << 1 (warned above 0.5).  When the qubit is
    measured through its resonator the line sits at the Lamb-shifted
    frequency omega_q - chi; passing ``chi`` applies that convention.
    T2 follows :func:`effective_t2`; the window needs a finite T1 or T2.
    """
    t2 = effective_t2(t1, t2)
    if not np.isfinite(t2):
        raise ValueError("two_tone_scan needs a finite T1 or T2 (window settle * T2)")
    s = drive_rate**2 * t1 * t2
    if s > 0.5:
        warnings.warn(
            f"saturation parameter {s:.2f} leaves the linear-response regime",
            stacklevel=2,
        )
    peak = omega_q - chi
    times = np.array([0.0, settle * t2])
    if dt is None:
        dt = min(t2 / 200.0, 0.5)
    return np.array([qubit_run(times, t1, t2, to_angular(peak - wd), drive_rate,
                               dt).expectations["p1"][-1]
                     for wd in np.asarray(omega_d, dtype=float)])


# ---------------------------------------------------------------------------
# Time-domain experiments
# ---------------------------------------------------------------------------

def run_rabi(rabi_rate: float, taus: np.ndarray, t1: float = np.inf,
             t2: float = np.inf, readout: ReadoutModel = ReadoutModel(),
             seed: int = 0, dt: float | None = None) -> ExperimentData:
    """Drive-length sweep: excited population after driving for each tau.

    ``rabi_rate`` is angular (rad/ns).  The drive is resonant and static,
    so one evolution sampled at every tau reproduces the pulsed experiment
    exactly.
    """
    taus = np.asarray(taus, dtype=float)
    if dt is None:
        dt = min(0.05 / max(rabi_rate / (2 * np.pi), 1e-6), 1.0)
    p1 = qubit_run(taus, t1, t2, rabi_rate=rabi_rate, dt=dt).expectations["p1"]
    rng = np.random.default_rng(seed)
    return ExperimentData(taus, *readout.sample(p1, rng), "rabi")


def run_t1(taus: np.ndarray, t1: float, t2: float = np.inf,
           readout: ReadoutModel = ReadoutModel(), seed: int = 0,
           pi_pulse_error: float = 0.0, dt: float | None = None) -> ExperimentData:
    """Inversion-recovery: pi pulse, wait tau, read the excited population.

    The default T2 = inf adds no pure dephasing, i.e. T2 = 2 T1.
    ``pi_pulse_error`` rotates by pi(1 - error) to model the miscalibration
    left over from the preceding Rabi calibration.
    """
    taus = np.asarray(taus, dtype=float)
    u = rotation_operator("x", np.pi * (1.0 - pi_pulse_error)).entries
    if dt is None:
        dt = t1 / 200.0
    p1 = qubit_run(taus, t1, t2, dt=dt, prep=u).expectations["p1"]
    rng = np.random.default_rng(seed)
    return ExperimentData(taus, *readout.sample(p1, rng), "t1")


def run_ramsey(taus: np.ndarray, t1: float, t2: float, detuning: float,
               readout: ReadoutModel = ReadoutModel(), seed: int = 0,
               dt: float | None = None) -> ExperimentData:
    """Ramsey fringes: pi/2, free evolution at ``detuning`` (GHz), -pi/2.

    The free evolution is simulated once; the closing pi/2 rotation is
    applied to a copy of the state at every sampled tau.
    """
    taus = np.asarray(taus, dtype=float)
    c = 1 / np.sqrt(2)
    u_half = np.array([[c, -1j * c], [-1j * c, c]])        # R_x(pi/2)
    u_back = u_half.conj().T                               # R_x(-pi/2)
    if dt is None:    # T2 is at most 2 T1, and an infinite T2 means 2 T1
        dt = min(t2 / 200.0, t1 / 100.0, 0.05 / max(abs(detuning), 1e-6))
    res = qubit_run(taus, t1, t2, to_angular(detuning), dt=dt, prep=u_half)
    p1 = [(u_back @ state.entries @ u_back.conj().T)[1, 1].real
          for state in res.states]
    rng = np.random.default_rng(seed)
    return ExperimentData(taus, *readout.sample(p1, rng), "ramsey")


def projective_readout(rho: np.ndarray, rng,
                       model: ReadoutModel = ReadoutModel()) -> tuple[int, np.ndarray]:
    """Sample a projective qubit measurement and collapse the state.

    The collapse is ideal (QND): repeating the measurement reproduces the
    outcome.  Misassignment affects only the *reported* bit.
    """
    p1 = float(np.real(rho[1, 1]))
    actual = 1 if rng.random() < p1 else 0
    post = np.zeros_like(rho)
    post[actual, actual] = 1.0
    reported = actual
    if actual == 0 and rng.random() < model.eps01:
        reported = 1
    elif actual == 1 and rng.random() < model.eps10:
        reported = 0
    return reported, post


# ---------------------------------------------------------------------------
# Curve fitting
# ---------------------------------------------------------------------------

def _lm_fit(model, jac, x, y, p0, names) -> FitResult:
    from scipy.optimize import least_squares
    try:
        sol = least_squares(
            lambda p: model(p, x) - y, p0, jac=lambda p: jac(p, x), method="lm",
            max_nfev=20000,
        )
    except Exception:
        return FitResult({n: np.nan for n in names}, {n: np.inf for n in names},
                         np.inf, False)
    res = sol.fun
    m, n = len(x), len(p0)
    dof = max(m - n, 1)
    s2 = float(res @ res) / dof
    jtj = sol.jac.T @ sol.jac
    cov = np.linalg.pinv(jtj) * s2
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    params = dict(zip(names, (float(v) for v in sol.x)))
    sigmas = dict(zip(names, (float(v) for v in sig)))
    return FitResult(params, sigmas, float(np.linalg.norm(res)), bool(sol.success),
                     int(sol.nfev))


def _fft_frequency(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Dominant angular frequency of a uniformly sampled series and its FFT
    bin (DC excluded, so the bin is at least 1)."""
    n = len(x)
    dt = x[1] - x[0]
    spec = np.abs(np.fft.rfft(y - np.mean(y)))
    freqs = np.fft.rfftfreq(n, dt)
    k = 1 + int(np.argmax(spec[1:]))
    return 2 * np.pi * freqs[k], k


def _bic(fit: FitResult, n: int, k: int, rss_floor: float) -> float:
    """Bayesian information criterion n ln(RSS/n) + k ln n of a least-squares
    fit with k parameters; RSS is floored so round-off cannot decide."""
    rss = max(fit.residual_norm ** 2, rss_floor)
    return n * np.log(rss / n) + k * np.log(n)


def _series(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays: 1-D, of one length, at least 8 points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x, y must be 1-D of one length, got {x.shape}, {y.shape}")
    if len(x) < 8:
        raise ValueError("need at least 8 points")
    return x, y


def fit_rabi(x: np.ndarray, y: np.ndarray) -> FitResult:
    """A0 + A1 cos(Omega t + A2) exp(-t / T_R); Omega seeded from the FFT.

    The FFT peak (DC excluded) seeds Omega.  In bin 2 or higher the
    oscillating fit is returned as it comes.  In bin 1 (at most about 1.5
    periods in the window) the FFT cannot tell an oscillation from a pure
    decay, so the decay-only model of ``fit_t1`` is fitted as well, and the
    oscillating fit is kept only if it converged, has T_R > 0 and has the
    lower Bayesian information criterion, n ln(RSS/n) + k ln n with k = 5
    against k = 3.  RSS is floored at n (1e-10 peak-to-peak(y))^2, so a tie
    between two fits at round-off goes to the decay model.  An oscillating
    fit with T_R <= 0 is thus never returned from bin 1.  Otherwise the
    result is the decay-only branch with Omega = A2 = 0 (and zero sigmas
    for both), so the phase degeneracy of pure-decay data cannot blow up
    the uncertainties.  That branch is ``fit_t1``'s fit as it comes; on
    oscillating data that the oscillating fit missed, its T_R need not be
    physical either.

    Windows of 0.5 to 1 period are not settled: a decay can fit such a
    stretch of cosine almost as well as the oscillating model, so either
    branch may win, and an oscillating fit there may not recover Omega.
    """
    x, y = _series(x, y)
    omega0, peak_bin = _fft_frequency(x, y)
    span = x[-1] - x[0]

    def model(p, t):
        a0, a1, a2, w, tr = p
        return a0 + a1 * np.cos(w * t + a2) * np.exp(-t / tr)

    def jac(p, t):
        a0, a1, a2, w, tr = p
        e = np.exp(-t / tr)
        c = np.cos(w * t + a2)
        s = np.sin(w * t + a2)
        return np.stack([
            np.ones_like(t),
            c * e,
            -a1 * s * e,
            -a1 * t * s * e,
            a1 * c * e * t / tr**2,
        ], axis=1)

    p0 = [float(np.mean(y)), float((np.max(y) - np.min(y)) / 2), np.pi,
          omega0, span]
    names = ["a0", "a1", "a2", "omega", "t_r"]
    osc = _lm_fit(model, jac, x, y, p0, names)
    if peak_bin > 1:
        return osc
    dec = fit_t1(x, y)
    n = len(x)
    floor = max(n * (1e-10 * float(np.ptp(y))) ** 2, np.finfo(float).tiny)
    if (osc.converged and osc.params["t_r"] > 0
            and _bic(osc, n, 5, floor) < _bic(dec, n, 3, floor)):
        return osc
    params, sigmas = ({"a0": d["a0"], "a1": d["a1"], "a2": 0.0, "omega": 0.0,
                       "t_r": d["t1"]} for d in (dec.params, dec.sigmas))
    return FitResult(params, sigmas, dec.residual_norm, dec.converged)


def fit_t1(x: np.ndarray, y: np.ndarray) -> FitResult:
    """A0 + A1 exp(-t / T1), seeded from the log-linear slope."""
    x, y = _series(x, y)
    a0 = float(y[-1])
    a1 = float(y[0] - a0)
    resid = np.abs(y - a0)
    good = resid > max(1e-12, 0.05 * np.max(resid))
    if np.count_nonzero(good) >= 2:
        slope = np.polyfit(x[good], np.log(resid[good]), 1)[0]
        t10 = -1.0 / slope if slope < 0 else (x[-1] - x[0])
    else:
        t10 = x[-1] - x[0]
    t10 = float(np.clip(t10, (x[1] - x[0]) / 10, 1e6 * (x[-1] - x[0] + 1)))

    def model(p, t):
        return p[0] + p[1] * np.exp(-t / p[2])

    def jac(p, t):
        e = np.exp(-t / p[2])
        return np.stack([np.ones_like(t), e, p[1] * e * t / p[2] ** 2], axis=1)

    return _lm_fit(model, jac, x, y, [a0, a1, t10], ["a0", "a1", "t1"])


def fit_ramsey(x: np.ndarray, y: np.ndarray) -> FitResult:
    """A0 + A1 cos(omega_qd t + A2) exp(-t / T2): the Rabi form, renamed."""
    res = fit_rabi(x, y)
    new = {"omega": "omega_qd", "t_r": "t2"}
    params, sigmas = ({new.get(k, k): v for k, v in d.items()}
                      for d in (res.params, res.sigmas))
    return FitResult(params, sigmas, res.residual_norm, res.converged)


def fit_ramsey_gaussian(x: np.ndarray, y: np.ndarray, t1: float) -> FitResult:
    """A0 + A1 exp(-t^2 / T_G^2) exp(-t / 2 T1) with T1 fixed, not fitted.

    The Gaussian envelope models dephasing dominated by low-frequency
    noise; T1 must come from an independent measurement.
    """
    x, y = _series(x, y)
    if not np.isfinite(t1) or t1 <= 0:
        raise ValueError("a measured, finite T1 is required")
    a0 = float(y[-1])
    a1 = float(y[0] - a0)
    # crude width seed: where the excess over a0 falls to 1/e of its start
    excess = np.abs(y - a0)
    thresh = excess[0] / np.e
    below = np.nonzero(excess < thresh)[0]
    tg0 = float(x[below[0]]) if len(below) else float(x[-1] / 2)
    tg0 = max(tg0, (x[1] - x[0]))

    def model(p, t):
        return p[0] + p[1] * np.exp(-(t / p[2]) ** 2) * np.exp(-t / (2 * t1))

    def jac(p, t):
        g = np.exp(-(t / p[2]) ** 2) * np.exp(-t / (2 * t1))
        return np.stack([
            np.ones_like(t),
            g,
            p[1] * g * 2 * t**2 / p[2] ** 3,
        ], axis=1)

    return _lm_fit(model, jac, x, y, [a0, a1, tg0], ["a0", "a1", "t_g"])


# ---------------------------------------------------------------------------
# Single-qubit Clifford group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clifford1Q:
    """One Clifford element with its canonical {H, S} word.

    The word reads in circuit order: "HS" applies H first, then S, i.e.
    matrix = S @ H.
    """

    op: Operator
    word: str


def _phase_key(m: np.ndarray) -> tuple:
    # normalize the global phase on the first clearly nonzero entry
    # (Clifford entries have magnitude 0, 1/sqrt2, or 1, so a 0.3 threshold
    # is immune to the float noise that breaks argmax ties)
    flat = m.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 0.3))
    nrm = flat[idx]
    canon = m * (abs(nrm) / nrm)
    return tuple(np.round(canon.reshape(-1), 8).tolist())


def clifford_1q() -> list[Clifford1Q]:
    """All 24 single-qubit Cliffords generated by H and S.

    Breadth-first over words, deduplicated up to global phase, so every
    element carries its shortest generator word (ties: lexicographic).
    """
    found = {}
    frontier = [("", np.eye(2, dtype=complex))]
    found[_phase_key(np.eye(2, dtype=complex))] = ("", np.eye(2, dtype=complex))
    while frontier and len(found) < 24:
        nxt = []
        for word, m in sorted(frontier, key=lambda t: t[0]):
            for gname, g in (("H", H_GATE.entries), ("S", S_GATE.entries)):
                w2 = word + gname
                m2 = g @ m
                key = _phase_key(m2)
                if key not in found:
                    found[key] = (w2, m2)
                    nxt.append((w2, m2))
        frontier = nxt
    elems = sorted(found.values(), key=lambda t: (len(t[0]), t[0]))
    assert len(elems) == 24
    return [Clifford1Q(Operator(m, unitary=True), w) for w, m in elems]


# ---------------------------------------------------------------------------
# Randomized benchmarking
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _clifford_table() -> tuple[np.ndarray, np.ndarray]:
    """Multiplication table of :func:`clifford_1q` and each element's inverse.

    ``table[a, b]`` is the index of the element applying a, then b (matrix
    M_b @ M_a up to phase); ``inverse[a]`` is the b with ``table[a, b] == 0``,
    the identity.
    """
    mats = [c.op.entries for c in clifford_1q()]
    index = {_phase_key(m): i for i, m in enumerate(mats)}
    table = np.array([[index[_phase_key(mb @ ma)] for mb in mats] for ma in mats])
    inverse = np.argmax(table == 0, axis=1)
    table.setflags(write=False)           # shared by every caller of the cache
    inverse.setflags(write=False)
    return table, inverse


def _ptm(u: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix of a unitary on (I, X, Y, Z)/sqrt-free basis."""
    paulis = [PAULIS[l].entries for l in "IXYZ"]
    r = np.empty((4, 4))
    for i, pi in enumerate(paulis):
        for j, pj in enumerate(paulis):
            r[i, j] = 0.5 * np.real(np.trace(pi @ u @ pj @ u.conj().T))
    return r


@lru_cache(maxsize=None)
def _clifford_ptms() -> np.ndarray:
    """Read-only (24, 4, 4) stack of the :func:`_ptm` of each element of
    :func:`clifford_1q`, built on first use.

    Each is a signed permutation up to round-off (<= 4.4e-16).  Rounding them
    would make every noiseless survival curve exactly constant, and where the
    decay fit of a constant curve lands depends on that round-off."""
    ptms = np.array([_ptm(np.asarray(c.op.entries)) for c in clifford_1q()])
    ptms.setflags(write=False)
    return ptms


def depolarizing_ptm(rate: float) -> np.ndarray:
    """PTM of the depolarizing channel with average infidelity ``rate``.

    rho -> (1 - lam) rho + lam I/2 with lam = 2 * rate (for d = 2), so the
    RB decay parameter of this channel is p = 1 - lam.
    """
    lam = 2.0 * rate
    if not 0 <= lam <= 4 / 3:
        raise ValueError("depolarizing rate out of range")
    return np.diag([1.0, 1 - lam, 1 - lam, 1 - lam])


def t1t2_ptm(t1: float, t2: float, gate_time: float) -> np.ndarray:
    """Affine PTM of amplitude damping toward |0> plus dephasing, with the
    T2 rule of :func:`effective_t2`: an infinite T2 means T2 = 2 T1."""
    ez = np.exp(-gate_time / t1)
    et = np.exp(-gate_time / effective_t2(t1, t2))
    m = np.diag([1.0, et, et, ez])
    m[3, 0] = 1.0 - ez           # relax toward z = +1 (ground = |0>)
    return m


@dataclass(frozen=True)
class RBConfig:
    """Randomized-benchmarking run description.

    ``error`` is either {'depolarizing': rate} or
    {'t1': ns, 't2': ns, 'gate_time': ns}; it is applied after every
    random Clifford including the closing inversion.  ``interleaved``
    names the gate of interest by its index in :func:`clifford_1q`;
    ``interleaved_error`` (same form as ``error``; default none) models
    that gate's own noise.  ``eps01`` = P(report 1 | qubit in 0) and
    ``eps10`` = P(report 0 | qubit in 1) are the readout misassignment
    rates, as in :class:`ReadoutModel`.
    """

    lengths: tuple
    sequences_per_length: int = 30
    shots: int = 200
    error: dict = field(default_factory=dict)
    interleaved: int | None = None
    interleaved_error: dict | None = None
    eps01: float = 0.0
    eps10: float = 0.0
    prep_error: float = 0.0
    seed: int = 0

    def __post_init__(self):
        ls = tuple(int(m) for m in self.lengths)
        if len(set(ls)) != len(ls) or any(m < 1 for m in ls):
            raise ValueError("lengths must be distinct integers >= 1")
        object.__setattr__(self, "lengths", ls)
        if self.sequences_per_length < 1:
            raise ValueError(f"sequences_per_length must be >= 1, "
                             f"got {self.sequences_per_length!r}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots!r}")
        if self.interleaved is not None and not (
                isinstance(self.interleaved, (int, np.integer))
                and 0 <= self.interleaved < 24):
            raise ValueError(f"interleaved must be None or a Clifford index in "
                             f"0..23, got {self.interleaved!r}")
        for name in ("eps01", "eps10", "prep_error"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")


def _error_ptm(spec: dict) -> np.ndarray:
    if not spec:
        return np.eye(4)
    if "depolarizing" in spec:
        return depolarizing_ptm(spec["depolarizing"])
    return t1t2_ptm(spec["t1"], spec["t2"], spec["gate_time"])


@dataclass(frozen=True)
class RBResult:
    lengths: np.ndarray
    survival: np.ndarray
    sem: np.ndarray
    a: float
    p: float
    b: float
    r: float
    r_sigma: float
    fit: FitResult
    stats: dict     # fit_converged, fit_nfev, flat_curve, cliffords (random gates)


def _rb_survival(cfg: RBConfig, interleave: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mean survival and its standard error at each length.

    Draw order: each length draws from its own child of
    ``SeedSequence(cfg.seed)``; each of its sequences draws its Clifford
    picks (``rng.integers``), then its shots (``rng.binomial``), before the
    next sequence draws, so the shot stream is that of one sequence at a time.

    A sequence is one composite map.  The step maps of its picks (E·P_g, or
    (E_i·P_i)·E·P_g in an interleaved run), padded with the identity to a
    power of two, are multiplied pairwise, later map on the left, in
    ceil(log2 m) batched matmuls, and its composite Clifford index is folded
    over the multiplication table by the same tree.  The closing map
    E·P_inverse and one mat-vec on the prepared state follow.
    """
    ptms = _clifford_ptms()
    table, inverse = _clifford_table()
    close = _error_ptm(cfg.error) @ ptms           # E·P_g, also the closing map
    step = close
    gidx = np.arange(24)                           # Clifford index of step g
    if interleave:
        step = (_error_ptm(cfg.interleaved_error or {}) @ ptms[cfg.interleaved]) @ step
        gidx = table[:, cfg.interleaved]
    # index 24 pads a sequence to a power of two: the identity map and index 0
    step = np.concatenate((step, np.eye(4)[None]))
    gidx = np.append(gidx, 0)

    # prep: |0> with optional classical preparation error
    v0 = np.array([1.0, 0.0, 0.0, 1.0 - 2.0 * cfg.prep_error])
    seqs = np.random.SeedSequence(entropy=cfg.seed)
    children = seqs.spawn(len(cfg.lengths))
    means = np.empty(len(cfg.lengths))
    sems = np.empty(len(cfg.lengths))
    for li, m in enumerate(cfg.lengths):
        rng = np.random.default_rng(children[li])
        vals = np.empty(cfg.sequences_per_length)
        padded = np.full(1 << (m - 1).bit_length(), 24)
        for s in range(cfg.sequences_per_length):
            padded[:m] = rng.integers(0, 24, size=m)
            maps, acc = step[padded], gidx[padded]
            while len(maps) > 1:
                maps = maps[1::2] @ maps[0::2]
                acc = table[acc[0::2], acc[1::2]]
            v = close[inverse[acc[0]]] @ (maps[0] @ v0)
            p1 = 0.5 * (1.0 - v[3])
            q = (1 - cfg.eps01) * (1 - p1) + cfg.eps10 * p1   # observed P(0)
            q = float(np.clip(q, 0.0, 1.0))
            if cfg.shots:
                vals[s] = rng.binomial(cfg.shots, q) / cfg.shots
            else:
                vals[s] = q
        means[li] = vals.mean()
        sems[li] = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return means, sems


def fit_rb_decay(lengths, survival, sem=None) -> FitResult:
    """Weighted fit of A p^m + B (inverse-variance weights from shot noise)."""
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(survival, dtype=float)
    if sem is None or np.all(np.asarray(sem) <= 0):
        w = np.ones_like(y)
    else:
        s = np.asarray(sem, dtype=float)
        floor = max(np.min(s[s > 0], initial=1e-3), 1e-4)
        w = 1.0 / np.clip(s, floor, None)
    b0 = float(np.clip(y[-1], 0.0, 1.0)) if y[-1] < 0.9 else 0.5
    a0 = float(np.clip(y[0] - b0, 1e-3, 1.0))
    decayed = np.clip((y - b0) / a0, 1e-6, None)
    slope = np.polyfit(m, np.log(decayed), 1)[0]
    p0 = float(np.clip(np.exp(slope), 1e-4, 0.99999))

    def model(p, t):
        return (p[0] * p[1] ** t + p[2]) * w

    def jac(p, t):
        pt = p[1] ** t
        return np.stack([pt, p[0] * t * p[1] ** (t - 1), np.ones_like(t)],
                        axis=1) * w[:, None]

    return _lm_fit(model, jac, m, y * w, [a0, p0, b0], ["a", "p", "b"])


def _rb_decay(cfg: RBConfig, survival, sem,
              name: str) -> tuple[FitResult, float, dict]:
    """:func:`fit_rb_decay` and its decay parameter, which must lie in
    (0, 1]; a flat zero-noise decay fits p = 1 + fuzz and is clipped to 1.
    A constant curve (equal up to round-off, peak-to-peak <= 1e-12) does not
    identify p in A p^m + B, so where its fit lands outside (0, 1] it is
    reported as p = 1 with the fit marked not converged (``flat_curve`` in
    the stats); any other curve raises :class:`FitQualityError`.
    """
    fit = fit_rb_decay(cfg.lengths, survival, sem)
    p = fit.params["p"]
    flat = not 0.0 < p <= 1.0 + 1e-6
    if flat:
        if np.ptp(survival) > 1e-12:
            raise FitQualityError(f"{name} = {p!r} outside (0, 1]")
        fit = replace(fit, params={**fit.params, "p": 1.0}, converged=False)
    stats = {"fit_converged": fit.converged, "fit_nfev": fit.nfev, "flat_curve": flat,
             "cliffords": cfg.sequences_per_length * sum(cfg.lengths)}
    return fit, min(fit.params["p"], 1.0), stats


def rb_standard(cfg: RBConfig) -> RBResult:
    """Standard Clifford-group RB: random sequences closed by the exact
    inverse (a Clifford-table lookup), survival fit A p^m + B, and the average
    infidelity r = (d - 1)(1 - p)/d with d = 2.
    """
    means, sems = _rb_survival(cfg, interleave=False)
    fit, p, stats = _rb_decay(cfg, means, sems, "decay parameter p")
    r = 0.5 * (1.0 - p)
    return RBResult(np.asarray(cfg.lengths, float), means, sems,
                    fit.params["a"], p, fit.params["b"], r,
                    0.5 * fit.sigmas["p"], fit, stats)


@dataclass(frozen=True)
class InterleavedRBResult:
    standard: RBResult
    interleaved: RBResult
    p_c: float
    r_c: float
    r_c_sigma: float
    bounds: tuple


def rb_interleaved(cfg: RBConfig) -> InterleavedRBResult:
    """Interleaved RB of the gate named by ``cfg.interleaved``.

    r_C = (d - 1)(1 - p_C / p) / d, with the systematic bounds from the
    stochastic-vs-coherent caveat: coherent interference between the
    interleaved gate's error and the random gates' error can shift p_C, so
    the estimate is only guaranteed within ``bounds``.
    """
    if cfg.interleaved is None:
        raise ValueError("cfg.interleaved must name a Clifford index")
    std = rb_standard(cfg)
    means, sems = _rb_survival(cfg, interleave=True)
    fit, p_c, stats = _rb_decay(cfg, means, sems, "interleaved decay p_C")
    p = std.p
    d = 2.0
    r_c = (d - 1) * (1.0 - p_c / p) / d
    # error propagation through the ratio
    var = (fit.sigmas["p"] / p) ** 2 + (p_c * std.fit.sigmas["p"] / p**2) ** 2
    r_c_sigma = 0.5 * float(np.sqrt(var))
    e1 = (d - 1) * (abs(p - p_c / p) + (1 - p)) / d
    e2 = (
        2 * (d**2 - 1) * (1 - p) / (p * d**2)
        + 4 * np.sqrt(1 - p) * np.sqrt(d**2 - 1) / p
    )
    eps = min(e1, e2)
    inter = RBResult(np.asarray(cfg.lengths, float), means, sems,
                     fit.params["a"], p_c, fit.params["b"], r_c,
                     r_c_sigma, fit, stats)
    return InterleavedRBResult(std, inter, p_c, r_c, r_c_sigma,
                               (r_c - eps, r_c + eps))
