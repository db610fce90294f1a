"""Virtual characterization experiments and randomized benchmarking.

Experiments run on the Lindblad engine (rotating-frame models) and return
plain data series.  Every fitted model is linear in all but one or two
parameters: a fit seeds those on a grid, solving the linear ones in closed
form, and polishes by damped Gauss-Newton, so identical data always
reproduce bit-identical fits.

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
from .dynamics import effective_t2, lindblad_evolve, liouvillian, qubit_collapse_ops
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
    stats: dict = field(default_factory=dict)   # fit_rabi: branch taken, each fit's nfev

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
              detuning: float = 0.0, rabi_rate: float = 0.0,
              prep: np.ndarray | None = None):
    """The driven qubit in the rotating frame, every characterization run's
    model: H = detuning |1><1| + rabi_rate sigma_x / 2 (rad/ns), decay and
    dephasing from :func:`qubit_collapse_ops`, started in prep |0><0| prep^dag
    (|0><0| when ``prep`` is None).  Returns the :func:`lindblad_evolve`
    result with the excited population as expectation ``"p1"``, each
    sample by the exact map of the static H.
    """
    h = detuning * N_Q + 0.5 * rabi_rate * SIGMA_X.entries
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    if prep is not None:
        rho0 = prep @ rho0 @ prep.conj().T
    return lindblad_evolve(h, rho0, qubit_collapse_ops(t1, t2), times=times,
                           e_ops={"p1": N_Q})


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


def two_tone_scan(omega_q: float, t1: float, t2: float, drive_rate: float,
                  omega_d: np.ndarray, chi: float = 0.0) -> np.ndarray:
    """Steady-state excited population versus drive frequency (GHz grid).

    Solves L rho = 0 for :func:`qubit_run`'s model at every drive point,
    with row 0 of each generator :func:`liouvillian` replaced by the trace
    condition tr rho = 1, in one batched linear solve; there is no time
    window.  ``drive_rate`` is the Rabi rate in rad/ns; linearity requires
    the saturation parameter s = drive_rate^2 T1 T2 << 1 (warned above
    0.5).  When the qubit is measured through its resonator the line sits
    at the Lamb-shifted frequency omega_q - chi; passing ``chi`` applies
    that convention.  T2 follows :func:`effective_t2`; a unique steady
    state needs a finite T1 or T2, and a drive when T1 is infinite.
    """
    t2 = effective_t2(t1, t2)
    if not np.isfinite(t2) or not (np.isfinite(t1) or drive_rate):
        raise ValueError("two_tone_scan needs a finite T1 or T2, and a drive when T1 "
                         "is infinite (no unique steady state)")
    s = drive_rate**2 * t1 * t2
    if s > 0.5:
        warnings.warn(
            f"saturation parameter {s:.2f} leaves the linear-response regime",
            stacklevel=2,
        )
    delta = to_angular(omega_q - chi - np.asarray(omega_d, dtype=float))
    gen = (liouvillian(0.5 * drive_rate * SIGMA_X, qubit_collapse_ops(t1, t2))
           + delta[:, None, None] * liouvillian(N_Q))
    gen[:, 0] = np.eye(2).reshape(-1)
    return np.linalg.solve(gen, np.eye(4)[:, :1])[:, 3, 0].real


# ---------------------------------------------------------------------------
# Time-domain experiments
# ---------------------------------------------------------------------------

def run_rabi(rabi_rate: float, taus: np.ndarray, t1: float = np.inf,
             t2: float = np.inf, readout: ReadoutModel = ReadoutModel(),
             seed: int = 0) -> ExperimentData:
    """Drive-length sweep: excited population after driving for each tau.

    ``rabi_rate`` is angular (rad/ns).  The drive is resonant and static,
    so one evolution sampled at every tau reproduces the pulsed experiment
    exactly.
    """
    taus = np.asarray(taus, dtype=float)
    p1 = qubit_run(taus, t1, t2, rabi_rate=rabi_rate).expectations["p1"]
    rng = np.random.default_rng(seed)
    return ExperimentData(taus, *readout.sample(p1, rng), "rabi")


def run_t1(taus: np.ndarray, t1: float, t2: float = np.inf,
           readout: ReadoutModel = ReadoutModel(), seed: int = 0,
           pi_pulse_error: float = 0.0) -> ExperimentData:
    """Inversion-recovery: pi pulse, wait tau, read the excited population.

    The default T2 = inf adds no pure dephasing, i.e. T2 = 2 T1.
    ``pi_pulse_error`` rotates by pi(1 - error) to model the miscalibration
    left over from the preceding Rabi calibration.
    """
    taus = np.asarray(taus, dtype=float)
    u = rotation_operator("x", np.pi * (1.0 - pi_pulse_error)).entries
    p1 = qubit_run(taus, t1, t2, prep=u).expectations["p1"]
    rng = np.random.default_rng(seed)
    return ExperimentData(taus, *readout.sample(p1, rng), "t1")


def run_ramsey(taus: np.ndarray, t1: float, t2: float, detuning: float,
               readout: ReadoutModel = ReadoutModel(), seed: int = 0) -> ExperimentData:
    """Ramsey fringes: pi/2, free evolution at ``detuning`` (GHz), -pi/2.

    The free evolution is simulated once; the closing pi/2 rotation is
    applied to the states at every sampled tau as one stacked product.
    """
    taus = np.asarray(taus, dtype=float)
    c = 1 / np.sqrt(2)
    u_half = np.array([[c, -1j * c], [-1j * c, c]])        # R_x(pi/2)
    u_back = u_half.conj().T                               # R_x(-pi/2)
    res = qubit_run(taus, t1, t2, to_angular(detuning), prep=u_half)
    rhos = np.array([state.entries for state in res.states])
    p1 = (u_back @ rhos @ u_back.conj().T)[:, 1, 1].real
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

_FLAT = 1e-12       # peak-to-peak at or below which a series is fitted by no model


def _projected(cols: np.ndarray, y: np.ndarray) -> tuple[int, np.ndarray]:
    """Index and coefficients c of the best of g grid points (Golub & Pereyra,
    SIAM J. Numer. Anal. 10 (1973) 413): one batched solve of (B^T B) c = B^T y
    = b over the bases ``cols`` (g, n, k), projected RSS y^T y - c^T b."""
    bt = cols.transpose(0, 2, 1)
    b = bt @ y
    c = np.linalg.solve(bt @ cols, b[..., None])[..., 0]
    i = int(np.argmin(y @ y - np.einsum("gi,gi->g", c, b)))
    return i, c[i]


def _unit_columns(jac: np.ndarray):
    """(J / D, D) with D the column norms of J (a zero column kept at zero)."""
    d = np.maximum(np.sqrt(np.einsum("ij,ij->j", jac, jac)), np.finfo(float).tiny)
    return jac / d, d


def _fit(fun, y: np.ndarray, p, names, report) -> FitResult:
    """Damped Gauss-Newton (Marquardt, J. SIAM 11 (1963) 431) from p on
    ``fun(p)`` = (model, Jacobian), columns scaled to unit norm by D: a step
    (J_s^T J_s + lam I) s = J_s^T r is taken (lam / 10) unless it raises the
    RSS past its round-off 1e-15 |y| |r| (lam * 10), until the undamped step
    is within 1e-10 of D p, or 200 steps (not converged).  The last parameter
    k is reported as ``report(k)`` = (value, slope).  Sigmas are sqrt(diag(
    pinv(J_s^T J_s)) s^2) / D at the solution, with J_s = J / D, so a poorly
    scaled parameter is not cut off by pinv's relative threshold."""
    p = np.asarray(p, dtype=float)
    f, jac = fun(p)
    r = y - f
    rss, lam, nfev, converged = r @ r, 1e-3, 1, False
    with np.errstate(all="ignore"):     # an overflowing trial is not taken; sv = 0 is masked
        while nfev <= 200 and not converged:
            js, d = _unit_columns(jac)
            u, sv, vt = np.linalg.svd(js, full_matrices=False)
            ur = u.T @ r
            gn = (ur / sv)[sv > 1e-15 * sv[0]]
            converged = gn @ gn <= 1e-20 * ((d * p) @ (d * p))
            trial = p + vt.T @ (sv * ur / (sv**2 + lam)) / d
            f, jac_t = fun(trial)
            nfev += 1
            r_t = y - f
            if r_t @ r_t <= rss + 1e-15 * np.sqrt((y @ y) * rss):
                p, jac, r, rss, lam = trial, jac_t, r_t, r_t @ r_t, lam / 10
            else:
                lam *= 10
    p[-1], slope = report(p[-1])
    jac[:, -1] /= slope
    s2 = rss / max(len(y) - len(p), 1)
    js, d = _unit_columns(jac)
    sig = np.sqrt(np.clip(np.diag(np.linalg.pinv(js.T @ js)) * s2, 0.0, None)) / d
    return FitResult(dict(zip(names, map(float, p))), dict(zip(names, map(float, sig))),
                     float(np.sqrt(rss)), bool(converged), nfev)


def _time(k):
    return 1 / k, -1 / k**2         # a rate reported as its time constant, and the slope


def _exp_fit(h: np.ndarray, y: np.ndarray, names, report, env=1.0, w=1.0) -> FitResult:
    """(a0 + a1 env exp(-k h)) w fitted to y w by :func:`_fit`, seeded at the best
    of 24 rates k over 0.01-100 per span of h (basis from h.min(): no underflow)."""
    wc = np.asarray(w, dtype=float)[..., None]
    k = np.logspace(-2, 2, 24) / np.ptp(h)
    g = env * np.exp(-k[:, None] * (h - h.min()))
    i, (a0, a1) = _projected(np.stack([np.ones_like(g), g], axis=2) * wc, y * w)

    def fun(p):
        g = env * np.exp(-p[2] * h)
        return (p[0] + p[1] * g) * w, np.array([np.ones_like(g), g, -p[1] * h * g]).T * wc

    return _fit(fun, y * w, [a0, a1 * np.exp(-k[i] * h.min()), k[i]], names, report)


def _flat(y: np.ndarray, names, values, converged: bool = True) -> FitResult:
    """Unfitted result: the values, zero sigmas, the residual about the mean."""
    return FitResult(dict(zip(names, map(float, values))), dict.fromkeys(names, 0.0),
                     float(np.linalg.norm(y - np.mean(y))), converged)


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
    """x and y as float arrays: 1-D, of one length, at least 8 finite points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x, y must be 1-D of one length, got {x.shape}, {y.shape}")
    if len(x) < 8:
        raise ValueError("need at least 8 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x, y must be finite")
    return x, y


def fit_rabi(x: np.ndarray, y: np.ndarray) -> FitResult:
    """A0 + A1 cos(Omega t + A2) exp(-t / T_R), linear in A0, c = A1 cos A2
    and s = -A1 sin A2: seeded at the best of 7 x 8 points (Omega > 0 within
    a bin of the DC-excluded FFT peak, 1/T_R over 0.01-100 per span) and
    polished by :func:`_fit`.  From FFT bin 2 up that fit is returned.  In
    bin 1 (at most ~1.5 periods) ``fit_t1`` runs too, and the oscillating fit
    is kept only if it converged, has T_R > 0 and the lower BIC n ln(RSS/n) +
    k ln n (k = 5 against 3; RSS floored at n (1e-10 peak-to-peak(y))^2, so
    a round-off tie goes to the decay); else ``fit_t1``'s fit is returned
    with Omega = A2 = 0, sigmas 0; from 0.5 to 1 period either may win.
    ``nfev`` is the returned fit's; ``stats`` names the returned ``branch``
    ("oscillating" or "decay") and holds each fit's evaluations
    (``oscillating_nfev``, and ``decay_nfev`` in bin 1).  A series flat to
    1e-12 is not fitted: A0 its mean, T_R the span, others 0, no stats."""
    x, y = _series(x, y)
    names = ["a0", "a1", "a2", "omega", "t_r"]
    if np.ptp(y) <= _FLAT:
        return _flat(y, names, [np.mean(y), 0.0, 0.0, 0.0, np.ptp(x)])
    omega0, peak_bin = _fft_frequency(x, y)
    w = omega0 * (1 + np.linspace(-1, 1, 7) / peak_bin)      # within one FFT bin
    w, k, t = w[w > 0], np.logspace(-2, 2, 8) / np.ptp(x), x - x[0]   # t: no underflow
    e, wt = np.exp(-np.outer(k, t)), np.outer(w, t)
    cols = np.ones((len(w), len(k), len(t), 3))
    cols[..., 1], cols[..., 2] = np.cos(wt)[:, None] * e, np.sin(wt)[:, None] * e
    i, (a0, c, s) = _projected(cols.reshape(-1, len(t), 3), y)
    w, k = w[i // len(k)], k[i % len(k)]

    def damped_cosine(p):
        offset, a1, a2, omega, rate = p
        e = np.exp(-rate * x)
        c, s = np.cos(omega * x + a2) * e, -a1 * np.sin(omega * x + a2) * e
        return offset + a1 * c, np.array([np.ones_like(x), c, s, x * s, -a1 * x * c]).T

    seed = [a0, np.hypot(c, s) * np.exp(k * x[0]), np.arctan2(-s, c) - w * x[0], w, k]
    osc = _fit(damped_cosine, y, seed, names, _time)
    if peak_bin > 1:
        return replace(osc, stats={"branch": "oscillating", "oscillating_nfev": osc.nfev})
    dec = fit_t1(x, y)
    n = len(x)
    floor = max(n * (1e-10 * float(np.ptp(y))) ** 2, np.finfo(float).tiny)
    stats = {"oscillating_nfev": osc.nfev, "decay_nfev": dec.nfev}
    if (osc.converged and osc.params["t_r"] > 0
            and _bic(osc, n, 5, floor) < _bic(dec, n, 3, floor)):
        return replace(osc, stats={"branch": "oscillating", **stats})
    params, sigmas = ({"a0": d["a0"], "a1": d["a1"], "a2": 0.0, "omega": 0.0,
                       "t_r": d["t1"]} for d in (dec.params, dec.sigmas))
    return FitResult(params, sigmas, dec.residual_norm, dec.converged, dec.nfev,
                     {"branch": "decay", **stats})


def fit_t1(x: np.ndarray, y: np.ndarray) -> FitResult:
    """A0 + A1 exp(-t / T1) by :func:`_exp_fit`.  A series flat to 1e-12 is
    not fitted: A0 is its mean, A1 = 0, T1 the span, sigmas 0."""
    x, y = _series(x, y)
    names = ["a0", "a1", "t1"]
    if np.ptp(y) <= _FLAT:
        return _flat(y, names, [np.mean(y), 0.0, np.ptp(x)])
    return _exp_fit(x, y, names, _time)


def fit_ramsey(x: np.ndarray, y: np.ndarray) -> FitResult:
    """A0 + A1 cos(omega_qd t + A2) exp(-t / T2): the Rabi form, renamed."""
    res = fit_rabi(x, y)
    new = {"omega": "omega_qd", "t_r": "t2"}
    params, sigmas = ({new.get(k, k): v for k, v in d.items()}
                      for d in (res.params, res.sigmas))
    return FitResult(params, sigmas, res.residual_norm, res.converged, res.nfev, res.stats)


def fit_ramsey_gaussian(x: np.ndarray, y: np.ndarray, t1: float) -> FitResult:
    """A0 + A1 exp(-t^2 / T_G^2) exp(-t / 2 T1) with T1 fixed, not fitted:
    :func:`_exp_fit` in t^2.  The Gaussian envelope models dephasing
    dominated by low-frequency noise; T1 must come from an independent
    measurement.  A series flat to 1e-12 is not fitted: A0 is its mean,
    A1 = 0, T_G half the last time (at least one step), sigmas 0."""
    x, y = _series(x, y)
    if not np.isfinite(t1) or t1 <= 0:
        raise ValueError("a measured, finite T1 is required")
    names = ["a0", "a1", "t_g"]
    if np.ptp(y) <= _FLAT:
        return _flat(y, names, [np.mean(y), 0.0, max(x[-1] / 2, x[1] - x[0])])
    return _exp_fit(x**2, y, names, lambda k: (k**-0.5, -0.5 * k**-1.5),
                    env=np.exp(-x / (2 * t1)))


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

    Each is a signed permutation up to round-off (<= 4.4e-16)."""
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
            q = min(max(q, 0.0), 1.0)       # np.clip's value, NaN too, at 1/10 the cost
            if cfg.shots:
                vals[s] = rng.binomial(cfg.shots, q) / cfg.shots
            else:
                vals[s] = q
        means[li] = vals.mean()
        sems[li] = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return means, sems


def fit_rb_decay(lengths, survival, sem=None) -> FitResult:
    """Weighted fit of A p^m + B (inverse-variance weights from shot noise)
    by :func:`_exp_fit` in p = exp(-k).  A curve flat to 1e-12 does not
    identify p: not fitted, it is p = 1, A = 0, B its mean, not converged."""
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(survival, dtype=float)
    if sem is None or np.all(np.asarray(sem) <= 0):
        w = np.ones_like(y)
    else:
        s = np.asarray(sem, dtype=float)
        floor = max(np.min(s[s > 0], initial=1e-3), 1e-4)
        w = 1.0 / np.clip(s, floor, None)
    names = ["b", "a", "p"]            # as B + A exp(-k m), with p = exp(-k)
    if np.ptp(y) <= _FLAT:
        return _flat(y, names, [np.mean(y), 0.0, 1.0], converged=False)
    return _exp_fit(m, y, names, lambda k: (np.exp(-k), -np.exp(-k)), w=w)


def _rb_decay(cfg: RBConfig, survival, sem,
              name: str) -> tuple[FitResult, float, dict]:
    """:func:`fit_rb_decay` and its p clipped to 1 (:class:`FitQualityError`
    past 1 + 1e-6); ``flat_curve`` marks a curve flat to 1e-12 (p = 1)."""
    fit = fit_rb_decay(cfg.lengths, survival, sem)
    p = fit.params["p"]
    if not 0.0 < p <= 1.0 + 1e-6:
        raise FitQualityError(f"{name} = {p!r} outside (0, 1]")
    stats = {"fit_converged": fit.converged, "fit_nfev": fit.nfev,
             "flat_curve": bool(np.ptp(survival) <= _FLAT),
             "cliffords": cfg.sequences_per_length * sum(cfg.lengths)}
    return fit, min(p, 1.0), stats


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
