"""Worker process: runs jobs for the client, one request at a time.

Requests and replies are JSON lines on stdin / stdout.  The worker imports
scqsim from the checkout's ``src`` (the client puts it on PYTHONPATH), runs
each job through public functions or ``scqsim.cli.main``, times only the
call into scqsim, and then checks the result against a physics oracle.
Anything scqsim prints goes to stderr so that stdout carries replies only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import betainc

import scqsim
from scqsim import cli, control, dynamics, experiments, gates
from scqsim import surface_code as sc

import calibrate
import jobs
import tracing
import units

TWO_PI = 2 * np.pi
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
N1 = np.diag([0.0, 1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)
Z_WIDE = 5.0        # CI width of the interleaved-RB check
# chance that a correct QEC Monte Carlo fails its check, per tail; at 1e-6
# one call in ~10^5 would, and a run makes ~400 of them
MC_ALPHA = 1e-9
# Fits of shot-noise data may miss their input by the tier-1 tolerance, or
# by FIT_SIGMAS of their own reported sigma up to FIT_CEILING of the input,
# whichever is wider.  Over 400 seeds of the settings in jobs.py the fits
# strayed at most 4.3 sigmas: T1 by up to 4.3% (tier-1 allows 1%), T2 by
# 4.3%, the Rabi and Ramsey rates by 0.3%.  A fit whose sigma grows cannot
# pass on its sigma beyond the ceiling.
FIT_SIGMAS = 8.0
FIT_CEILING = 0.06
RB_CEILING = 0.15


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _liouvillian(h: np.ndarray, collapse) -> np.ndarray:
    """Superoperator of the Lindblad equation on row-major vec(rho)."""
    eye = np.eye(h.shape[0])
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in collapse:
        cc = c.conj().T @ c
        out += np.kron(c, c.conj()) - 0.5 * (np.kron(cc, eye) + np.kron(eye, cc.T))
    return out


def _qubit_collapse(t1: float, t2: float) -> list:
    ops = [np.sqrt(1.0 / t1) * np.array([[0, 1], [0, 0]], dtype=complex)]
    gamma_phi = 1.0 / t2 - 0.5 / t1
    if gamma_phi > 0:
        ops.append(np.sqrt(gamma_phi / 2) * SZ)
    return ops


def _unitarity_error(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _wilson(k: int, n: int, z: float) -> tuple:
    ph = k / n
    denom = 1 + z**2 / n
    centre = (ph + z**2 / (2 * n)) / denom
    half = z * np.sqrt(ph * (1 - ph) / n + z**2 / (4 * n**2)) / denom
    return centre - half, centre + half


def _binomial_tails(k: int, n: int, p: float) -> tuple:
    """(P(K <= k), P(K >= k)) for K ~ Binomial(n, p), through the regularized
    incomplete beta function (scipy.stats would add ~20 MB to the worker's
    peak RSS)."""
    below = betainc(n - k, k + 1, 1 - p) if k < n else 1.0
    above = betainc(k, n - k + 1, p) if k > 0 else 1.0
    return float(below), float(above)


def _binom_tail(n: int, p: float, t: int) -> float:
    """P(more than t of n independent flips at rate p)."""
    from math import comb
    return 1.0 - sum(comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(t + 1))


class QecOracle:
    """Logical failure probability the Monte Carlo must reproduce.

    d = 3: exact, by decoding every X- and every Z-error pattern once and
    summing the failing ones with their probability.  d = 5: an upper
    bound, because minimum-weight matching corrects every pattern of at
    most (d - 1) / 2 flips per error type.
    """

    def __init__(self):
        self._weights = {}

    def _failing_weights(self, d: int) -> tuple:
        if d not in self._weights:
            lat = sc.SurfaceLattice(d)
            x_l, z_l = sc.logical_ops(lat)
            n = lat.n_data
            pats = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.int8)
            weight = pats.sum(axis=1)
            failing = []
            for checks, logical, kind in ((lat.z_checks, z_l, "x"),
                                          (lat.x_checks, x_l, "z")):
                sup = np.zeros(n, dtype=np.int8)
                sup[list(logical.support())] = 1
                syn = (pats @ _adjacency(lat, checks)) % 2
                none = np.zeros(len(checks), dtype=np.int8)
                fix = {}
                for bits in {tuple(row) for row in syn}:
                    both = (none, bits) if kind == "x" else (bits, none)
                    frame = sc.mwpm_decode(sc.Syndrome(0, *both), lat)
                    fix[bits] = frame.x if kind == "x" else frame.z
                corr = np.array([fix[tuple(row)] for row in syn])
                fails = ((pats ^ corr) @ sup) % 2
                failing.append(np.bincount(weight, weights=fails, minlength=n + 1))
            self._weights[d] = (n, *failing)
        return self._weights[d]

    def rate(self, d: int, p: float) -> tuple:
        """(low, high) bounds on the logical failure probability."""
        if d == 3:
            n, fx, fz = self._failing_weights(3)
            w = np.arange(n + 1)
            pw = p**w * (1 - p) ** (n - w)
            px, pz = float(fx @ pw), float(fz @ pw)
            exact = 1 - (1 - px) * (1 - pz)
            return exact, exact
        n = 2 * d * d - 2 * d + 1
        tail = _binom_tail(n, p, (d - 1) // 2)
        return 0.0, 1 - (1 - tail) ** 2


QEC_ORACLE = QecOracle()


# ---------------------------------------------------------------------------
# Jobs: each returns (call, check).  ``call`` is what gets timed; ``check``
# takes its result and returns None or a description of what is wrong.
# ---------------------------------------------------------------------------

def _write_config(workdir: Path, cfg: dict) -> Path:
    path = workdir / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def _cli(sub: str, workdir: Path, cfg: dict | None, seed: int = 0, extra=()):
    out = workdir / "out"
    argv = [sub, "--out", str(out), "--seed", str(seed), *extra]
    if cfg is not None:
        argv += ["--config", str(_write_config(workdir, cfg))]

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"scqsim {sub} exited {code}: {err.getvalue().strip()}")
        return out

    return call


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _within(value, want, tol, what) -> str | None:
    if not abs(value - want) <= tol:
        return f"{what} = {value!r}, want {want!r} +- {tol!r}"
    return None


def _fit_within(value, sigma, want, tier1, what) -> str | None:
    """``value`` within the tier-1 relative tolerance of ``want``, or within
    FIT_SIGMAS ``sigma`` capped at FIT_CEILING of ``want``."""
    scale = abs(want)
    tol = max(tier1 * scale, min(FIT_SIGMAS * sigma, FIT_CEILING * scale))
    return _within(value, want, tol, what)


def job_two_tone(job, workdir):
    grid = np.array([job["omega_d"]])
    drive = np.sqrt(job["sat"] / (job["t1"] * job["t2"]))

    def call():
        return experiments.two_tone_scan(job["omega_q"], job["t1"], job["t2"],
                                         drive, grid, chi=job["chi"])

    def check(pops):
        # steady-state Lorentzian centred on omega_q - chi; one drive-grid
        # step away it is 0.007 lower, far outside the tolerance
        peak = job["omega_q"] - job["chi"]
        s = job["sat"]
        oracle = (s / 2) / (1 + (TWO_PI * (peak - grid) * job["t2"]) ** 2 + s)
        return _within(float(np.max(np.abs(pops - oracle))), 0.0, 1e-4,
                       "two-tone steady-state error")

    return call, check


def job_cli_evolve(job, workdir):
    keys = ("t1_ns", "t2_ns", "drive_ghz", "detuning_ghz", "t_end_ns", "samples")
    call = _cli("evolve", workdir, {k: job[k] for k in keys})

    def check(out):
        data = _read_csv(out / "evolve.csv")
        h = TWO_PI * job["detuning_ghz"] * N1 + 0.5 * TWO_PI * job["drive_ghz"] * SX
        step = expm(_liouvillian(h, _qubit_collapse(job["t1_ns"], job["t2_ns"]))
                    * (data[1, 0] - data[0, 0]))
        vec = GROUND.reshape(-1)
        p1, purity = [], []
        for _ in range(len(data)):
            rho = vec.reshape(2, 2)
            p1.append(rho[1, 1].real)
            purity.append(np.trace(rho @ rho).real)
            vec = step @ vec
        return (_within(float(np.max(np.abs(data[:, 1] - p1))), 0.0, 1e-6, "p1 error")
                or _within(float(np.max(np.abs(data[:, 2] - purity))), 0.0, 1e-6,
                           "purity error"))

    return call, check


def job_cli_experiment(job, workdir):
    kind = job["exp"]
    cfg = {k: job[k] for k in ("t1_ns", "t2_ns", "tau_max_ns", "points", "shots")}
    cfg["kind"] = kind
    for k in ("rabi_ghz", "detuning_ghz"):
        if k in job:
            cfg[k] = job[k]
    call = _cli("experiment", workdir, cfg, job["seed"])

    def check(out):
        fit = _read_json(out / f"{kind}_fit.json")
        if not fit["converged"]:
            return f"{kind} fit did not converge"
        par, sig = fit["params"], fit["sigmas"]
        if kind == "rabi":
            return _fit_within(par["omega"], sig["omega"], TWO_PI * job["rabi_ghz"],
                               0.01, "Rabi rate")
        if kind == "t1":
            return _fit_within(par["t1"], sig["t1"], job["t1_ns"], 0.01, "T1")
        return (_fit_within(par["omega_qd"], sig["omega_qd"],
                            TWO_PI * job["detuning_ghz"], 0.01, "Ramsey detuning")
                or _fit_within(par["t2"], sig["t2"], job["t2_ns"], 0.05, "T2"))

    return call, check


def job_cz_sim(job, workdir):
    tau, ramp = job["tau"], job["ramp"]
    w_idle, w_gate = job["w_idle"], job["w_gate"]

    def bias(t):
        if t < ramp:
            s = 0.5 * (1 - np.cos(np.pi * t / ramp))
        elif t > tau - ramp:
            s = 0.5 * (1 - np.cos(np.pi * (tau - t) / ramp))
        else:
            s = 1.0
        return w_idle + (w_gate - w_idle) * s

    def call():
        return gates.cz_adiabatic_simulate(job["omega_q1"], bias, job["alpha_1"],
                                           job["alpha_2"], job["j"], tau)

    def check(res):
        u = np.asarray(res["propagator"].entries)
        if not 0.0 <= res["leakage"] <= res["max_02_population"] + 1e-12:
            return "final |02> population exceeds its running maximum"
        if res["adiabatic"] != (res["max_02_population"] < 1e-3):
            return "adiabatic flag disagrees with the |02> monitor"
        if abs(res["conditional_phase"]) > np.pi + 1e-12:
            return "conditional phase outside [-pi, pi]"
        return _within(_unitarity_error(u), 0.0, 1e-9, "CZ unitarity error")

    return call, check


def job_leakage(job, workdir):
    alpha = TWO_PI * job["alpha_ghz"]
    plain = control.pi_pulse("gaussian", job["duration"], nsamples=job["nsamples"])
    drag = control.drag_envelope(plain, alpha)

    def call():
        return [control.leakage_simulate(p, alpha, np.sqrt(2)) for p in (plain, drag)]

    def check(res):
        for u, _ in res:
            bad = _within(_unitarity_error(np.asarray(u.entries)), 0.0, 1e-9,
                          "leakage unitarity error")
            if bad:
                return bad
        (_, leak_plain), (_, leak_drag) = res
        if not leak_plain > 1e-3:
            return f"plain leakage {leak_plain:.3g} <= 1e-3"
        if not leak_drag <= leak_plain / 10:
            return f"DRAG leakage {leak_drag:.3g} above a tenth of {leak_plain:.3g}"
        return None

    return call, check


def _pi_population(prob, amplitudes) -> float:
    """|<1|U|0>|^2 of the piecewise-constant GRAPE pulse, by scipy expm."""
    u = np.eye(prob.dim, dtype=complex)
    for j in range(prob.n_slices):
        h = prob.h0 + sum(a[j] * c for a, c in zip(amplitudes, prob.controls))
        u = expm(-1j * prob.dt * h) @ u
    return float(abs(u[1, 0]) ** 2)


def job_cli_grape(job, workdir):
    call = _cli("grape", workdir, None, job["seed"])

    def check(out):
        rep = _read_json(out / "grape.json")
        header = (out / "pulse.csv").read_text().splitlines()[0]
        if header != "t_ns,omega_x_GHz,omega_y_GHz":
            return f"pulse.csv header {header!r}"
        if not rep["converged"]:
            return "GRAPE did not reach its target"
        return _within(rep["infidelity"], 0.0, 1e-4, "GRAPE infidelity")

    return call, check


def job_grape_bounded(job, workdir):
    alpha = TWO_PI * job["alpha_ghz"]
    bound = TWO_PI * job["bound_ghz"]
    n = job["n_slices"]

    def call():
        prob = control.transmon_pi_problem(alpha, n_slices=n, dt=job["dt"],
                                           bounds=(-bound, bound),
                                           target_infidelity=1e-5)
        u0 = np.zeros((2, n))
        base = control.pi_pulse("gaussian", prob.total_time, nsamples=n + 1)
        u0[0] = np.clip(base.omega_x[:-1], -bound, bound)
        return prob, control.grape_multistart(prob, restarts=8, seed=job["seed"],
                                              u0=u0)

    def check(out):
        prob, res = out
        if not res.converged or res.infidelity > 1e-5:
            return f"bounded GRAPE infidelity {res.infidelity:.3g} > 1e-5"
        if np.max(np.abs(res.amplitudes)) > bound + 1e-12:
            return "bounded GRAPE exceeds its amplitude bound"
        return _within(_pi_population(prob, res.amplitudes), 1.0, 1e-3,
                       "pi-pulse population transfer")

    return call, check


def _filter(omega: np.ndarray, tau: float, pulses: list) -> np.ndarray:
    """|Fourier transform of the +-1 toggling function|^2, which flips sign at
    each pi pulse inside (0, tau), normalized to unit trapezoid integral."""
    edges = [0.0] + [t for t in pulses if t < tau] + [tau]
    w = np.where(omega == 0, 1.0, omega)
    amp = np.zeros(len(omega), dtype=complex)
    for k, (t0, t1) in enumerate(zip(edges, edges[1:])):
        seg = (np.exp(-1j * w * t1) - np.exp(-1j * w * t0)) / (-1j * w)
        amp += (-1) ** k * np.where(omega == 0, t1 - t0, seg)
    f = np.abs(amp) ** 2
    return f / np.trapezoid(f, omega)


def job_cli_echo(job, workdir):
    cfg = {"kind": job["seq"], "tau_ns": job["tau_ns"], "n": job["n"],
           "j_z_ghz": job["j_z_ghz"], "npoints": job["npoints"]}
    call = _cli("echo", workdir, cfg)

    tau, n = job["tau_ns"], job["n"]
    # demo 07: Hahn pi pulses at tau/2 and tau, XY4 at the quarter points,
    # CPMG at the odd multiples of tau/2n
    pulses = {"hahn": [tau / 2, tau], "xy4": [tau / 4, tau / 2, 3 * tau / 4, tau]}.get(
        job["seq"], [(2 * k - 1) * tau / (2 * n) for k in range(1, n + 1)])

    def check(out):
        rep = _read_json(out / "echo.json")
        if rep["pi_pulses"] != len(pulses):
            return f"{rep['pi_pulses']} pi pulses, want {len(pulses)}"
        # an odd number of pi pulses leaves a net flip, not the identity
        if len(pulses) % 2 == 0:
            bad = _within(rep["identity_residual"], 0.0, 1e-10, "echo residual")
            if bad:
                return bad
        data = _read_csv(out / "filter.csv")
        return _within(float(np.max(np.abs(data[:, 1] - _filter(data[:, 0], tau, pulses)))),
                       0.0, 1e-9 * float(np.max(data[:, 1])), "filter function error")

    return call, check


def job_cli_gate(job, workdir):
    cfg = {k: v for k, v in job.items() if k.endswith(("_ghz", "_ns"))}
    cfg["kind"] = job["gate"]
    call = _cli("gate", workdir, cfg)

    def check(out):
        rep = _read_json(out / "gate.json")
        u = np.asarray(rep["propagator_re"]) + 1j * np.asarray(rep["propagator_im"])
        return (_within(_unitarity_error(u), 0.0, 1e-9, f"{job['gate']} unitarity")
                or _within(rep["infidelity"], 0.0, 1e-10, f"{job['gate']} infidelity"))

    return call, check


def job_cli_spectrum(job, workdir):
    cfg = {"e_j_ghz": job["e_j_ghz"], "e_c_ghz": job["e_c_ghz"], "nlevels": 4}
    call = _cli("spectrum", workdir, cfg)

    def check(out):
        rep = _read_json(out / "spectrum.json")
        # 4 E_C n^2 - E_J cos(phi) diagonalized in the charge basis, |n| <= 40
        n = np.arange(-40, 41)
        e = np.linalg.eigvalsh(np.diag(4 * job["e_c_ghz"] * n**2.0)
                               - 0.5 * job["e_j_ghz"] * (np.eye(81, k=1) + np.eye(81, k=-1)))
        return (_within(rep["omega_q_ghz"], e[1] - e[0], 1e-8, "omega_q")
                or _within(rep["anharmonicity_ghz"], e[2] - 2 * e[1] + e[0], 1e-8,
                           "anharmonicity"))

    return call, check


def job_driven_lindblad(job, workdir):
    sigma, t_end = job["sigma_ns"], job["t_end_ns"]
    amp = job["area"] / (sigma * np.sqrt(2 * np.pi))
    centre = t_end / 2

    def envelope(t):
        return amp * np.exp(-0.5 * ((t - centre) / sigma) ** 2)

    static = TWO_PI * job["detuning_ghz"] * N1
    collapse = _qubit_collapse(job["t1_ns"], job["t2_ratio"] * job["t1_ns"])
    times = np.linspace(0.0, t_end, job["samples"])

    def call():
        h = dynamics.TimeDependentH(static, [(0.5 * SX, envelope)])
        return dynamics.lindblad_evolve(h, GROUND, collapse, times=times,
                                        dt=0.01, e_ops={"p1": N1})

    def check(res):
        l0 = _liouvillian(static, collapse)
        l1 = _liouvillian(0.5 * SX, []) + 0j
        sol = solve_ivp(lambda t, v: (l0 + envelope(t) * l1) @ v, (0.0, t_end),
                        GROUND.reshape(-1), t_eval=times, method="DOP853",
                        rtol=1e-11, atol=1e-13)
        want = sol.y[3].real
        return _within(float(np.max(np.abs(res.expectations["p1"] - want))), 0.0,
                       1e-6, "driven p1 error")

    return call, check


def job_cli_qec(job, workdir):
    d, p, shots = job["d"], job["p"], job["shots"]
    call = _cli("qec", workdir, None, job["seed"],
                ["--d", str(d), "--p", repr(p), "--shots", str(shots)])

    def check(out):
        rep = _read_json(out / "qec.json")
        k = rep["failures"]
        if rep["shots"] != shots or rep["d"] != d:
            return "qec.json does not echo its inputs"
        bad = (_within(rep["logical_error_rate"], k / shots, 1e-11 * max(k / shots, 1e-300),
                       "rate vs failures / shots")
               or _within(rep["ci95_low"], _wilson(k, shots, 1.96)[0], 1e-9, "ci95_low")
               or _within(rep["ci95_high"], _wilson(k, shots, 1.96)[1], 1e-9, "ci95_high"))
        if bad:
            return bad
        # exact binomial tails at the oracle's bounds
        want_lo, want_hi = QEC_ORACLE.rate(d, p)
        tail = min(_binomial_tails(k, shots, want_lo)[0],
                   _binomial_tails(k, shots, want_hi)[1])
        if tail < MC_ALPHA:
            return (f"d={d} p={p}: {k}/{shots} failures, binomial tail {tail:.3g} "
                    f"at the oracle [{want_lo:.3g}, {want_hi:.3g}]")
        return None

    return call, check


def _adjacency(lat, checks) -> np.ndarray:
    """(data, check) incidence, by walking the lattice grid."""
    index = {pos: i for i, pos in enumerate(lat.data)}
    out = np.zeros((len(lat.data), len(checks)), dtype=np.int8)
    for j, (r, c) in enumerate(checks):
        for pos in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if pos in index:
                out[index[pos], j] = 1
    return out


def _parity(lat, checks, errors) -> np.ndarray:
    return ((errors @ _adjacency(lat, checks)) % 2).astype(np.int8)


def job_tableau(job, workdir):
    d, p = job["d"], job["p"]

    def call():
        rng = np.random.default_rng(job["seed"])
        lat = sc.SurfaceLattice(d)
        tab = sc.lattice_tableau(lat)
        sc.encode_logical_zero(lat, tab, rng)
        rounds = []
        for cycle in range(job["cycles"]):
            ex, ez = sc.inject_errors(lat, tab, p, p, rng)
            syn = sc.syndrome_cycle(lat, tab, {"p_x": 0.0, "p_z": 0.0}, rng, cycle)
            rounds.append((ex, ez, syn))
        return lat, rounds

    def check(out):
        lat, rounds = out
        cum_x = np.zeros(lat.n_data, dtype=np.int8)
        cum_z = np.zeros(lat.n_data, dtype=np.int8)
        for ex, ez, syn in rounds:
            cum_x ^= ex
            cum_z ^= ez
            if not (np.array_equal(syn.x_bits, _parity(lat, lat.x_checks, cum_z))
                    and np.array_equal(syn.z_bits, _parity(lat, lat.z_checks, cum_x))):
                return f"tableau syndrome of cycle {syn.cycle} disagrees with its errors"
        return None

    return call, check


def job_cli_rb(job, workdir):
    rate = job["depolarizing"]
    cfg = {"lengths": job["lengths"], "sequences_per_length": job["sequences"],
           "shots": job["shots"], "depolarizing": rate, "prep_error": job["prep_error"],
           "interleaved": job["interleaved"]}
    call = _cli("rb", workdir, cfg, job["seed"])

    def check(out):
        rep = _read_json(out / "rb.json")
        sigma = (rep["CI"][1] - rep["CI"][0]) / (2 * 1.96)
        # the tier-1 test allows 5% on its one seed; over 300 seeds of the
        # demo-09 settings r strayed up to 7.8% (standard), 6.4% (with the
        # preparation error) and 11.9% (interleaved, 8 lengths), at most 6.9
        # of its sigmas
        tol = max(0.05 * rate, min(FIT_SIGMAS * sigma, RB_CEILING * rate))
        bad = _within(rep["r"], rate, tol, "RB r")
        if bad or job["interleaved"] < 0:
            return bad
        # the interleaved gate carries no error of its own
        sigma_c = (rep["r_C_CI"][1] - rep["r_C_CI"][0]) / (2 * 1.96)
        if not rep["bounds"][0] <= rep["r_C"] <= rep["bounds"][1]:
            return "interleaved r_C outside its own bounds"
        # capped, so that a widening CI cannot pass an r_C as large as the
        # reference error itself
        return _within(rep["r_C"], 0.0, min(Z_WIDE * sigma_c, rate), "interleaved r_C")

    return call, check


JOBS = {name[4:]: fn for name, fn in globals().items() if name.startswith("job_")}

# what scqsim.cli reports (exit 3) for a surface_code.DecoderCapacityError
CAPACITY_ABORT = re.compile(
    r"scqsim qec exited 3: numeric failure: \d+ defects exceed the "
    r"exhaustive-matching capacity \d+$")


def expected_failure(job: dict, error: str) -> bool:
    """True for the decoder-capacity aborts scqsim is known to raise: a CLI
    qec call at a point of ``jobs.QEC_CAPACITY_ABORTS`` that reports the
    capacity error while its seeded draws do hold a shot with more than
    ``MAX_DEFECTS`` defects of one type.  Every other error is unexpected."""
    if job["kind"] != "cli_qec" or (job["d"], job["p"]) not in jobs.QEC_CAPACITY_ABORTS:
        return False
    if not CAPACITY_ABORT.search(error):
        return False
    syn = units.syndromes(job["d"], job["p"], job["shots"], job["seed"])
    return units.max_defects(*syn) > sc.MAX_DEFECTS


def _digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def run_job(job: dict, scratch: Path, recorder: tracing.Recorder | None) -> dict:
    workdir = scratch / job["id"]
    workdir.mkdir(parents=True)
    try:
        call, check = JOBS[job["kind"]](job, workdir)
        if recorder is not None:
            recorder.job = job["id"]
        result, error, elapsed, probes = calibrate.timed(call)
        if recorder is not None:
            recorder.job = None
        start = time.perf_counter()
        wrong = None
        if error is None:
            try:
                wrong = check(result)
            except Exception as exc:
                wrong = f"check raised {type(exc).__name__}: {exc}"
        check_s = time.perf_counter() - start
        digests = _digests(workdir / "out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"id": job["id"], "elapsed_s": elapsed, "probe_s": statistics.fmean(probes),
            "probes": len(probes), "check_s": check_s,
            "error": error, "expected": error is not None and expected_failure(job, error),
            "wrong": wrong, "digests": digests}


# ---------------------------------------------------------------------------
# Request loop
# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except Exception:
        pass
    pins = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "blas": blas, "thread_pins": pins,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "scqsim": scqsim.__version__,
            "scqsim_path": os.path.dirname(scqsim.__file__)}


def main() -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr
    scratch = Path(sys.argv[1])
    recorder = None
    before = None
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "env":
            reply = environment()
        elif op == "job":
            reply = run_job(req["job"], scratch, recorder)
        elif op == "trace_on":
            before = tracing.snapshot()
            recorder = tracing.Recorder()
            recorder.install()
            reply = {}
        elif op == "trace_off":
            recorder.remove()
            recorder.write(req["spans_path"])
            reply = {"layers": recorder.job_layer_totals(),
                     "spans": len(recorder.spans),
                     "restored": tracing.same_attributes(before, tracing.snapshot())}
            recorder = None
        elif op == "units":
            reply = units.unit_costs()
        elif op == "qec_props":
            reply = units.qec_properties(req["jobs"])
        elif op == "rss":
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        elif op == "exit":
            break
        else:
            raise ValueError(f"unknown request {op!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
