"""Unit costs of single public calls, and the input properties of QEC jobs.

Each unit cost times one public call at an input size fixed here (not by
the workload seed) and divides by the work it did: steps, samples, shots,
iterations or sequences.  The figure is the median of ``REPEATS`` timings,
each expressed at the reference speed of ``calibrate``.
"""

from __future__ import annotations

import copy
import statistics

import numpy as np

import calibrate
from scqsim import control, dynamics, experiments, gates, qcore
from scqsim import surface_code as sc

REPEATS = 3
TWO_PI = 2 * np.pi
SX = np.array([[0, 1], [1, 0]], dtype=complex)
N1 = np.diag([0.0, 1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)
COLLAPSE = [dynamics.qubit_decay(1 / 300.0), dynamics.qubit_dephasing(1 / 500.0)]


def _timed(fn) -> float:
    _, error, elapsed, probes = calibrate.timed(fn)
    if error:
        raise RuntimeError(f"unit-cost call failed: {error}")
    return elapsed * calibrate.REFERENCE_S / statistics.fmean(probes)


def _median_s(fn, repeats: int = REPEATS) -> float:
    return statistics.median(_timed(fn) for _ in range(repeats))


def _dynamics() -> dict:
    h = TWO_PI * 0.01 * N1 + 0.5 * TWO_PI * 0.02 * SX
    steps = 2000                                  # one sample, 2000 RK4 steps
    step = _median_s(lambda: dynamics.lindblad_evolve(
        h, GROUND, COLLAPSE, times=np.array([0.0, steps * 0.01]), dt=0.01))
    step /= steps
    samples = 500                                 # one RK4 step per sample
    per_sample = _median_s(lambda: dynamics.lindblad_evolve(
        h, GROUND, COLLAPSE, times=np.linspace(0.0, samples * 0.01, samples + 1),
        dt=0.01)) / samples
    drive = dynamics.TimeDependentH(TWO_PI * 0.01 * N1,
                                    [(0.5 * SX, lambda t: 0.3 * np.sin(t))])
    driven = _median_s(lambda: dynamics.lindblad_evolve(
        drive, GROUND, COLLAPSE, times=np.array([0.0, steps * 0.01]), dt=0.01))
    return {"dynamics.rk4_step_us": step * 1e6,
            "dynamics.sample_us": (per_sample - step) * 1e6,
            "dynamics.driven_rk4_step_us": driven / steps * 1e6}


def _experiments() -> dict:
    t1, t2 = 250.0, 200.0
    drive = np.sqrt(0.05 / (t1 * t2))
    point = _median_s(lambda: experiments.two_tone_scan(
        5.0, t1, t2, drive, np.array([5.0025]), chi=-0.0025), repeats=1)
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 300.0, 61)
    rabi = 0.5 - 0.5 * np.cos(0.06 * x) * np.exp(-x / 400) + rng.normal(0, 0.01, 61)
    decay = 0.9 * np.exp(-x / 80) + rng.normal(0, 0.01, 61)

    def fits():
        experiments.fit_rabi(x, rabi)
        experiments.fit_t1(x, decay)
        experiments.fit_ramsey(x, rabi)

    cfg = experiments.RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128, 256),
                               sequences_per_length=10, shots=0,
                               error={"depolarizing": 0.01}, seed=1)
    rb = _median_s(lambda: experiments.rb_standard(cfg))
    return {"experiments.two_tone_point_ms": point * 1e3,
            "experiments.fit_ms": _median_s(fits) / 3 * 1e3,
            "experiments.rb_sequence_us": rb / (9 * 10) * 1e6}


def _pulses() -> dict:
    rng = np.random.default_rng(2)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h9 = a + a.conj().T
    n = 2000
    expm = _median_s(lambda: [qcore.expm_hermitian(h9, scale=-0.01j)
                              for _ in range(n)]) / n

    def bias(t):
        return 5.6 - 0.1 * np.sin(np.pi * t / 2.0)

    tau, dt = 2.0, 0.005                          # 400 steps of 9x9
    cz = _median_s(lambda: gates.cz_adiabatic_simulate(
        5.0, bias, -0.3, -0.3, 0.02, tau, dt=dt)) / round(tau / dt)
    alpha = TWO_PI * -0.2
    pulse = control.pi_pulse("gaussian", 6.4, nsamples=161)
    leak = _median_s(lambda: control.leakage_simulate(
        pulse, alpha, np.sqrt(2), refine=4, check=False)) / (160 * 4)
    prob = control.transmon_pi_problem(alpha, n_slices=8, dt=1.6,
                                       target_infidelity=0.0, max_iter=20)
    u0 = 0.05 * np.random.default_rng(3).standard_normal((2, 8))
    grape = _median_s(lambda: control.grape_optimize(prob, u0=u0)) / 20
    return {"qcore.expm_hermitian_us": expm * 1e6,
            "gates.cz_step_us": cz * 1e6,
            "control.leakage_step_us": leak * 1e6,
            "control.grape_iter_ms": grape * 1e3}


def _surface_code() -> dict:
    low = 20000
    d3 = _median_s(lambda: sc.logical_error_rate(3, 0.001, 1, low, seed=1)) / low
    high = 500                      # seed 1 stays under MAX_DEFECTS at p = 0.08
    d5 = _median_s(lambda: sc.logical_error_rate(5, 0.08, 1, high, seed=1)) / high
    lat = sc.SurfaceLattice(5)
    errors = np.zeros(lat.n_data, dtype=np.int8)
    errors[[2, 9, 17, 24, 33]] = 1
    syn = sc.syndrome_from_errors(lat, errors, errors[::-1].copy())
    n = 200
    decode = _median_s(lambda: [sc.mwpm_decode(syn, lat) for _ in range(n)]) / n
    rng = np.random.default_rng(4)
    tab = sc.lattice_tableau(lat)
    sc.encode_logical_zero(lat, tab, rng)
    data = [lat.cell_index(pos) for pos in lat.data]
    times = []
    for _ in range(REPEATS):         # random outcomes: every data qubit in Z
        t = copy.deepcopy(tab)
        times.append(_timed(lambda: [t.measure_z(q, rng) for q in data]) / len(data))
    return {"surface_code.shot_us_d3_low": d3 * 1e6,
            "surface_code.shot_us_d5_high": d5 * 1e6,
            "surface_code.decode_us": decode * 1e6,
            "surface_code.tableau_measure_us": statistics.median(times) * 1e6}


def unit_costs() -> dict:
    out = {}
    for part in (_dynamics, _experiments, _pulses, _surface_code):
        out.update(part())
    return out


def syndromes(d: int, p: float, shots: int, seed: int) -> tuple:
    """(X-check, Z-check) syndrome bits of every shot of
    ``surface_code.logical_error_rate(d, p, 1, shots, seed)``, from the draws
    it documents: Philox keyed by the seed, one (shots, n_data, 2) array,
    X then Z flips."""
    lat = sc.SurfaceLattice(d)
    draws = np.random.Generator(np.random.Philox(key=seed)).random(
        (shots, lat.n_data, 2))
    syn_z = (draws[:, :, 0] < p).astype(np.int8) @ lat.adjacency("z") % 2
    syn_x = (draws[:, :, 1] < p).astype(np.int8) @ lat.adjacency("x") % 2
    return syn_x, syn_z


def max_defects(syn_x: np.ndarray, syn_z: np.ndarray) -> int:
    """Most defects of one type in one shot."""
    return max(int(syn_x.sum(1).max()), int(syn_z.sum(1).max()))


def qec_properties(jobs: list) -> dict:
    """Per (d, p): share of shots with any defect, distinct non-trivial
    syndromes per non-trivial shot, and the most defects of one type."""
    points = {}
    for job in jobs:
        d, p, shots = job["d"], job["p"], job["shots"]
        syn_x, syn_z = syndromes(d, p, shots, job["seed"])
        bits = np.concatenate([syn_x, syn_z], axis=1).astype(np.uint8)
        hit = bits.any(axis=1)
        acc = points.setdefault((d, p), {"shots": 0, "nontrivial": 0,
                                         "distinct": set(), "max_defects": 0})
        acc["shots"] += shots
        acc["nontrivial"] += int(hit.sum())
        acc["distinct"].update(row.tobytes() for row in np.packbits(bits[hit], axis=1))
        acc["max_defects"] = max(acc["max_defects"], max_defects(syn_x, syn_z))
    out = {}
    for (d, p), acc in points.items():
        tag = f"d{d}_p{p:g}"
        out[f"surface_code.nontrivial_shot_frac.{tag}"] = acc["nontrivial"] / acc["shots"]
        out[f"surface_code.distinct_syndrome_frac.{tag}"] = (
            len(acc["distinct"]) / max(acc["nontrivial"], 1))
        out[f"surface_code.max_defects.{tag}"] = acc["max_defects"]
    return out
