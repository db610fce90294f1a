"""Job lists of the three workloads.

A job is a plain dict: ``kind`` names what the worker runs, the other keys
are the generated inputs.  Every pass of a run gets its own list, drawn
from ``random.Random`` seeded by (workload, seed, pass), so a run is fixed
by its seed while no two passes repeat an input.

What a pass holds is taken from the repository's demos, the CLI defaults
and the tier-1 tests, as the comments below say job by job: one pass is one
study as the demos run it.  The seed moves values (frequencies, rates, RNG
seeds) by a few percent around those settings; sizes (points, steps,
shots, sequence lengths) are the same on every seed, so the cost of a pass
does not depend on the draw.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("lindblad_sweep", "pulse_gates", "qec_rb")

# demo 02: omega_q = 5 GHz, omega_r = 6 GHz, g = 0.05 GHz, T1 = 250 ns,
# T2 = 200 ns, saturation 0.05, chi = g^2 / (omega_q - omega_r), and the
# 25-point scan over 4.991 .. 5.003 GHz
TWO_TONE = {"omega_q": 5.0, "t1": 250.0, "t2": 200.0, "sat": 0.05,
            "chi": 0.05**2 / (5.0 - 6.0)}
TWO_TONE_GRID = (4.991, 5.003, 25)

# threshold sweep as demo 08 runs it: every p gets the same number of
# shots, here the CLI's default 10k, over d = 3, 5 and p = 1e-3 .. 0.15
QEC_DISTANCES = (3, 5)
QEC_RATES = (0.001, 0.01, 0.03, 0.08, 0.15)
QEC_SHOTS = 10000
QEC_CALL_SHOTS = 1000
# decoder-capacity aborts (more than MAX_DEFECTS = 14 defects of one type in
# a shot) that scqsim raises today, as DecoderCapacityError: d = 5, p = 0.15
# on every 10k-shot call, d = 5, p = 0.08 on ~7% of 1k-shot calls
QEC_CAPACITY_ABORTS = ((5, 0.08), (5, 0.15))
QEC_POINTS = tuple((d, p) for d in QEC_DISTANCES for p in QEC_RATES)

# demo 09: standard RB with and without a 2% preparation error (9 lengths,
# 45 sequences of 250 shots) and interleaved RB over 8 lengths (40 x 250).
# Its fourth run puts an error on the interleaved gate, which the CLI
# cannot express, so it is left out.
RB_LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
RB_RUNS = (  # (lengths, sequences, shots, depolarizing, prep error, interleaved)
    (9, 45, 250, 0.01, 0.0, False),
    (9, 45, 250, 0.01, 0.02, False),
    (8, 40, 250, 0.01, 0.0, True),
)


def _seed64(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _lindblad_sweep(rng: random.Random, index: int) -> list:
    # demo 02's scan, one two_tone_scan call per drive point; a drive point
    # costs ~0.5 s, so a pass takes every fifth point of the grid and
    # consecutive passes take the next fifth.  Each pass shifts its points
    # by a draw of its own, under a fifth of the grid step.
    lo, hi, n = TWO_TONE_GRID
    step = (hi - lo) / (n - 1)
    shift = rng.uniform(-0.2, 0.2) * step
    jobs = [dict(kind="two_tone", omega_d=lo + k * step + shift, **TWO_TONE)
            for k in range(index % 5, n, 5)]
    # demo 04's driven qubit (5 MHz drive, 1 sample per ns) over 200 ns at
    # the CLI's default dt, with demo 04's decay (1/T1 = 0.01,
    # Gamma_phi = 0.004 per ns)
    u = rng.uniform(0.9, 1.1)
    t1 = 100.0 * u
    jobs.append(dict(kind="cli_evolve", t1_ns=t1, t2_ns=1 / (0.5 / t1 + 0.004 * u),
                     drive_ghz=0.005 * rng.uniform(0.9, 1.1),
                     detuning_ghz=rng.uniform(-0.001, 0.001),
                     t_end_ns=200.0, samples=201))
    # Rabi, T1 and Ramsey in equal numbers, at the settings of their tier-1
    # fit tests, read out with 2000 shots per point.  Seven of each (~0.07 s
    # a run) give a pass 27 jobs, so that four passes hold the 100 latency
    # samples a run needs.
    for _ in range(7):
        u = rng.uniform(0.9, 1.1)
        rabi = 0.01 / u
        jobs.append(dict(kind="cli_experiment", exp="rabi", rabi_ghz=rabi,
                         t1_ns=2000.0 * u, t2_ns=3000.0 * u, tau_max_ns=3.0 / rabi,
                         points=61, shots=2000, seed=_seed64(rng)))
        u = rng.uniform(0.9, 1.1)
        jobs.append(dict(kind="cli_experiment", exp="t1", t1_ns=500.0 * u,
                         t2_ns=1000.0 * u, tau_max_ns=2500.0 * u, points=41,
                         shots=2000, seed=_seed64(rng)))
        u = rng.uniform(0.9, 1.1)
        jobs.append(dict(kind="cli_experiment", exp="ramsey", t1_ns=5000.0 * u,
                         t2_ns=1500.0 * u, detuning_ghz=0.002 / u,
                         tau_max_ns=2000.0 * u, points=101, shots=2000,
                         seed=_seed64(rng)))
    return jobs


def _pulse_gates(rng: random.Random, index: int) -> list:
    jobs = []
    # the tier-1 CZ excursion (5.0 GHz, alpha -0.3, J 0.02, idle 5.8 GHz,
    # gate near 5.42 GHz, cosine ramps) at three lengths
    for tau in (10.0, 15.0, 20.0):
        jobs.append(dict(kind="cz_sim", omega_q1=5.0, alpha_1=-0.3,
                         alpha_2=-0.3, j=0.02, tau=tau, w_idle=5.8,
                         w_gate=rng.uniform(5.40, 5.45), ramp=tau / 4))
    # demo 06: the 6.4 ns Gaussian pi pulse plain and with DRAG, GRAPE at
    # the CLI default (4 slices) and the bounded 12-slice problem
    jobs.append(dict(kind="leakage", alpha_ghz=-0.2, duration=6.4, nsamples=641))
    jobs.append(dict(kind="cli_grape", seed=_seed64(rng)))
    jobs.append(dict(kind="grape_bounded", alpha_ghz=-0.2, n_slices=12,
                     dt=1.6, bound_ghz=0.04, seed=_seed64(rng)))
    # demo 07: Hahn and XY4 echoes, CPMG n = 1, 2, 4, 8, tau = 20 ns,
    # coupling 0.13 rad/ns, filter functions on 4001 points
    j_z = 0.13 / (2 * math.pi) * rng.uniform(0.9, 1.1)
    for kind, n in (("hahn", 1), ("xy4", 1), ("cpmg", 1), ("cpmg", 2),
                    ("cpmg", 4), ("cpmg", 8)):
        jobs.append(dict(kind="cli_echo", seq=kind, n=n, j_z_ghz=j_z,
                         tau_ns=20.0 * rng.uniform(0.95, 1.05), npoints=4001))
    # demo 05: iSWAP, bSWAP, coherent-exchange CZ at J = 0.01 GHz, and CR
    # with 6.0 / 5.5 GHz, J = 0.01 GHz, epsilon = 0.05 GHz
    j = 0.01 * rng.uniform(0.9, 1.1)
    jobs.append(dict(kind="cli_gate", gate="iswap", j_ghz=j,
                     tau_ns=(math.pi / 2) / (2 * math.pi * j)))
    jobs.append(dict(kind="cli_gate", gate="bswap", j_ghz=j,
                     tau_ns=math.pi / (2 * math.pi * j)))
    jobs.append(dict(kind="cli_gate", gate="cz", j_ghz=j,
                     tau_ns=math.pi / (math.sqrt(2) * 2 * math.pi * j)))
    w1, w2, jc, eps = 6.0 * rng.uniform(0.99, 1.01), 5.5, 0.01, 0.05
    omega_cr = eps * jc / (w1 - w2)
    jobs.append(dict(kind="cli_gate", gate="cr", j_ghz=jc, epsilon_ghz=eps,
                     omega_q1_ghz=w1, omega_q2_ghz=w2, alpha_1_ghz=-0.3,
                     tau_ns=(math.pi / 2) / (2 * math.pi * omega_cr)))
    # demo 01's transmon (E_J = 20, E_C = 0.4 GHz), once per qubit of the pair
    for _ in range(2):
        jobs.append(dict(kind="cli_spectrum", e_c_ghz=0.4 * rng.uniform(0.95, 1.05),
                         e_j_ghz=20.0 * rng.uniform(0.95, 1.05)))
    # no demo drives a TimeDependentH; one Gaussian pi pulse under T1 / T2
    jobs.append(dict(kind="driven_lindblad", area=math.pi * rng.uniform(0.9, 1.1),
                     sigma_ns=4.0, t_end_ns=20.0, samples=41,
                     detuning_ghz=rng.uniform(-0.002, 0.002),
                     t1_ns=rng.uniform(100.0, 200.0), t2_ratio=rng.uniform(0.8, 1.6)))
    return jobs


def _qec_rb(rng: random.Random, index: int) -> list:
    jobs = []
    for d, p in QEC_POINTS:
        # seeded calls of QEC_CALL_SHOTS each, so that the capacity aborts at
        # d = 5, p = 0.08 average out within a pass; the d = 5, p = 0.15 point
        # stays one call of all its shots, which aborts on every seed
        calls = 1 if (d, p) == (5, 0.15) else QEC_SHOTS // QEC_CALL_SHOTS
        jobs += [dict(kind="cli_qec", d=d, p=p, shots=QEC_SHOTS // calls,
                      seed=_seed64(rng)) for _ in range(calls)]
    # demo 08 encodes on the tableau and extracts syndromes; here at d = 5
    jobs.append(dict(kind="tableau", d=5, cycles=3,
                     p=rng.uniform(0.005, 0.02), seed=_seed64(rng)))
    for n_lengths, sequences, shots, rate, prep, interleaved in RB_RUNS:
        jobs.append(dict(kind="cli_rb", lengths=list(RB_LENGTHS[:n_lengths]),
                         sequences=sequences, shots=shots,
                         depolarizing=rate * rng.uniform(0.8, 1.2), prep_error=prep,
                         interleaved=rng.randrange(24) if interleaved else -1,
                         seed=_seed64(rng)))
    return jobs


_MAKERS = {"lindblad_sweep": _lindblad_sweep, "pulse_gates": _pulse_gates,
           "qec_rb": _qec_rb}


def pass_jobs(workload: str, seed: int, index: int) -> list:
    """Job list of pass ``index`` of a run with ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = _MAKERS[workload](rng, index)
    for k, job in enumerate(jobs):
        job["id"] = f"p{index}-j{k:03d}-{job['kind']}"
    return jobs
