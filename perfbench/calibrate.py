"""Machine-speed probe used to express timings at one reference speed.

On a shared machine the speed of one core drifts by tens of percent over
seconds (measured: block medians of the same call differing by 1.4-1.5x
within a minute).  The probe runs a fixed kernel built like scqsim's inner
loops (2x2 Lindblad Euler steps with an eigendecomposition, a 9x9 Duffing
Hamiltonian built from Kronecker products and exponentiated through
``eigh``, and small bit arrays turned into dict keys) right before and right
after each timed call, and every ``PERIOD_S`` during it from a SIGALRM
handler.  The time of those in-call probes is taken off ``clock``, the
clock of every timed call and of every traced span, so it lands in neither.
A timing ``t`` taken while the probe took ``c`` on average is reported as
``t * REFERENCE_S / c``: the time the call would take on a core where the
probe takes ``REFERENCE_S``.  The kernel is the benchmark's own code, so a
faster scqsim does not move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.7e-3     # probe median on the 2-core box the bounds were set on
PERIOD_S = 0.2

_in_call_probes_s = 0.0  # time of all in-call probes so far

_H = np.array([[0.1, 0.3], [0.3, -0.1]], dtype=complex)
_L = np.array([[0, 0.05], [0, 0]], dtype=complex)
_LD = _L.conj().T
_LL = _LD @ _L
_H9 = (lambda a: (a + a.T).astype(complex))(np.random.default_rng(0).normal(size=(9, 9)))
_B3 = np.diag(np.sqrt([1.0, 2.0]), 1).astype(complex)
_N3 = _B3.conj().T @ _B3
_E3 = np.eye(3)
_BITS = np.random.default_rng(1).integers(0, 2, size=(64, 12)).astype(np.int8)


def _kernel():
    rho = np.diag([1.0, 0.0]).astype(complex)
    for _ in range(12):
        k1 = -1j * (_H @ rho - rho @ _H) + _L @ rho @ _LD - 0.5 * (_LL @ rho + rho @ _LL)
        rho = rho + 0.01 * k1
        np.linalg.eigh(0.5 * (rho + rho.conj().T))
    u = np.eye(9, dtype=complex)
    for i in range(6):
        w, v = np.linalg.eigh(_H9 * (1 + 0.01 * i))
        u = (v * np.exp(-0.01j * w)) @ v.conj().T @ u
    for i in range(4):
        h = (np.kron(_N3 * (5 + 0.1 * i) + 0.5 * (_N3 @ _N3 - _N3), _E3)
             + np.kron(_E3, _N3)
             + 0.02 * (np.kron(_B3.conj().T, _B3) + np.kron(_B3, _B3.conj().T)))
        m = np.asarray(h, dtype=complex)
        m.setflags(write=False)
        np.max(np.abs(m - m.conj().T))
        w, v = np.linalg.eigh(m * 6.28)
        u = (v * np.exp(-0.005j * w)) @ v.conj().T @ u
    seen = {}
    for row in _BITS:
        key = tuple(np.nonzero(row)[0].tolist())
        seen[key] = seen.get(key, 0) + len(key)
    return u, seen


def probe() -> float:
    """Median of three kernel timings, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def clock() -> float:
    """``perf_counter`` stopped while an in-call probe runs."""
    return time.perf_counter() - _in_call_probes_s


def timed(fn) -> tuple:
    """Runs ``fn()``; returns (result, error, seconds on ``clock``, the
    probe timings taken before, during and after the call).

    ``error`` is the text of an exception ``fn`` raised, else None.
    """
    probes = [probe()]

    def tick(signum, frame):
        global _in_call_probes_s
        start = time.perf_counter()
        probes.append(probe())
        _in_call_probes_s += time.perf_counter() - start

    result = error = None
    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = clock()
    try:
        result = fn()
    except Exception as exc:     # a failed call is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = clock() - start
        signal.signal(signal.SIGALRM, old)
    probes.append(probe())
    return result, error, elapsed, probes
