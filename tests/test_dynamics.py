import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from scqsim import dynamics as dyn
from scqsim import qcore as q
from scqsim.coupling import JCParams, jc_hamiltonian

SX = q.SIGMA_X.entries
EXCITED = np.diag([0.0, 1.0]).astype(complex)


def test_qubit_decay_rates():
    """L1 = sqrt(Gamma) |0><1| alone: populations decay at Gamma,
    coherences at Gamma/2."""
    gamma = 0.04
    rho0 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    times = np.linspace(0.0, 5 / gamma, 26)
    res = dyn.lindblad_evolve(np.zeros((2, 2), complex), rho0,
                              [dyn.qubit_decay(gamma)], times=times, dt=0.25)
    p11 = np.array([s.entries[1, 1].real for s in res.states])
    coh = np.array([abs(s.entries[0, 1]) for s in res.states])
    assert np.max(np.abs(p11 - 0.5 * np.exp(-gamma * times))) < 1e-8
    assert np.max(np.abs(coh - 0.5 * np.exp(-gamma * times / 2))) < 1e-8


def test_closed_system_matches_propagator():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (a + a.conj().T) / 2
    psi0 = np.zeros(3, dtype=complex)
    psi0[0] = 1.0
    rho0 = np.outer(psi0, psi0.conj())
    t_end = 2.0
    res = dyn.lindblad_evolve(h, rho0, [], times=np.array([0.0, t_end]), dt=0.002)
    u = q.propagator(h, t_end).entries
    want = u @ rho0 @ u.conj().T
    assert np.max(np.abs(res.states[-1].entries - want)) < 1e-8


def test_driven_dephasing_vs_step_halving_oracle():
    h = 0.3 * SX / 2
    collapse = [dyn.qubit_decay(0.02), dyn.qubit_dephasing(0.05)]
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.array([0.0, 120.0])
    coarse = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=0.05)
    fine = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=0.005)
    assert np.max(np.abs(coarse.states[-1].entries - fine.states[-1].entries)) < 1e-6


def test_trace_and_hermiticity_preserved():
    h = 2 * np.pi * 0.8 * EXCITED + 0.2 * SX
    collapse = [dyn.qubit_decay(0.01), dyn.qubit_dephasing(0.02)]
    res = dyn.lindblad_evolve(h, np.diag([0.2, 0.8]).astype(complex), collapse,
                              times=np.linspace(0, 50, 11), dt=0.02)
    for s in res.states:
        assert abs(np.trace(s.entries).real - 1.0) < 1e-6
        assert np.max(np.abs(s.entries - s.entries.conj().T)) < 1e-8


def test_purity_contracts_without_hamiltonian():
    collapse = [dyn.qubit_dephasing(0.05)]
    rho0 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    res = dyn.lindblad_evolve(np.zeros((2, 2), complex), rho0, collapse,
                              times=np.linspace(0, 40, 21), dt=0.05)
    purities = [s.purity() for s in res.states]
    assert all(b <= a + 1e-10 for a, b in zip(purities, purities[1:]))


def test_both_collapse_ops_reproduce_rate_relation():
    """Fitted T1, T2 from simulated decays match the input rates to 0.5%."""
    gamma_par, gamma_phi = 0.02, 0.01
    collapse = [dyn.qubit_decay(gamma_par), dyn.qubit_dephasing(gamma_phi)]
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    times = np.linspace(0.0, 5 / gamma_par, 40)
    res = dyn.lindblad_evolve(np.zeros((2, 2), complex), rho0, collapse,
                              times=times, dt=0.2)
    p11 = np.array([s.entries[1, 1].real for s in res.states])
    coh = np.array([abs(s.entries[0, 1]) for s in res.states])
    t1_fit = -1.0 / np.polyfit(times, np.log(p11), 1)[0]
    t2_fit = -1.0 / np.polyfit(times, np.log(coh), 1)[0]
    assert abs(t1_fit - 1 / gamma_par) * gamma_par < 0.005
    gamma_2 = gamma_par / 2 + gamma_phi
    assert abs(t2_fit - 1 / gamma_2) * gamma_2 < 0.005
    assert t2_fit <= 2 * t1_fit + 1e-9


def test_qubit_collapse_ops():
    assert dyn.qubit_collapse_ops(np.inf, np.inf) == []
    decay_only = dyn.qubit_collapse_ops(100.0, 200.0)
    assert len(decay_only) == 1
    assert np.allclose(decay_only[0].entries, dyn.qubit_decay(0.01).entries)
    ops = dyn.qubit_collapse_ops(100.0, 150.0)
    assert len(ops) == 2
    gamma_phi = 1 / 150.0 - 0.5 / 100.0
    assert np.allclose(ops[1].entries, dyn.qubit_dephasing(gamma_phi).entries)
    with pytest.raises(ValueError, match="T2 cannot exceed 2 T1"):
        dyn.qubit_collapse_ops(80.0, 200.0)


def test_effective_t2_rule():
    assert dyn.effective_t2(100.0, np.inf) == 200.0
    assert dyn.effective_t2(np.inf, np.inf) == np.inf
    assert dyn.effective_t2(np.inf, 80.0) == 80.0
    assert dyn.effective_t2(100.0, 150.0) == 150.0
    with pytest.raises(ValueError, match="T2 cannot exceed 2 T1"):
        dyn.effective_t2(80.0, 200.0)


def test_integration_failure_raises():
    # absurdly large rate with a coarse RK4 step blows the budget of a driven
    # run; the static run of the same qubit takes the exact map
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    args = ([dyn.qubit_decay(50.0)],)
    kw = dict(times=np.array([0.0, 1.0]), dt=0.5)
    driven = dyn.TimeDependentH(np.zeros((2, 2)), [(0.5 * SX, lambda t: 0.1)])
    with pytest.raises(dyn.IntegrationError, match="reduce dt"):
        dyn.lindblad_evolve(driven, rho0, *args, **kw)
    res = dyn.lindblad_evolve(np.zeros((2, 2)), rho0, *args, **kw)
    assert abs(res.states[-1].entries[1, 1] - np.exp(-50.0)) < 1e-15


def _lindblad_rhs(h, collapse, rho):
    """The master equation's right-hand side in matrix form (test oracle)."""
    out = -1j * (h @ rho - rho @ h)
    for c in collapse:
        l = c.entries
        ll = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ll @ rho + rho @ ll)
    return out


def _random_open_system(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    collapse = [q.Operator(0.3 * (rng.standard_normal((d, d))
                                  + 1j * rng.standard_normal((d, d))))
                for _ in range(rng.integers(0, 3))]
    return (a + a.conj().T) / 2, collapse


def test_static_three_level_vs_exact_liouvillian():
    """The static run on the superoperator against expm of a Liouvillian
    assembled column by column from the matrix-form right-hand side."""
    d = 3
    h = 2 * np.pi * np.diag([0.0, 0.05, 0.08]).astype(complex)
    h[0, 1] = h[1, 0] = 0.1
    h[1, 2] = h[2, 1] = 0.07
    lower = np.diag([1.0, np.sqrt(2.0)], k=1).astype(complex)
    collapse = [q.Operator(np.sqrt(0.02) * lower),
                q.Operator(np.sqrt(0.01) * np.diag([0.0, 1.0, 2.0]).astype(complex))]
    basis = np.eye(d * d).reshape(d * d, d, d)
    liou = np.stack([_lindblad_rhs(h, collapse, e).reshape(-1) for e in basis],
                    axis=1)
    rho0 = np.full((d, d), 1.0 / d, dtype=complex)
    times = np.linspace(0.0, 30.0, 16)
    res = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=0.01)
    for t, state in zip(times, res.states):
        want = (expm(liou * t) @ rho0.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(state.entries - want)) < 1e-10


def _gaussian(t):
    return 0.2 * np.exp(-0.5 * ((t - 20.0) / 6.0) ** 2)


def _assert_driven_qubit_matches_solve_ivp(drives):
    """A weakly detuned qubit under T1 = 80, T2 = 120 ns, driven over 40 ns
    at dt = 0.01: every sample within 1e-8 of DOP853 at rtol 1e-10."""
    static = 2 * np.pi * 0.003 * EXCITED
    collapse = dyn.qubit_collapse_ops(80.0, 120.0)
    h = dyn.TimeDependentH(static, drives)
    times = np.linspace(0.0, 40.0, 21)
    res = dyn.lindblad_evolve(h, np.diag([1.0, 0.0]).astype(complex), collapse,
                              times=times, dt=0.01)
    sol = solve_ivp(
        lambda t, v: _lindblad_rhs(h.at(t), collapse, v.reshape(2, 2)).reshape(-1),
        (0.0, 40.0), np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
        t_eval=times, method="DOP853", rtol=1e-10, atol=1e-12)
    for k, state in enumerate(res.states):
        assert np.max(np.abs(state.entries.reshape(-1) - sol.y[:, k])) < 1e-8


def test_driven_qubit_vs_solve_ivp():
    _assert_driven_qubit_matches_solve_ivp([(0.5 * SX, _gaussian)])


def test_two_drive_qubit_vs_solve_ivp():
    """The same qubit with a second, quadrature drive on its own envelope."""
    _assert_driven_qubit_matches_solve_ivp([
        (0.5 * SX, _gaussian),
        (0.5 * q.SIGMA_Y.entries, lambda t: -0.25 * (t - 20.0) / 6.0 * _gaussian(t))])


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_liouvillian_trace_annihilating_and_hermiticity_preserving(seed, d):
    h, collapse = _random_open_system(seed, d)
    liou = dyn.liouvillian(h, collapse)
    assert np.max(np.abs(np.eye(d).reshape(-1) @ liou)) < 1e-12
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lx = (liou @ x.reshape(-1)).reshape(d, d)
    lx_dag = (liou @ x.conj().T.reshape(-1)).reshape(d, d)
    assert np.max(np.abs(lx_dag - lx.conj().T)) < 1e-12
    assert np.max(np.abs(lx - _lindblad_rhs(h, collapse, x))) < 1e-12


def _kron_liouvillian(h, collapse):
    """The Lindblad superoperator from np.kron terms, summed in the order
    :func:`dyn.liouvillian` sums them (its exact oracle)."""
    hm = q._as_matrix(h)
    eye = np.eye(hm.shape[0])
    out = -1j * (np.kron(hm, eye) - np.kron(eye, hm.T))
    for c in collapse:
        l = q._as_matrix(c)
        ll = l.conj().T @ l
        out += np.kron(l, l.conj()) - 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_liouvillian_is_the_kron_formula_bit_for_bit(d):
    """50 random systems per dimension with 0 to 2 collapse operators: the
    broadcast Kronecker terms give the np.kron superoperator byte for byte."""
    for seed in range(50):
        h, collapse = _random_open_system(1000 * d + seed, d)
        got, want = dyn.liouvillian(h, collapse), _kron_liouvillian(h, collapse)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _random_pure_vec(seed, d):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj()).reshape(-1)


def _expm_increment(x):
    """scipy.linalg.expm(X) - I without the cancellation against I: the top
    right block of expm([[X, X], [0, 0]]), which is phi_1(X) X = e^X - I."""
    m = len(x)
    big = np.zeros((2 * m, 2 * m), dtype=complex)
    big[:m, :m] = big[:m, m:] = x
    return expm(big)[:m, m:]


def _scaled_liouvillians(seed, d, norms):
    """A random Liouvillian (0 to 2 collapse operators) scaled to each
    ||X||_1 of ``norms``, as one stack."""
    h, collapse = _random_open_system(seed, d)
    liou = dyn.liouvillian(h, collapse)
    return np.array([liou * (n / np.abs(liou).sum(axis=0).max()) for n in norms])


def _assert_increment_is_expm(got, x):
    """D within 1e-12 relative of expm(X) - I, and I + D within 1e-12
    relative of expm(X)."""
    want = _expm_increment(x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    full = expm(x)
    assert np.linalg.norm(np.eye(len(x)) + got - full) <= 1e-12 * np.linalg.norm(full)


_NORMS = [1e-6, 1e-3, 0.5, 2.0, 7.0, 40.0]


@pytest.mark.parametrize("norm", _NORMS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_powered_step_matches_expm(d, norm):
    """exp(X) - I of random Liouvillians scaled to ||X||_1 = norm, alone and
    in one stack with the other norms (one Taylor plan for the largest)."""
    i = _NORMS.index(norm)
    for seed in range(8):
        xs = _scaled_liouvillians(seed, d, _NORMS)
        _assert_increment_is_expm(dyn._powered_step(xs[i:i + 1])[0], xs[i])
        _assert_increment_is_expm(dyn._powered_step(xs)[i], xs[i])


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(-6.0, np.log10(40.0)))
@settings(max_examples=40, deadline=None)
def test_powered_step_is_cptp_expm(seed, d, log_norm):
    """At a random ||X||_1 from 1e-6 to 40 the map is expm(X), and it takes a
    pure state to a density matrix: trace 1 and Hermitian to 1e-12,
    smallest eigenvalue >= -1e-12."""
    x = _scaled_liouvillians(seed, d, [10.0**log_norm])
    inc = dyn._powered_step(x)[0]
    _assert_increment_is_expm(inc, x[0])
    v = _random_pure_vec(seed, d)
    rho = (v + inc @ v).reshape(d, d)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def _static_qubit(t1, t2):
    h = 2 * np.pi * (0.001 * EXCITED + 0.5 * 0.005 * SX)
    return h, dyn.qubit_collapse_ops(t1, t2)


def _expm_error(h, collapse, times, dt):
    """Largest entry error of the static run's states against expm(L t)."""
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    res = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=dt)
    liou = dyn.liouvillian(h, collapse)
    return max(np.max(np.abs(s.entries.reshape(-1) - expm(liou * t) @ rho0.reshape(-1)))
               for t, s in zip(times, res.states))


@pytest.mark.parametrize("t1, t2, parent_error", [
    (100.0, np.inf, 2.8e-15), (100.0, 150.0, 4.4e-15), (np.inf, np.inf, 4.5e-15),
])
def test_static_run_vs_expm_no_worse_than_step_loop(t1, t2, parent_error):
    """CLI evolve's driven, detuned qubit over 200 ns at dt = 0.01: the
    powered map is at least as close to expm(L t) as the per-step loop was
    (its largest error on these three runs is ``parent_error``)."""
    h, collapse = _static_qubit(t1, t2)
    times = np.linspace(0.0, 200.0, 201)
    assert _expm_error(h, collapse, times, 0.01) <= parent_error


def test_powered_maps_belong_to_their_call():
    """Two runs with the same step count and size but different generators
    each match their own oracle: no map carries over from one call."""
    times = np.linspace(0.0, 50.0, 11)
    for t1, t2 in ((100.0, 150.0), (20.0, 10.0), (np.inf, np.inf)):
        h, collapse = _static_qubit(t1, t2)
        assert _expm_error(h, collapse, times, 0.01) < 1e-13


def _per_sample_static(h, rho0, collapse, times, e_ops):
    """The static path sample by sample (oracle): a chain of exact
    increments v <- v + (exp(L dt_j) - I) v from the repaired initial state,
    no repair fed forward, each sample drift-checked, renormalized,
    repaired and put through the full DensityMatrix constructor on its own.
    Also returns the repair counts, the chunk count and the number of
    distinct interval maps."""
    l0 = dyn.liouvillian(h, collapse)
    stats = {"renormalized": 0, "clipped": 0, "clipped_mass": 0.0,
             "max_trace_drift": 0.0}
    rho = dyn._repair(dyn._coerce_rho(rho0), 0.0, stats)
    states = [q.DensityMatrix(rho)]
    expect = {k: [float(np.trace(rho @ a).real)] for k, a in e_ops.items()}
    spans, index = np.unique(np.diff(times), return_inverse=True)
    incs = dyn._powered_step(l0 * spans[:, None, None]) if spans.size else None
    v = rho.reshape(-1)
    for j, t in zip(index, times[1:]):
        v = v + incs[j] @ v
        rho = v.reshape(rho.shape)
        drift = abs(np.trace(rho).real - 1.0)
        if not np.isfinite(drift) or drift > dyn.TRACE_HARD_LIMIT:
            raise dyn.IntegrationError(f"trace drift {drift:.2e} at t = {t:.4g} ns")
        stats["max_trace_drift"] = max(stats["max_trace_drift"], drift)
        if drift > dyn.TRACE_SOFT_LIMIT:
            rho = rho / np.trace(rho).real
            stats["renormalized"] += 1
        rho = dyn._repair(rho, t, stats)
        states.append(q.DensityMatrix(rho))
        for k, a in e_ops.items():
            expect[k].append(float(np.trace(rho @ a).real))
    stats.update(checked_blocks=_chunks(len(times) - 1, h), powered_maps=len(spans))
    return states, {k: np.asarray(v) for k, v in expect.items()}, stats


def _chunks(n, h):
    """The checked chunks of n stepped samples of a static run of H."""
    size = q._chunk(len(h) ** 2)
    return -(-n // size)


def _assert_same_as_per_sample(h, rho0, collapse, times, e_ops=None):
    e_ops = {"x": SX, "n": EXCITED} if e_ops is None else e_ops
    want_states, want_expect, want_stats = _per_sample_static(
        h, rho0, collapse, np.asarray(times, dtype=float), e_ops)
    res = dyn.lindblad_evolve(h, rho0, collapse, times=times, e_ops=e_ops)
    assert len(res.states) == len(want_states)
    assert all(np.array_equal(a.entries, b.entries)
               for a, b in zip(res.states, want_states))
    assert res.expectations.keys() == want_expect.keys()
    assert all(np.array_equal(res.expectations[k], want_expect[k]) for k in want_expect)
    assert res.stats == want_stats
    return res.stats


def _random_state(rng, d, pure):
    if pure:
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return psi / np.linalg.norm(psi)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = m @ m.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("seed", range(24))
def test_block_checks_equal_per_sample_checks(seed):
    """Random static runs (d = 2 to 4, 0 to 2 collapse operators, pure and
    mixed initial states, random and repeated sample times) are bit-equal
    to the per-sample loop, states, expectations and counts alike."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    h, collapse = _random_open_system(seed, d)
    times = np.sort(rng.uniform(0.0, 5.0, rng.integers(1, 80)))
    times = np.repeat(times, rng.integers(1, 3, times.size))
    e_ops = {"h": h, "p0": np.diag(np.eye(d)[0]).astype(complex)}
    _assert_same_as_per_sample(h, _random_state(rng, d, seed % 2 == 0), collapse,
                               times, e_ops)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("d", [2, 3])
def test_chunk_edges_equal_per_sample(d, offset):
    """n = _chunk(d^2) - 1, _chunk(d^2) and _chunk(d^2) + 1 stepped samples
    on non-uniform times with repeats, bit-equal to the per-sample loop in
    ceil(n / chunk) chunks: a pure qubit with clip events (d = 2) and a
    random mixed open system (d = 3)."""
    rng = np.random.default_rng(10 * d + offset + 1)
    size = q._chunk(d * d)
    n = size + offset
    gaps = rng.uniform(0.0, 2.0, n)
    gaps[rng.choice(n, n // 8, replace=False)] = 0.0          # repeated times
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    if d == 2:
        h, collapse = _static_qubit(np.inf, np.inf)
        rho0, e_ops = np.array([1.0, 0.0]), None
    else:
        h, collapse = _random_open_system(7, d)
        rho0, e_ops = _random_state(rng, d, False), {"h": h}
    stats = _assert_same_as_per_sample(h, rho0, collapse, times, e_ops)
    assert stats["checked_blocks"] == _chunks(n, h)
    assert stats["powered_maps"] == len(np.unique(gaps))
    if d == 2:
        assert stats["clipped"] > 0 and stats["clipped_mass"] > 0.0


@pytest.mark.parametrize("samples", [1, 2, 201, 2001])
def test_pure_state_clip_events_equal_per_sample(samples):
    """CLI evolve's default T1 = T2 = inf: a pure state on one-sample to
    2,001-sample grids.  At 0.1 ns spacing its eigenvalue dust is clipped
    at most samples; at 1 ns it stays non-negative."""
    h, collapse = _static_qubit(np.inf, np.inf)
    stats = _assert_same_as_per_sample(h, np.array([1.0, 0.0]), collapse,
                                       np.linspace(0.0, 200.0, samples))
    if samples == 2001:
        assert stats["clipped"] > samples // 10
    assert stats["checked_blocks"] == _chunks(samples - 1, h)
    assert stats["renormalized"] == 0


def test_decaying_qubit_checks_few_blocks():
    """With decay, no sample needs repair: 200 samples are one check per
    chunk of ``_chunk(4)`` samples and one interval map."""
    h, collapse = _static_qubit(100.0, 150.0)
    stats = _assert_same_as_per_sample(h, np.diag([1.0, 0.0]), collapse,
                                       np.linspace(0.0, 200.0, 201))
    assert stats == {"renormalized": 0, "clipped": 0, "clipped_mass": 0.0,
                     "checked_blocks": _chunks(200, h),
                     "max_trace_drift": stats["max_trace_drift"],
                     "powered_maps": 1}
    assert 0.0 < stats["max_trace_drift"] < 1e-14


def test_every_sample_renormalized_equal_per_sample(monkeypatch):
    """With the soft limit at 0 every sample with any drift renormalizes
    (188 of these 200 samples; the others have none)."""
    monkeypatch.setattr(dyn, "TRACE_SOFT_LIMIT", 0.0)
    h, collapse = _static_qubit(100.0, 150.0)
    stats = _assert_same_as_per_sample(h, np.diag([1.0, 0.0]), collapse,
                                       np.linspace(0.0, 200.0, 201))
    assert stats["renormalized"] > 20
    assert stats["checked_blocks"] == _chunks(200, h)


def _outcome(fn):
    """The type and text of the exception ``fn()`` raises, or None."""
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("h, rho0, collapse, times, dt", [
    # positivity lost mid-run: a coherence outgrows RK4's stability region
    (1.42 * q.SIGMA_Z.entries, 0.5 * np.eye(2) + 0.1 * SX, [],
     np.arange(0.0, 200.0, 1.0), 1.0),
    # positivity lost at the first sample
    (np.zeros((2, 2)), np.diag([0.0, 1.0]), [dyn.qubit_decay(50.0)],
     np.array([0.0, 1.0]), 0.5),
    # coherences overflow while the trace stays 1: min eigenvalue nan
    (np.zeros((2, 2)), np.full((2, 2), 0.5), [dyn.qubit_dephasing(2e100)],
     np.array([0.0, 1.0, 2.0, 3.0]), 1.0),
    # trace drift nan and 1.00e+00
    (np.pi * 0.5 * SX, np.diag([1.0, 0.0]), dyn.qubit_collapse_ops(0.001, np.inf),
     np.linspace(0.0, 1000.0, 2), 1.0),
    (np.pi * 0.5 * SX, np.diag([1.0, 0.0]), dyn.qubit_collapse_ops(0.001, np.inf),
     np.linspace(0.0, 10.0, 3), 1.0),
])
def test_unstable_runs_fail_as_per_sample(h, rho0, collapse, times, dt):
    """RK4 outside its stability region: a driven run (a drive of zero
    amplitude, so its generator is the static one) fails as the stage loop
    does, with the same error and text; the static run of the same inputs
    takes exact maps and does not fail."""
    driven = dyn.TimeDependentH(h, [(SX, lambda t: 0.0)])
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(lambda: _stage_loop(driven, rho0, collapse, times, dt))
    got = _outcome(lambda: dyn.lindblad_evolve(driven, rho0, collapse, times=times,
                                               dt=dt))
    assert want is not None and want[0] is dyn.IntegrationError
    assert got == want
    dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=dt)


def test_trace_check_error_order_equal_per_sample(monkeypatch):
    """A drift at or above NORM_TOL on a sample with no repair still raises
    DensityMatrix's trace error, at the same sample: here NORM_TOL is set
    below the round-off of a decaying qubit."""
    monkeypatch.setattr(q, "NORM_TOL", 1e-17)
    monkeypatch.setattr(dyn, "NORM_TOL", 1e-17)
    h, collapse = _static_qubit(100.0, 150.0)
    args = (h, np.diag([1.0, 0.0]).astype(complex), collapse,
            np.linspace(0.0, 200.0, 201))
    want = _outcome(lambda: _per_sample_static(*args, {}))
    got = _outcome(lambda: dyn.lindblad_evolve(*args[:3], times=args[3]))
    assert want is not None and want[0] is ValueError and "trace" in want[1]
    assert got == want


def test_block_states_share_one_frozen_array():
    """Verified states view their block's array and cannot be written."""
    h, collapse = _static_qubit(100.0, 150.0)
    res = dyn.lindblad_evolve(h, np.diag([1.0, 0.0]), collapse,
                              times=np.linspace(0.0, 10.0, 11))
    assert res.states[1].entries.base is res.states[2].entries.base
    assert not res.states[1].entries.flags.writeable


def test_driven_run_stats():
    """A driven run checks every sample on its own: no blocks, no maps."""
    h = dyn.TimeDependentH(np.zeros((2, 2)), [(0.5 * SX, lambda t: 0.3)])
    res = dyn.lindblad_evolve(h, np.array([1.0, 0.0]), [], times=np.linspace(0, 5, 6))
    assert res.stats["checked_blocks"] == res.stats["powered_maps"] == 0
    assert res.stats["renormalized"] == 0


def _stage_generators(h, collapse):
    """The driven generator as the stage loop built it, L0 + sum_k u_k(t) L_k."""
    l0 = dyn.liouvillian(h.static, collapse)
    drives = [(dyn.liouvillian(op), fn) for op, fn in h.drives]

    def generator(t):
        out = l0
        for lk, fn in drives:
            out = out + float(fn(t)) * lk
        return out

    return generator


def _stage_loop(h, rho0, collapse, times, dt):
    """The driven run as the RK4 stage loop (oracle): every step builds the
    generator at t, t + sub/2 and t + sub and applies the four stages to
    the state, from the repaired initial state."""
    generator = _stage_generators(h, collapse)
    stats = {"renormalized": 0, "clipped": 0, "clipped_mass": 0.0,
             "checked_blocks": 0, "max_trace_drift": 0.0, "powered_maps": 0,
             "rk4_steps": 0}
    rho = dyn._repair(dyn._coerce_rho(rho0), 0.0, stats)
    states = [rho]
    for t0, t1 in zip(times[:-1], times[1:]):
        nsub, sub = dyn._substeps(t1 - t0, dt)
        v, t = rho.reshape(-1), t0
        for _ in range(nsub):
            stats["rk4_steps"] += 1
            mid = generator(t + sub / 2)
            k1 = generator(t) @ v
            k2 = mid @ (v + sub / 2 * k1)
            k3 = mid @ (v + sub / 2 * k2)
            k4 = generator(t + sub) @ (v + sub * k3)
            v = v + sub / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += sub
        rho = dyn._settle(v.reshape(rho.shape), t1, dt, stats)
        states.append(rho)
    return states, stats


def _driven_case(seed):
    """A random driven open system (d = 2 to 4) on uneven sample times with a
    repeat, or (seed 0) a weakly driven pure qubit whose dust gets clipped."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        h = dyn.TimeDependentH(2 * np.pi * 0.002 * EXCITED,
                               [(np.pi * SX, lambda t: 0.01 * np.cos(0.01 * t))])
        return h, np.array([1.0, 0.0]), [], np.linspace(0.0, 100.0, 201)
    d = 2 + seed % 3
    h0, collapse = _random_open_system(seed, d)
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = rng.uniform(0.5, 3.0)
    h = dyn.TimeDependentH(h0, [((b + b.conj().T) / 2, lambda t: 0.7 * np.cos(w * t))])
    times = np.sort(np.append(rng.uniform(0.0, 2.0, 12), [0.0, 1.0, 1.0]))
    return h, _random_state(rng, d, seed % 2 == 0), collapse, times


@pytest.mark.parametrize("seed", range(7))
def test_driven_run_matches_stage_loop(seed):
    """The step increments from generator words take the same RK4 steps as
    the stage loop: states within round-off (1e-13), the same repair counts,
    and an interval of nsub steps evaluates each envelope 1 + 2 nsub times,
    at the stage loop's times."""
    h, rho0, collapse, times = _driven_case(seed)
    calls = []
    (op, fn), = h.drives
    counted = dyn.TimeDependentH(h.static, [(op, lambda t: calls.append(t) or fn(t))])
    res = dyn.lindblad_evolve(counted, rho0, collapse, times=times, dt=0.01)
    want_states, want_stats = _stage_loop(h, rho0, collapse, times, 0.01)
    assert len(res.states) == len(want_states)
    assert max(np.max(np.abs(a.entries - b))
               for a, b in zip(res.states, want_states)) < 1e-13
    counts = ("renormalized", "clipped", "checked_blocks", "powered_maps", "rk4_steps")
    assert {k: res.stats[k] for k in counts} == {k: want_stats[k] for k in counts}
    for k in ("max_trace_drift", "clipped_mass"):
        assert abs(res.stats[k] - want_stats[k]) < 1e-14
    want_calls = []
    for t0, t1 in zip(times[:-1], times[1:]):
        nsub, sub = dyn._substeps(t1 - t0, 0.01)
        t = t0
        want_calls.append(t)
        for _ in range(nsub):
            want_calls += [t + sub / 2, t + sub]
            t += sub
    assert calls == want_calls
    if seed == 0:
        assert res.stats["clipped"] > 0


def test_driven_run_counts_its_rk4_steps():
    """A driven run reports its RK4 steps, the sum of nsub over its
    intervals: 40 intervals of 0.5 ns at dt = 0.01 ns are 2,000 steps, as
    the stage loop counts them.  A static run takes no RK4 step and keeps
    its stats as they were."""
    h = dyn.TimeDependentH(2 * np.pi * 0.1 * EXCITED,
                           [(np.pi * SX, lambda t: 0.02 * np.cos(0.3 * t))])
    rho0, collapse = np.diag([1.0, 0.0]), dyn.qubit_collapse_ops(100.0, 150.0)
    times = np.linspace(0.0, 20.0, 41)
    res = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=0.01)
    assert res.stats["rk4_steps"] == 2000
    assert _stage_loop(h, rho0, collapse, times, 0.01)[1]["rk4_steps"] == 2000
    static = dyn.lindblad_evolve(h.static, rho0, collapse, times=times, dt=0.01)
    assert "rk4_steps" not in static.stats


def _stage_map_increment(generator, t, h, m):
    """I + D of one RK4 step, the four stages applied to the identity."""
    g0, gm, g1 = generator(t), generator(t + h / 2), generator(t + h)
    eye = np.eye(m)
    k1 = g0 @ eye
    k2 = gm @ (eye + h / 2 * k1)
    k3 = gm @ (eye + h / 2 * k2)
    k4 = g1 @ (eye + h * k3)
    return h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize("n_drives", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_step_increments_equal_stage_form_maps(d, n_drives):
    """Each step increment from the generator words equals the stage-form
    RK4 map's, to 1e-14 relative, on random systems with one and two drives
    and steps of ||L|| h from 0.01 to 0.5."""
    for seed in range(6):
        rng = np.random.default_rng(100 * d + 10 * n_drives + seed)
        h0, collapse = _random_open_system(seed, d)
        ops = []
        for _ in range(n_drives):
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ops.append((b + b.conj().T) / 2)
        amps, freqs = rng.uniform(0.2, 2.0, n_drives), rng.uniform(0.5, 3.0, n_drives)
        h = dyn.TimeDependentH(h0, [(op, lambda t, a=a, w=w: a * np.cos(w * t))
                                    for op, a, w in zip(ops, amps, freqs)])
        generator = _stage_generators(h, collapse)
        gens = np.stack([dyn.liouvillian(h0, collapse)]
                        + [dyn.liouvillian(op) for op in ops])
        words = dyn._generator_words(gens)
        sub = rng.uniform(0.01, 0.5) / np.linalg.norm(gens[0], 2)
        rows = list(dyn._envelope_rows([fn for _, fn in h.drives], 0.3, 40, sub, 16))
        assert [len(r) for r in rows] == [33, 33, 17]
        incs = np.concatenate([dyn._step_increments(words, r, sub) for r in rows])
        t = 0.3
        for inc in incs.reshape(-1, d * d, d * d):
            want = _stage_map_increment(generator, t, sub, d * d)
            assert np.linalg.norm(inc - want) <= 1e-14 * np.linalg.norm(want)
            t += sub


def _driven_interval_peak(steps):
    """The tracemalloc peak of a driven d = 3 run over one sample interval
    of ``steps`` RK4 steps."""
    h0, collapse = _random_open_system(3, 3)
    h = dyn.TimeDependentH(h0, [(np.diag([0.0, 1.0, 2.0]), lambda t: 0.1 * np.cos(t))])
    times = np.array([0.0, steps * 0.001])
    tracemalloc.start()
    try:
        dyn.lindblad_evolve(h, np.eye(3)[0], collapse, times=times, dt=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_driven_interval_memory_is_flat():
    """Steps go chunk by chunk: a 100,000-step interval peaks within 1.5x
    of a 1,000-step one."""
    assert _driven_interval_peak(100_000) <= 1.5 * _driven_interval_peak(1_000)


def test_initial_state_is_repaired_before_it_is_used():
    """An input with -5e-7 of population in |1>: the first sample, its
    expectation and the stepping all start from the clipped state, so no
    sample reports a negative population and only the input is clipped."""
    rho0 = np.diag([1.0 + 5e-7, -5e-7]).astype(complex)
    res = dyn.lindblad_evolve(np.zeros((2, 2)), rho0,
                              dyn.qubit_collapse_ops(100.0, 150.0),
                              times=np.linspace(0.0, 10.0, 3), e_ops={"p1": EXCITED})
    assert np.array_equal(res.states[0].entries, np.diag([1.0, 0.0]))
    assert res.expectations["p1"][0] == 0.0
    assert np.all(res.expectations["p1"] >= 0.0)
    assert res.stats["clipped"] == 1


def test_unitary_evolve_rejects_density_matrix():
    h = 2 * np.pi * 0.1 * SX
    rho = np.diag([1.0, 0.0]).astype(complex)
    for state in (rho, q.DensityMatrix(rho)):
        with pytest.raises(ValueError, match="lindblad_evolve"):
            dyn.unitary_evolve(h, state, times=np.array([0.0, 1.0]))


@pytest.mark.parametrize("dt, t_span", [
    (0.0, 1.0), (-0.01, 1.0), (np.inf, 1.0), (np.nan, 1.0),
    (1e-2, -10.0), (1e-2, np.inf),
])
def test_bad_step_or_span_raises(dt, t_span):
    h = 2 * np.pi * 0.1 * SX
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="must be finite"):
        dyn.lindblad_evolve(h, rho, [], dt=dt, t_span=t_span)
    with pytest.raises(ValueError, match="must be finite"):
        dyn.unitary_evolve(h, q.ket(0, 2), dt=dt, t_span=t_span)


@pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, np.nan], [0.0, np.inf]])
def test_bad_sample_times_raise(times):
    h = 2 * np.pi * 0.1 * SX
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="non-decreasing"):
        dyn.lindblad_evolve(h, rho, [], times=np.array(times))
    with pytest.raises(ValueError, match="non-decreasing"):
        dyn.unitary_evolve(h, q.ket(0, 2), times=np.array(times))


def test_empty_sample_grid_raises():
    h = 2 * np.pi * 0.1 * SX
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="sample grid is empty"):
        dyn.lindblad_evolve(h, rho, [], times=np.array([]))
    with pytest.raises(ValueError, match="sample grid is empty"):
        dyn.unitary_evolve(h, q.ket(0, 2), times=[])


@pytest.mark.parametrize("h, shape", [
    (0, r"\(\)"), (np.zeros(2), r"\(2,\)"), (np.zeros((2, 3)), r"\(2, 3\)"),
    (np.zeros((1, 2, 2)), r"\(1, 2, 2\)"),
])
def test_non_square_hamiltonian_raises_naming_its_shape(h, shape):
    """A scalar, vector or non-square H is a ValueError naming its shape,
    from ``liouvillian`` and from ``lindblad_evolve`` alike."""
    with pytest.raises(ValueError, match=f"square matrix, got shape {shape}"):
        dyn.liouvillian(h)
    with pytest.raises(ValueError, match=f"square matrix, got shape {shape}"):
        dyn.lindblad_evolve(h, EXCITED, times=[0.0, 1.0])


def test_hamiltonian_of_another_dimension_than_rho_raises():
    """H of dimension 3 against a qubit rho (or the reverse) is a ValueError
    naming both shapes, before any stepping."""
    with pytest.raises(ValueError, match=r"rho of shape \(2, 2\) for H of shape \(3, 3\)"):
        dyn.lindblad_evolve(np.eye(3), EXCITED, times=[0.0, 1.0])
    with pytest.raises(ValueError, match=r"rho of shape \(3, 3\) for H of shape \(2, 2\)"):
        dyn.lindblad_evolve(SX, q.ket(0, 3), [dyn.qubit_decay(0.1)], times=[0.0, 1.0])


def test_unitary_evolve_static_exact():
    h = 2 * np.pi * np.array([[0.5, 0.1], [0.1, -0.2]], dtype=complex)
    psi0 = q.ket(0, 2)
    res = dyn.unitary_evolve(h, psi0, times=np.array([0.0, 3.7]), dt=0.5)
    want = q.propagator(h, 3.7).entries @ psi0.amplitudes
    assert np.max(np.abs(res.states[-1].amplitudes - want)) < 1e-12


def test_rabi_oscillation_frequency():
    omega_r = 2 * np.pi * 0.02
    h = omega_r * SX / 2
    times = np.linspace(0.0, 2 * 2 * np.pi / omega_r, 401)
    res = dyn.unitary_evolve(h, q.ket(0, 2), times=times, dt=0.05,
                             e_ops={"p1": EXCITED})
    p1 = res.expectations["p1"]
    assert p1[0] == pytest.approx(0.0, abs=1e-10)
    # population inverted at half period, back at full period
    half = np.argmin(np.abs(times - np.pi / omega_r))
    full = np.argmin(np.abs(times - 2 * np.pi / omega_r))
    assert p1[half] == pytest.approx(1.0, abs=1e-6)
    assert p1[full] == pytest.approx(0.0, abs=1e-6)


def _total_propagator(h, t_span, dt):
    """The time-ordered product of the midpoint steps <= dt over [0, t_span]."""
    return q.ordered_product(dyn.step_propagators(h, np.array([0.0, t_span]), dt))


def test_time_ordering_converges_under_dt_halving():
    # non-commuting schedule: H(t) = sz + u(t) sx with a fast ramp
    sz = q.SIGMA_Z.entries

    def env(t):
        return np.sin(3.0 * t)

    h = dyn.TimeDependentH(1.5 * sz, [(2.0 * SX, env)])
    naive = expm(-1j * 2.0 * (1.5 * sz + 2.0 * SX * np.trapezoid(
        [env(t) for t in np.linspace(0, 2, 200)], np.linspace(0, 2, 200)) / 2.0))
    u_coarse = _total_propagator(h, 2.0, dt=0.02)
    u_fine = _total_propagator(h, 2.0, dt=0.0025)
    u_finer = _total_propagator(h, 2.0, dt=0.00125)
    # the time-ordered product differs from the naive average-H exponential
    assert np.max(np.abs(u_fine - naive)) > 1e-3
    # and converges as dt -> 0 (second-order midpoint rule)
    err1 = np.max(np.abs(u_coarse - u_finer))
    err2 = np.max(np.abs(u_fine - u_finer))
    assert err2 < err1 / 16
    assert err2 < 1e-4


def test_unitarity_drift_small():
    h = dyn.TimeDependentH(
        2 * np.pi * 1.0 * EXCITED, [(SX, lambda t: 0.3 * np.cos(2 * np.pi * t))]
    )
    u = _total_propagator(h, 10.0, dt=0.01)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-8


def test_rotating_frame_zero_generator():
    h = 2 * np.pi * 0.7 * EXCITED
    gen = dyn.rotating_frame(h, h, t=1.3)
    assert np.max(np.abs(gen)) < 1e-12


def test_rotating_frame_jc_structure():
    """Full sx(a + a^dag) coupling in the bare frame shows the four rotating
    terms; the RWA filter keeps only the co-rotating pair."""
    wq, wr, g = 5.0, 6.2, 0.05
    p = JCParams(wq, wr, g, n_max=3)
    nr = p.n_max + 1
    a = q.annihilation(nr).entries
    nq = q.number_op(2).entries
    raise_q = np.array([[0, 0], [1, 0]], dtype=complex)
    h0 = wq * np.kron(nq, np.eye(nr)) + wr * np.kron(np.eye(2), a.conj().T @ a)
    sx_q = raise_q + raise_q.conj().T
    h_full = h0 + g * np.kron(sx_q, a + a.conj().T)

    for t in (0.0, 0.31, 1.7):
        gen = dyn.rotating_frame(h_full, h0, t)
        want = g * (
            np.kron(raise_q, a) * np.exp(1j * (wq - wr) * t)
            + np.kron(raise_q.conj().T, a.conj().T) * np.exp(-1j * (wq - wr) * t)
            + np.kron(raise_q, a.conj().T) * np.exp(1j * (wq + wr) * t)
            + np.kron(raise_q.conj().T, a) * np.exp(-1j * (wq + wr) * t)
        )
        assert np.max(np.abs(gen - want)) < 1e-10

    # RWA: cutoff between |wq - wr| and wq + wr keeps only the JC pair
    filtered = dyn.rwa_filter(h_full, h0, cutoff=3.0)
    want_jc = jc_hamiltonian(p).entries
    assert np.max(np.abs(filtered - want_jc)) < 1e-10


def test_rotating_frame_two_qubit_terms():
    """Exchange coupling in the two-qubit bare frame: the four sigma+-
    sigma-+ terms carry e^{+-i(w1 -+ w2)t} phases on the basis elements."""
    w1, w2, j = 5.0, 5.6, 0.02
    nq = q.number_op(2).entries
    raise_q = np.array([[0, 0], [1, 0]], dtype=complex)
    lower_q = raise_q.conj().T
    h0 = w1 * np.kron(nq, np.eye(2)) + w2 * np.kron(np.eye(2), nq)
    sx = raise_q + lower_q
    h = h0 + j * np.kron(sx, sx)
    t = 0.47
    gen = dyn.rotating_frame(h, h0, t)
    want = j * (
        np.kron(raise_q, lower_q) * np.exp(1j * (w1 - w2) * t)
        + np.kron(lower_q, raise_q) * np.exp(-1j * (w1 - w2) * t)
        + np.kron(raise_q, raise_q) * np.exp(1j * (w1 + w2) * t)
        + np.kron(lower_q, lower_q) * np.exp(-1j * (w1 + w2) * t)
    )
    assert np.max(np.abs(gen - want)) < 1e-12


def test_resonator_decay_bookkeeping():
    """sqrt(kappa/2pi) a gives photon decay at kappa/2pi; to_angular
    converts a target rate into the kappa argument."""
    rate = 0.005
    kappa = q.to_angular(rate)
    n_levels = 6
    a = q.annihilation(n_levels)
    rho0 = np.zeros((n_levels, n_levels), dtype=complex)
    rho0[3, 3] = 1.0
    times = np.linspace(0.0, 100.0, 11)
    res = dyn.lindblad_evolve(
        np.zeros((n_levels, n_levels), complex), rho0,
        [dyn.resonator_decay(kappa, n_levels)], times=times, dt=0.05,
        e_ops={"n": a.entries.conj().T @ a.entries},
    )
    n_t = res.expectations["n"]
    assert np.max(np.abs(n_t - 3.0 * np.exp(-rate * times))) < 1e-6


def test_collapse_constructor_validation():
    with pytest.raises(ValueError):
        dyn.qubit_decay(-0.1)
    with pytest.raises(ValueError):
        dyn.qubit_dephasing(-0.1)
    with pytest.raises(ValueError):
        dyn.resonator_decay(-1.0, 4)


def test_time_dependent_h_dim_check():
    with pytest.raises(ValueError, match="dim"):
        dyn.TimeDependentH(np.eye(2), [(np.eye(3), lambda t: 1.0)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_driven_blowup_raises_without_numpy_warnings():
    """An unstable driven RK4 step overflows to inf/nan inside one sample
    interval; IntegrationError reports it and numpy warns of nothing."""
    h = dyn.TimeDependentH(np.zeros((2, 2)), ((SX, lambda t: 0.5),))
    with pytest.raises(dyn.IntegrationError, match="trace drift"):
        dyn.lindblad_evolve(h, q.ket(0, 2), dyn.qubit_collapse_ops(0.001, 0.002),
                            times=np.array([0.0, 1000.0]), dt=1.0)
