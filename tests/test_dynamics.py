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
    assert np.max(np.abs(res.final().entries - want)) < 1e-8


def test_driven_dephasing_vs_step_halving_oracle():
    h = 0.3 * SX / 2
    collapse = [dyn.qubit_decay(0.02), dyn.qubit_dephasing(0.05)]
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.array([0.0, 120.0])
    coarse = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=0.05)
    fine = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=0.005)
    assert np.max(np.abs(coarse.final().entries - fine.final().entries)) < 1e-6


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
    # absurdly large rate with a coarse step blows the trace budget
    with pytest.raises(dyn.IntegrationError, match="reduce dt"):
        dyn.lindblad_evolve(np.zeros((2, 2), complex),
                            np.diag([0.0, 1.0]).astype(complex),
                            [dyn.qubit_decay(50.0)],
                            times=np.array([0.0, 1.0]), dt=0.5)


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
    """RK4 on the superoperator against expm of a Liouvillian assembled
    column by column from the matrix-form right-hand side."""
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


def test_driven_qubit_vs_solve_ivp():
    sx = q.SIGMA_X.entries
    static = 2 * np.pi * 0.003 * EXCITED
    collapse = dyn.qubit_collapse_ops(80.0, 120.0)

    def envelope(t):
        return 0.2 * np.exp(-0.5 * ((t - 20.0) / 6.0) ** 2)

    h = dyn.TimeDependentH(static, [(0.5 * sx, envelope)])
    times = np.linspace(0.0, 40.0, 21)
    res = dyn.lindblad_evolve(h, np.diag([1.0, 0.0]).astype(complex), collapse,
                              times=times, dt=0.01)
    sol = solve_ivp(
        lambda t, v: _lindblad_rhs(h.at(t), collapse, v.reshape(2, 2)).reshape(-1),
        (0.0, 40.0), np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
        t_eval=times, method="DOP853", rtol=1e-10, atol=1e-12)
    for k, state in enumerate(res.states):
        assert np.max(np.abs(state.entries.reshape(-1) - sol.y[:, k])) < 1e-8


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


def _rk4_loop(liou, v, sub, nsub):
    """The per-step RK4 loop of a static generator (oracle of the powered map)."""
    for _ in range(nsub):
        k1 = liou @ v
        k2 = liou @ (v + sub / 2 * k1)
        k3 = liou @ (v + sub / 2 * k2)
        k4 = liou @ (v + sub * k3)
        v = v + sub / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def _random_pure_vec(seed, d):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj()).reshape(-1)


@pytest.mark.parametrize("nsub", [1, 2, 3, 7, 100, 3200])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_powered_step_matches_rk4_loop(d, nsub):
    """v + D v equals nsub RK4 steps taken one by one, on random dissipative
    Liouvillians with 0 to 2 collapse operators."""
    for seed in range(8):
        h, collapse = _random_open_system(seed, d)
        liou = dyn.liouvillian(h, collapse)
        sub = 0.05 / np.linalg.norm(liou, 2)
        v = _random_pure_vec(seed, d)
        want = _rk4_loop(liou, v, sub, nsub)
        got = v + dyn._powered_step(liou * sub, nsub) @ v
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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


@given(st.integers(0, 2**32 - 1), st.integers(2, 4),
       st.sampled_from([1, 7, 100, 3200]))
@settings(max_examples=40, deadline=None)
def test_powered_step_is_cptp_within_step_contract(seed, d, nsub):
    """With ||L|| dt <= 1e-3 the powered map takes a pure state to a density
    matrix: trace 1 and Hermitian to 1e-12, smallest eigenvalue >= -1e-12."""
    h, collapse = _random_open_system(seed, d)
    liou = dyn.liouvillian(h, collapse)
    v = _random_pure_vec(seed, d)
    rho = (v + dyn._powered_step(liou * (1e-3 / np.linalg.norm(liou, 2)), nsub)
           @ v).reshape(d, d)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def _per_sample_static(h, rho0, collapse, times, dt, e_ops):
    """The static path as it was before block checks (oracle): each sample
    stepped, drift-checked, renormalized, repaired and put through the full
    DensityMatrix constructor on its own.  Also returns the repair counts
    and the block count that the block rule gives for its events."""
    l0 = dyn.liouvillian(h, collapse)
    rho = dyn._coerce_rho(rho0)
    stats = {"renormalized": 0, "clipped": 0, "max_trace_drift": 0.0}
    states = [q.DensityMatrix(dyn._repair(rho, 0.0, stats))]
    expect = {k: [float(np.trace(rho @ a).real)] for k, a in e_ops.items()}
    maps, events = {}, []
    for t0, t1 in zip(times[:-1], times[1:]):
        nsub, sub = dyn._substeps(t1 - t0, dt)
        v = rho.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            if (nsub, sub) not in maps:
                maps[nsub, sub] = dyn._powered_step(l0 * sub, nsub)
            v = v + maps[nsub, sub] @ v
        rho = v.reshape(rho.shape)
        drift = abs(np.trace(rho).real - 1.0)
        if not np.isfinite(drift) or drift > dyn.TRACE_HARD_LIMIT:
            raise dyn.IntegrationError(
                f"trace drift {drift:.2e} at t = {t1:.4g} ns; reduce dt below "
                f"{dt / 4:.3g}")
        stats["max_trace_drift"] = max(stats["max_trace_drift"], drift)
        repairs = stats["renormalized"] + stats["clipped"]
        if drift > dyn.TRACE_SOFT_LIMIT:
            rho = rho / np.trace(rho).real
            stats["renormalized"] += 1
        rho = dyn._repair(rho, t1, stats)
        if stats["renormalized"] + stats["clipped"] > repairs:
            events.append(len(states) - 1)
        states.append(q.DensityMatrix(rho))
        for k, a in e_ops.items():
            expect[k].append(float(np.trace(rho @ a).real))
    blocks, i, size = 0, 0, dyn.BLOCK_START
    while i < len(times) - 1:
        blocks += 1
        hit = [e for e in events if i <= e < i + size]
        i, size = (hit[0] + 1, dyn.BLOCK_START) if hit else (i + size, 2 * size)
    stats.update(checked_blocks=blocks, powered_maps=len(maps))
    return states, {k: np.asarray(v) for k, v in expect.items()}, stats


def _assert_same_as_per_sample(h, rho0, collapse, times, dt=0.01, e_ops=None):
    e_ops = {"x": SX, "n": EXCITED} if e_ops is None else e_ops
    want_states, want_expect, want_stats = _per_sample_static(
        h, rho0, collapse, np.asarray(times, dtype=float), dt, e_ops)
    res = dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=dt, e_ops=e_ops)
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
                               times, 0.01, e_ops)


@pytest.mark.parametrize("samples", [1, 2, 201, 2001])
def test_pure_state_clip_events_equal_per_sample(samples):
    """CLI evolve's default T1 = T2 = inf: a pure state whose eigenvalue dust
    is clipped every few samples, on one-sample to 2,001-sample grids."""
    h, collapse = _static_qubit(np.inf, np.inf)
    stats = _assert_same_as_per_sample(h, np.array([1.0, 0.0]), collapse,
                                       np.linspace(0.0, 200.0, samples))
    if samples > 100:
        assert stats["clipped"] > samples // 10
        assert stats["checked_blocks"] > stats["clipped"]
    assert stats["renormalized"] == 0


def test_decaying_qubit_checks_few_blocks():
    """With decay, no sample needs repair: 200 samples are 5 blocks
    (8 + 16 + 32 + 64 + 80) and one powered map."""
    h, collapse = _static_qubit(100.0, 150.0)
    stats = _assert_same_as_per_sample(h, np.diag([1.0, 0.0]), collapse,
                                       np.linspace(0.0, 200.0, 201))
    assert stats == {"renormalized": 0, "clipped": 0, "checked_blocks": 5,
                     "max_trace_drift": stats["max_trace_drift"],
                     "powered_maps": 1}
    assert 0.0 < stats["max_trace_drift"] < 1e-14


def test_every_sample_renormalized_equal_per_sample(monkeypatch):
    """With the soft limit at 0 every sample with any drift renormalizes
    (29 of these 200 samples; the others have none)."""
    monkeypatch.setattr(dyn, "TRACE_SOFT_LIMIT", 0.0)
    h, collapse = _static_qubit(100.0, 150.0)
    stats = _assert_same_as_per_sample(h, np.diag([1.0, 0.0]), collapse,
                                       np.linspace(0.0, 200.0, 201))
    assert stats["renormalized"] > 20
    assert stats["checked_blocks"] > stats["renormalized"]


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
    # trace drift nan (CLI evolve's unstable run) and 1.00e+00
    (np.pi * 0.5 * SX, np.diag([1.0, 0.0]), dyn.qubit_collapse_ops(0.001, np.inf),
     np.linspace(0.0, 1000.0, 2), 1.0),
    (np.pi * 0.5 * SX, np.diag([1.0, 0.0]), dyn.qubit_collapse_ops(0.001, np.inf),
     np.linspace(0.0, 10.0, 3), 1.0),
])
def test_unstable_runs_fail_as_per_sample(h, rho0, collapse, times, dt):
    want = _outcome(lambda: _per_sample_static(h, rho0, collapse, times, dt, {}))
    got = _outcome(lambda: dyn.lindblad_evolve(h, rho0, collapse, times=times, dt=dt))
    assert want is not None and want[0] is dyn.IntegrationError
    assert got == want


def test_trace_check_error_order_equal_per_sample(monkeypatch):
    """A drift at or above NORM_TOL on a sample with no repair still raises
    DensityMatrix's trace error, at the same sample: here NORM_TOL is set
    below the round-off of a decaying qubit."""
    monkeypatch.setattr(q, "NORM_TOL", 1e-17)
    monkeypatch.setattr(dyn, "NORM_TOL", 1e-17)
    h, collapse = _static_qubit(100.0, 150.0)
    args = (h, np.diag([1.0, 0.0]).astype(complex), collapse,
            np.linspace(0.0, 200.0, 201), 0.01)
    want = _outcome(lambda: _per_sample_static(*args, {}))
    got = _outcome(lambda: dyn.lindblad_evolve(*args[:3], times=args[3], dt=args[4]))
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
    with pytest.raises(ValueError, match="must be finite"):
        dyn.total_propagator(h, t_span, dt)


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


def test_unitary_evolve_static_exact():
    h = 2 * np.pi * np.array([[0.5, 0.1], [0.1, -0.2]], dtype=complex)
    psi0 = q.ket(0, 2)
    res = dyn.unitary_evolve(h, psi0, times=np.array([0.0, 3.7]), dt=0.5)
    want = q.propagator(h, 3.7).entries @ psi0.amplitudes
    assert np.max(np.abs(res.final().amplitudes - want)) < 1e-12


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


def test_time_ordering_converges_under_dt_halving():
    # non-commuting schedule: H(t) = sz + u(t) sx with a fast ramp
    sz = q.SIGMA_Z.entries

    def env(t):
        return np.sin(3.0 * t)

    h = dyn.TimeDependentH(1.5 * sz, [(2.0 * SX, env)])
    naive = q.matrix_exp(-1j * 2.0 * (1.5 * sz + 2.0 * SX * np.trapezoid(
        [env(t) for t in np.linspace(0, 2, 200)], np.linspace(0, 2, 200)) / 2.0))
    u_coarse = dyn.total_propagator(h, 2.0, dt=0.02)
    u_fine = dyn.total_propagator(h, 2.0, dt=0.0025)
    u_finer = dyn.total_propagator(h, 2.0, dt=0.00125)
    # the time-ordered product differs from the naive average-H exponential
    assert np.max(np.abs(u_fine.entries - naive.entries)) > 1e-3
    # and converges as dt -> 0 (second-order midpoint rule)
    err1 = np.max(np.abs(u_coarse.entries - u_finer.entries))
    err2 = np.max(np.abs(u_fine.entries - u_finer.entries))
    assert err2 < err1 / 16
    assert err2 < 1e-4


def test_unitarity_drift_small():
    h = dyn.TimeDependentH(
        2 * np.pi * 1.0 * EXCITED, [(SX, lambda t: 0.3 * np.cos(2 * np.pi * t))]
    )
    u = dyn.total_propagator(h, 10.0, dt=0.01)
    assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(2))) < 1e-8


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
    """sqrt(kappa/2pi) a gives photon decay at kappa/2pi; the helper
    converts a target rate into the kappa argument."""
    rate = 0.005
    kappa = dyn.kappa_for_photon_rate(rate)
    n_levels = 6
    a = q.annihilation(n_levels)
    rho0 = np.zeros((n_levels, n_levels), dtype=complex)
    rho0[3, 3] = 1.0
    times = np.linspace(0.0, 100.0, 11)
    res = dyn.lindblad_evolve(
        np.zeros((n_levels, n_levels), complex), rho0,
        [dyn.resonator_decay(kappa, n_levels)], times=times, dt=0.05,
        e_ops={"n": (a.dag() @ a).entries},
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
