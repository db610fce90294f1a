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
