import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from scqsim import qcore as q


def test_bloch_north_pole():
    rho = q.bloch_to_density(q.BlochVector(0, 0, 1))
    assert np.allclose(rho.entries, np.diag([1.0, 0.0]))


def test_bloch_equator_spherical_form():
    s = q.BlochVector.from_angles(np.pi / 2, 0.0)
    rho = q.bloch_to_density(s)
    assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_bloch_mixed_state_eigenvalues():
    # oracle: direct 2x2 eigensolve of the hand-built matrix
    s = np.array([0.3, 0.4, 0.5])
    m = 0.5 * (np.eye(2) + s[0] * q.SIGMA_X.entries
               + s[1] * q.SIGMA_Y.entries + s[2] * q.SIGMA_Z.entries)
    expected = np.sort(np.linalg.eigvalsh(m))
    rho = q.bloch_to_density(q.BlochVector(0.3, 0.4, 0.5))
    got = np.sort(np.linalg.eigvalsh(rho.entries))
    assert np.allclose(got, expected, atol=1e-14)
    # frozen values (1 +- |s|)/2 with |s| = sqrt(0.5)
    assert got == pytest.approx([0.14644660940672624, 0.8535533905932737])


def test_invalid_bloch_vector_rejected():
    with pytest.raises(ValueError, match="invalid Bloch"):
        q.BlochVector(1.0, 0.2, 0.0)
    with pytest.raises(ValueError):
        q.bloch_to_density(q.BlochVector(0.9, 0.5, 0.5))


@given(
    st.floats(0, np.pi), st.floats(0, 2 * np.pi),
    st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_bloch_round_trip(theta, phi, r):
    s = q.BlochVector(
        r * np.sin(theta) * np.cos(phi),
        r * np.sin(theta) * np.sin(phi),
        r * np.cos(theta),
    )
    back = q.density_to_bloch(q.bloch_to_density(s))
    assert abs(back.s_x - s.s_x) < 1e-12
    assert abs(back.s_y - s.s_y) < 1e-12
    assert abs(back.s_z - s.s_z) < 1e-12


def test_rotation_operator_pauli_x():
    rx = q.rotation_operator("x", np.pi)
    assert np.allclose(rx.entries, -1j * q.SIGMA_X.entries, atol=1e-15)
    assert q.global_phase_distance(rx, q.SIGMA_X) < 1e-10


def test_rotation_operator_identity_and_phase_gate():
    assert np.allclose(q.rotation_operator("z", 0.0).entries, np.eye(2))
    rz = q.rotation_operator("z", np.pi / 2)
    assert np.allclose(
        rz.entries, np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    )
    assert q.global_phase_distance(rz, q.S_GATE) < 1e-10


def test_expm_hermitian_vs_taylor():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (a + a.conj().T) / 4
    # 20-term Taylor series oracle
    taylor = np.zeros((6, 6), dtype=complex)
    term = np.eye(6, dtype=complex)
    for k in range(21):
        taylor += term
        term = term @ h / (k + 1)
    assert np.max(np.abs(q.expm_hermitian(h) - taylor)) < 1e-9


def test_propagator_full_rotation():
    omega = 2 * np.pi * 0.7
    h = omega * q.SIGMA_Z.entries / 2
    u = q.propagator(h, 2 * np.pi / omega)
    assert np.allclose(u.entries, -np.eye(2), atol=1e-12)


def test_propagator_zero_hamiltonian():
    assert np.allclose(q.propagator(np.zeros((4, 4)), 3.0).entries, np.eye(4))


def test_propagator_closed_form():
    t = 0.7
    u = q.propagator(q.SIGMA_X.entries, t)
    want = np.cos(t) * np.eye(2) - 1j * np.sin(t) * q.SIGMA_X.entries
    assert np.max(np.abs(u.entries - want)) < 1e-12


def test_propagator_requires_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        q.propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 3.0), st.floats(0.01, 3.0))
@settings(max_examples=40, deadline=None)
def test_propagator_group_property(seed, t1, t2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (a + a.conj().T) / 2
    u12 = q.propagator(h, t1) @ q.propagator(h, t2)
    assert np.max(np.abs(u12.entries - q.propagator(h, t1 + t2).entries)) < 1e-10


def test_tensor_identity():
    assert np.allclose(q.tensor(q.identity(2), q.identity(2)).entries, np.eye(4))


def test_tensor_basis_ordering():
    # leftmost factor is most significant: sigma_z (x) I acting on |10>
    op = q.tensor(q.SIGMA_Z, q.identity(2))
    ket10 = q.basis_ket("10").amplitudes
    assert np.allclose(op.entries @ ket10, -ket10)


def test_tensor_dimension_checks():
    with pytest.raises(ValueError):
        q.tensor()


def test_partial_trace_bell_state():
    bell = (q.basis_ket("00").amplitudes + q.basis_ket("11").amplitudes) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    red = q.partial_trace(rho, keep=[0], dims=[2, 2])
    assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_three_subsystems():
    psi = q.ket(3, 12)                  # |0>|1>|0> on dims (2, 2, 3)
    rho = psi.to_density()
    red = q.partial_trace(rho, keep=[1], dims=[2, 2, 3])
    assert np.allclose(red.entries, np.diag([0.0, 1.0]))


def test_as_matrix_unwraps_every_operator_form():
    rho = q.bloch_to_density(q.BlochVector(0.3, -0.2, 0.5))
    assert q._as_matrix(rho) is rho.entries
    assert q._as_matrix(q.SIGMA_Y) is q.SIGMA_Y.entries
    m = q._as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex and np.array_equal(m, [[1, 2], [3, 4]])


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError, match="inconsistent"):
        q.partial_trace(np.eye(4) / 4, keep=[0], dims=[2, 3])


def test_gate_set_unitary():
    for gate in (q.SIGMA_X, q.SIGMA_Y, q.SIGMA_Z, q.H_GATE, q.S_GATE, q.T_GATE,
                 q.CNOT_GATE, q.CZ_GATE):
        m = gate.entries
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-12


def test_gate_identities():
    assert np.allclose((q.H_GATE @ q.SIGMA_Z @ q.H_GATE).entries, q.SIGMA_X.entries)
    assert np.allclose((q.S_GATE @ q.S_GATE).entries, q.SIGMA_Z.entries)
    assert np.allclose((q.T_GATE @ q.T_GATE).entries, q.S_GATE.entries)


def test_pauli_algebra():
    sx, sy, sz = q.SIGMA_X.entries, q.SIGMA_Y.entries, q.SIGMA_Z.entries
    sp, sm = q.SIGMA_PLUS.entries, q.SIGMA_MINUS.entries
    assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
    assert np.allclose(sy @ sz - sz @ sy, 2j * sx)
    assert np.allclose(sz @ sx - sx @ sz, 2j * sy)
    assert np.allclose(sp, (sx + 1j * sy) / 2)
    assert np.allclose(sp @ sm, (sz + np.eye(2)) / 2)
    assert np.allclose(sp @ sm - sm @ sp, sz)


def test_pauli_table():
    assert list(q.PAULIS) == ["I", "X", "Y", "Z"]
    assert np.array_equal(q.PAULIS["I"].entries, np.eye(2))
    for letter, op in (("X", q.SIGMA_X), ("Y", q.SIGMA_Y), ("Z", q.SIGMA_Z)):
        assert q.PAULIS[letter] is op
        assert q.pauli(letter.lower()) is op
    with pytest.raises(ValueError, match="unknown Pauli axis"):
        q.pauli("w")


def test_operator_flag_validation():
    with pytest.raises(ValueError, match="hermitian"):
        q.Operator([[0, 1], [0, 0]], hermitian=True)
    with pytest.raises(ValueError, match="unitary"):
        q.Operator([[1, 0], [0, 2]], unitary=True)
    with pytest.raises(ValueError, match="square"):
        q.Operator(np.zeros((2, 3)))


def test_state_vector_norm_check():
    with pytest.raises(ValueError, match="normalized"):
        q.StateVector([1.0, 1.0])
    q.StateVector([1.0, 0.0])


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        q.DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        q.DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        q.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_annihilation_ladder():
    a = q.annihilation(4).entries
    n = q.number_op(4).entries
    assert np.allclose(a.conj().T @ a, n)
    assert np.allclose(a @ q.ket(2, 4).amplitudes, np.sqrt(2) * q.ket(1, 4).amplitudes)


def test_global_phase_comparison():
    u = q.rotation_operator("y", 0.3)
    assert q.global_phase_distance(u, np.exp(1j * 1.234) * u.entries) < 1e-10
    assert q.global_phase_distance(u, q.rotation_operator("y", 0.4)) > 1e-10


def test_operators_are_immutable():
    with pytest.raises(ValueError):
        q.SIGMA_X.entries[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Piecewise-constant step propagators
# ---------------------------------------------------------------------------

def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def _looped_steps(h0, controls, amplitudes, durations):
    """Oracle: one scipy expm per step of H0 + sum_k a_kj C_k."""
    from scipy.linalg import expm

    out = []
    for j, dt in enumerate(durations):
        h = h0 + sum(a[j] * c for a, c in zip(amplitudes, controls))
        out.append((h, expm(-1j * dt * h)))
    return out


@pytest.mark.parametrize("n_steps", [1, 64, 65, 200])
def test_step_unitaries_match_looped_expm(n_steps):
    rng = np.random.default_rng(n_steps)
    h0 = _random_hermitian(rng, 3)
    controls = [_random_hermitian(rng, 3) for _ in range(2)]
    amplitudes = rng.standard_normal((2, n_steps))
    durations = rng.uniform(0.0, 0.8, n_steps)
    durations[::5] = 0.0          # zero-width steps, as grape_pulse emits
    steps = q.step_unitaries(h0, controls, amplitudes, durations)
    assert [a.shape for a in steps] == [(n_steps, 3, 3), (n_steps, 3), (n_steps, 3, 3)]
    oracle = _looped_steps(h0, controls, amplitudes, durations)
    for (u, evals, vecs), (h, want), dt in zip(zip(*steps), oracle, durations):
        assert np.max(np.abs(u - want)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
        assert np.max(np.abs((vecs * evals) @ vecs.conj().T - h)) < 1e-12
        if dt == 0.0:
            assert np.max(np.abs(u - np.eye(3))) < 1e-14


def test_step_unitaries_without_controls():
    rng = np.random.default_rng(9)
    h0 = _random_hermitian(rng, 4)
    durations = rng.uniform(0.0, 2.0, 130)
    steps = q.step_unitaries(h0, (), (), durations)
    assert [a.shape for a in steps] == [(130, 4, 4), (130, 4), (130, 4, 4)]
    for (u, evals, vecs), (_, want) in zip(
            zip(*steps), _looped_steps(h0, (), (), durations)):
        assert np.max(np.abs(u - want)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        assert np.max(np.abs((vecs * evals) @ vecs.conj().T - h0)) < 1e-12
    empty = q.step_unitaries(h0, (), (), [])
    assert [a.shape for a in empty] == [(0, 4, 4), (0, 4), (0, 4, 4)]


# ---------------------------------------------------------------------------
# The piecewise-constant kernel: chunks, tree product, conserved blocks
# ---------------------------------------------------------------------------

def _sequential_clongdouble(us):
    """U_n ... U_1 multiplied one step at a time in extended precision (oracle)."""
    us = np.asarray(us, dtype=np.clongdouble)
    u = np.eye(us.shape[-1], dtype=np.clongdouble)
    for step in us:
        u = step @ u
    return u


def _random_steps(rng, n, dim):
    h0 = _random_hermitian(rng, dim)
    controls = [_random_hermitian(rng, dim) for _ in range(2)]
    amplitudes = rng.standard_normal((2, n))
    durations = rng.uniform(0.0, 0.4, n)
    return h0, controls, amplitudes, durations


def _block_diagonal(rng, sizes, perm):
    """A random Hermitian matrix with blocks of ``sizes``, its basis permuted."""
    h = np.zeros((sum(sizes),) * 2, dtype=complex)
    start = 0
    for m in sizes:
        h[start:start + m, start:start + m] = _random_hermitian(rng, m)
        start += m
    return h[np.ix_(perm, perm)]


# step counts for a 3-level problem and a 4-level one: empty, one step,
# half a chunk and one either side, a chunk (q._chunk) and one either side,
# and a long run
_C3, _C4 = q._chunk(3), q._chunk(4)
_EDGES = ([(3, n) for n in (0, 1, _C3 // 2 - 1, _C3 // 2, _C3 // 2 + 1, _C3 - 1, _C3,
                            _C3 + 1, 4000)]
          + [(4, n) for n in (_C4 // 2 - 1, _C4 // 2 + 1, _C4 - 1, _C4 + 1)])


@pytest.mark.parametrize("dim, n", _EDGES)
def test_ordered_product_matches_sequential_clongdouble(dim, n):
    rng = np.random.default_rng(1000 * dim + n)
    us = q.step_unitaries(*_random_steps(rng, n, dim))[0]
    want = _sequential_clongdouble(us)
    assert np.max(np.abs(q.ordered_product(us) - want)) < 1e-13
    # the kernel makes the same steps and reduces them in chunks
    u = q.piecewise_propagator(*_random_steps(np.random.default_rng(1000 * dim + n),
                                              n, dim))
    assert np.max(np.abs(u - want)) < 1e-13


@given(n=st.integers(0, 70), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ordered_product_batches_rows_and_is_unitary(n, batch, seed):
    rng = np.random.default_rng(seed)
    h0, controls, _, _ = _random_steps(rng, 0, 3)
    amplitudes = rng.standard_normal((2, batch, n))
    durations = rng.uniform(0.0, 0.4, (batch, n))
    got = q.piecewise_propagator(h0, controls, amplitudes, durations)
    assert got.shape == (batch, 3, 3)
    for b in range(batch):
        steps = np.array([expm(-1j * dt * (h0 + a0 * controls[0] + a1 * controls[1]))
                          for a0, a1, dt in zip(*amplitudes[:, b], durations[b])])
        want = _sequential_clongdouble(steps.reshape(n, 3, 3))
        assert np.max(np.abs(got[b] - want)) < 1e-13
        assert np.max(np.abs(got[b].conj().T @ got[b] - np.eye(3))) < 1e-12


def test_kernel_outputs_are_unitary():
    rng = np.random.default_rng(5)
    for dim, n in _EDGES:
        args = _random_steps(rng, n, dim)
        us = q.step_unitaries(*args)[0]
        assert us.shape == (n, dim, dim)
        err = us.conj().swapaxes(-1, -2) @ us - np.eye(dim)
        assert np.max(np.abs(err), initial=0.0) < 1e-12
        u = q.piecewise_propagator(*args)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


def test_conserved_blocks_are_the_components():
    rng = np.random.default_rng(8)
    perm = rng.permutation(9)
    h0 = _block_diagonal(rng, (1, 3, 2, 3), perm)
    control = _block_diagonal(rng, (1, 3, 2, 3), perm)
    pos = np.argsort(perm)          # where each original index went
    want = sorted((np.sort(pos[list(b)]) for b in ([0], [1, 2, 3], [4, 5], [6, 7, 8])),
                  key=lambda b: b[0])
    got = q.conserved_blocks(h0, [control])
    assert [list(b) for b in got] == [list(b) for b in want]
    # a control that couples two blocks merges them
    bridge = np.zeros((9, 9), dtype=complex)
    bridge[pos[0], pos[4]] = bridge[pos[4], pos[0]] = 1.0
    merged = q.conserved_blocks(h0, [control, bridge])
    assert sorted(map(len, merged)) == [3, 3, 3]


def test_two_transmon_blocks_are_excitation_number():
    from scqsim.gates import two_transmon_hamiltonian
    h = two_transmon_hamiltonian(5.0, 0.0, -0.3, -0.3, 0.02).entries
    n_2 = q.tensor(np.eye(3), q.number_op(3)).entries
    blocks = q.conserved_blocks(h, [n_2])
    # |n1 n2> at 3 n1 + n2, grouped by n1 + n2
    assert [list(b) for b in blocks] == [[0], [1, 3], [2, 4, 6], [5, 7], [8]]


@pytest.mark.parametrize("sizes", [(1, 3, 2, 3), (2, 2), (4,)])
def test_block_split_steps_match_full_eigh(sizes):
    """Steps made block by block (one-step rows of the kernel) equal the
    steps of the full matrices, on block-diagonal inputs with their basis
    permuted."""
    rng = np.random.default_rng(len(sizes))
    dim = sum(sizes)
    perm = rng.permutation(dim)
    h0 = _block_diagonal(rng, sizes, perm)
    controls = [_block_diagonal(rng, sizes, perm) for _ in range(2)]
    n = 300
    amplitudes = rng.standard_normal((2, n))
    durations = rng.uniform(0.0, 0.5, n)
    steps = q.piecewise_propagator(h0, controls, amplitudes[:, :, None],
                                   durations[:, None])
    _, lams, bases = q.step_unitaries(h0, controls, amplitudes, durations)
    full = []
    for u, evals, vecs, a0, a1, dt in zip(steps, lams, bases, *amplitudes, durations):
        h = h0 + a0 * controls[0] + a1 * controls[1]
        full.append(q.expm_hermitian(h, -1j * dt))
        assert np.max(np.abs(u - full[-1])) < 1e-13
        assert np.max(np.abs((vecs * evals) @ vecs.conj().T - h)) < 1e-12
    got = q.piecewise_propagator(h0, controls, amplitudes, durations)
    assert np.max(np.abs(got - _sequential_clongdouble(full))) < 1e-13


def test_watch_peaks_match_running_column():
    """peak[i] = max over t of |<i|U_t ... U_1|j>|^2, from a per-step loop."""
    rng = np.random.default_rng(12)
    perm = rng.permutation(6)
    h0 = _block_diagonal(rng, (3, 3), perm)
    control = _block_diagonal(rng, (3, 3), perm)
    n = 700                                  # four chunks of a 3-level block
    amplitudes = rng.standard_normal((1, n))
    durations = rng.uniform(0.0, 0.3, n)
    watch = int(perm[1])
    u, peak = q.piecewise_propagator(h0, [control], amplitudes, durations,
                                     watch=watch)
    want = np.zeros(6)
    want[watch] = 1.0
    run = np.eye(6, dtype=complex)
    for a, dt in zip(amplitudes[0], durations):
        run = expm(-1j * dt * (h0 + a * control)) @ run
        want = np.maximum(want, np.abs(run[:, watch]) ** 2)
    assert np.max(np.abs(u - run)) < 1e-12
    assert np.max(np.abs(peak - want)) < 1e-12
    assert np.count_nonzero(peak) == 3       # only the watched block moves


# ---------------------------------------------------------------------------
# The step kernel: shifted Taylor polynomials, and the down-sweep monitor
# ---------------------------------------------------------------------------

def _taylor_bound(t, k):
    return t ** (k + 1) / math.factorial(k + 1) * math.exp(t)


@pytest.mark.parametrize("norm", [0.0, 5e-324, 1e-17, 1.1e-16, 1e-8, 1e-3, 0.1, 0.49,
                                  0.5, np.nextafter(0.5, 1.0), 0.75, 1.0, 3.3, 40.0,
                                  1e4])
def test_degree_rule_meets_its_bound(norm):
    """(s, K): the fewest halvings that bring the norm to 0.5, and the least
    degree whose truncation bound is at most 2^-53 there."""
    s, k = q._taylor_plan(norm)
    t = norm / 2**s
    assert t <= 0.5
    assert s == 0 or norm / 2 ** (s - 1) > 0.5
    assert _taylor_bound(t, k) <= 2.0**-53
    assert k == 0 or _taylor_bound(t, k - 1) > 2.0**-53
    assert k <= 14


def test_degree_rule_rejects_a_non_finite_norm():
    for norm in (np.inf, np.nan):
        with pytest.raises(np.linalg.LinAlgError):
            q._taylor_plan(norm)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_step_kernel_matches_scipy_expm(dim):
    """exp(-i dt H) for ||dt H||_1 from 1e-6 to 40, stack by stack (one
    norm each, so both the unscaled and the scaled branch run) and all in
    one stack (the largest norm sets s and K for every step), against
    scipy.linalg.expm."""
    rng = np.random.default_rng(dim)
    stacks, scaled = [], set()
    for norm in np.geomspace(1e-6, 40.0, 12):
        hs = [_random_hermitian(rng, dim) for _ in range(5)]
        xs = np.array([-1j * h * (norm / np.abs(h).sum(axis=0).max()) for h in hs])
        ys = xs - np.trace(xs, axis1=1, axis2=2)[:, None, None] / dim * np.eye(dim)
        scaled.add(q._taylor_plan(np.abs(ys).sum(axis=1).max())[0] > 0)
        got = np.moveaxis(q._expm_stack(np.moveaxis(xs, 0, -1)), -1, 0)
        want = np.array([expm(x) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-15 * max(1.0, norm)
        stacks.append((xs, want))
    assert scaled == ({False} if dim == 1 else {False, True})
    xs, want = (np.concatenate(a) for a in zip(*stacks))
    got = np.moveaxis(q._expm_stack(np.moveaxis(xs, 0, -1)), -1, 0)
    assert np.max(np.abs(got - want)) < 4e-14


def test_one_by_one_blocks_are_np_exp():
    """A diagonal H splits into 1 x 1 blocks, whose steps are exp(-i dt h)
    entry by entry: ``np.exp``'s values exactly, in one-step rows."""
    rng = np.random.default_rng(3)
    h0 = np.diag(rng.standard_normal(5) * 30.0)
    control = np.diag(rng.standard_normal(5))
    amplitudes = rng.standard_normal((1, 700))
    durations = rng.uniform(0.0, 2.0, 700)
    durations[::7] = 0.0
    got = q.piecewise_propagator(h0, [control], amplitudes[:, :, None],
                                 durations[:, None])
    for u, a, dt in zip(got, amplitudes[0], durations):
        want = np.exp(-1j * dt * (np.diag(h0) + a * np.diag(control)))
        assert np.array_equal(u, np.diag(want))
    x = -1j * rng.standard_normal((1, 1, 300)) * 50.0
    assert np.array_equal(q._expm_stack(x), np.exp(x))


def _per_step_states(us, psi):
    """Oracle: the state before each step, one mat-vec at a time."""
    out = []
    for step in us:
        out.append(psi)
        psi = step @ psi
    return np.array(out).reshape(len(us), -1), psi


def _soa(us):
    """An (..., n, m, m) stack in the (m, m, ..., n) layout of the tree."""
    return np.moveaxis(us, (-2, -1, -3), (0, 1, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 226, 227, 228, 455])
def test_down_sweep_matches_per_step_loop(n):
    rng = np.random.default_rng(n)
    us = q.step_unitaries(*_random_steps(rng, n, 3))[0]
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    levels = q._up_sweep(_soa(us))
    got = q._down_sweep(levels, psi)
    want, last = _per_step_states(us, psi)
    assert got.shape == (3, n)
    assert np.max(np.abs(got.T - want)) < 1e-13
    assert np.max(np.abs(levels[-1][..., 0] @ psi - last)) < 1e-13
    # batched rows of the same count, each its own tree
    batch = np.stack([us, us[::-1]])
    got = q._down_sweep(q._up_sweep(_soa(batch)), np.stack([psi, psi.conj()], axis=-1))
    assert got.shape == (3, 2, n)
    assert np.max(np.abs(got[:, 0].T - want)) < 1e-13
    assert np.max(np.abs(got[:, 1].T - _per_step_states(us[::-1], psi.conj())[0])) < 1e-13


@pytest.mark.parametrize("offset", ["0", "1", "2", "3", "7", "chunk-1", "chunk",
                                    "chunk+1"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_tree_matches_per_step_matmul(m, offset):
    """The structure-of-arrays tree on the steps of an m-level block, in
    batched rows: its root and every down-sweep state against a per-step
    ``np.matmul`` loop over the same steps, for short rows and around the
    chunk of ``_chunk(m)`` steps."""
    size = q._chunk(m)
    n = {"chunk-1": size - 1, "chunk": size, "chunk+1": size + 1}.get(offset)
    n = int(offset) if n is None else n
    rows = 3
    rng = np.random.default_rng(10 * m + len(offset))
    h0, controls, _, _ = _random_steps(rng, 0, m)
    steps = q._block_steps(h0, np.array(controls), rng.standard_normal((2, rows, n)),
                           rng.uniform(0.0, 0.4, (rows, n)))
    assert steps.shape == (m, m, rows, n)
    psi = rng.standard_normal((m, rows)) + 1j * rng.standard_normal((m, rows))
    levels = q._up_sweep(steps)
    seen = q._down_sweep(levels, psi)
    assert levels[-1].shape == (m, m, rows, 1)
    assert seen.shape == (m, rows, max(n, 1))
    for r in range(rows):
        # the empty product is one identity factor
        us = np.moveaxis(steps[:, :, r], -1, 0) if n else np.eye(m, dtype=complex)[None]
        want, _ = _per_step_states(us, psi[:, r])
        run = np.eye(m, dtype=complex)
        for u in us:
            run = u @ run
        assert np.max(np.abs(levels[-1][:, :, r, 0] - run)) < 1e-13
        assert np.max(np.abs(seen[:, r].T - want)) < 1e-13


def _loop_peaks(h0, control, amplitudes, durations, watch):
    want = np.zeros(len(h0))
    want[watch] = 1.0
    psi = np.eye(len(h0), dtype=complex)[:, watch]
    for a, dt in zip(amplitudes, durations):
        psi = expm(-1j * dt * (h0 + a * control)) @ psi
        want = np.maximum(want, np.abs(psi) ** 2)
    return want


@pytest.mark.parametrize("n", [0, 1, 5, _C3 // 2 - 1, _C3 // 2, _C3 // 2 + 1, _C3 - 1,
                               _C3, _C3 + 1, 2 * _C3 + 1, 3 * _C3])
def test_watch_peaks_at_chunk_edges_and_in_batched_rows(n):
    """Peaks from the down-sweep equal a per-step loop's, for step counts
    around the chunk of a 3-level block (``_chunk(3)`` steps) and half of
    it, odd counts, and rows several at a time (rows of at most half a
    chunk share one)."""
    rng = np.random.default_rng(n + 1)
    perm = rng.permutation(5)
    h0 = _block_diagonal(rng, (3, 2), perm)
    control = _block_diagonal(rng, (3, 2), perm)
    watch = int(perm[1])
    rows = 3 if n <= _C3 + 1 else 1
    amplitudes = rng.standard_normal((1, rows, n))
    durations = rng.uniform(0.0, 0.3, (rows, n))
    _, peak = q.piecewise_propagator(h0, [control], amplitudes, durations, watch=watch)
    assert peak.shape == (rows, 5)
    for r in range(rows):
        want = _loop_peaks(h0, control, amplitudes[0, r], durations[r], watch)
        assert np.max(np.abs(peak[r] - want)) < 1e-12
        assert np.count_nonzero(peak[r]) <= 3
