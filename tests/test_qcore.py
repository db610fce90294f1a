import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert q.equal_up_to_global_phase(rx, q.X_GATE)


def test_rotation_operator_identity_and_phase_gate():
    assert np.allclose(q.rotation_operator("z", 0.0).entries, np.eye(2))
    rz = q.rotation_operator("z", np.pi / 2)
    assert np.allclose(
        rz.entries, np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    )
    assert q.equal_up_to_global_phase(rz, q.S_GATE)


def test_matrix_exp_pauli_closed_form():
    # exp(-i eta sigma_x) = cos(eta) I - i sin(eta) sigma_x (sigma_x^2 = I)
    for eta in (np.pi / 2, np.pi / 4, 0.7):
        got = q.matrix_exp(-1j * eta * q.SIGMA_X.entries)
        want = np.cos(eta) * np.eye(2) - 1j * np.sin(eta) * q.SIGMA_X.entries
        assert np.allclose(got.entries, want, atol=1e-14)
    assert np.allclose(
        q.matrix_exp(-1j * (np.pi / 2) * q.SIGMA_X.entries).entries,
        -1j * q.SIGMA_X.entries,
    )


def test_matrix_exp_zero():
    assert np.allclose(q.matrix_exp(np.zeros((3, 3))).entries, np.eye(3))


def test_matrix_exp_hermitian_vs_taylor():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (a + a.conj().T) / 4
    # 20-term Taylor series oracle
    taylor = np.zeros((6, 6), dtype=complex)
    term = np.eye(6, dtype=complex)
    for k in range(21):
        taylor += term
        term = term @ h / (k + 1)
    assert np.max(np.abs(q.matrix_exp(h).entries - taylor)) < 1e-9


def test_matrix_exp_nonfinite_rejected():
    m = np.zeros((2, 2))
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        q.matrix_exp(m)


def test_matrix_exp_general_matches_scipy():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    from scipy.linalg import expm

    assert np.allclose(q.matrix_exp(m).entries, expm(m), atol=1e-12)


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
    psi = q.tensor_state(q.ket(0, 2), q.ket(1, 2), q.ket(0, 3))
    rho = psi.to_density()
    red = q.partial_trace(rho, keep=[1], dims=[2, 2, 3])
    assert np.allclose(red.entries, np.diag([0.0, 1.0]))


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError, match="inconsistent"):
        q.partial_trace(np.eye(4) / 4, keep=[0], dims=[2, 3])


def test_gate_set_unitary():
    for gate in (q.X_GATE, q.Y_GATE, q.Z_GATE, q.H_GATE, q.S_GATE, q.T_GATE,
                 q.CNOT_GATE, q.CZ_GATE):
        m = gate.entries
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-12


def test_gate_identities():
    assert np.allclose((q.H_GATE @ q.Z_GATE @ q.H_GATE).entries, q.X_GATE.entries)
    assert np.allclose((q.S_GATE @ q.S_GATE).entries, q.Z_GATE.entries)
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
    assert q.equal_up_to_global_phase(u, np.exp(1j * 1.234) * u.entries)
    assert not q.equal_up_to_global_phase(u, q.rotation_operator("y", 0.4))


def test_operators_are_immutable():
    with pytest.raises(ValueError):
        q.X_GATE.entries[0, 0] = 5.0


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
    steps = list(q.step_unitaries(h0, controls, amplitudes, durations))
    assert len(steps) == n_steps
    oracle = _looped_steps(h0, controls, amplitudes, durations)
    for (u, evals, vecs), (h, want), dt in zip(steps, oracle, durations):
        assert np.max(np.abs(u - want)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
        assert np.max(np.abs((vecs * evals) @ vecs.conj().T - h)) < 1e-12
        if dt == 0.0:
            assert np.max(np.abs(u - np.eye(3))) < 1e-14


def test_step_unitaries_without_controls():
    rng = np.random.default_rng(9)
    h0 = _random_hermitian(rng, 4)
    durations = rng.uniform(0.0, 2.0, 130)
    steps = list(q.step_unitaries(h0, (), (), durations))
    assert len(steps) == 130
    for (u, evals, vecs), (_, want) in zip(
            steps, _looped_steps(h0, (), (), durations)):
        assert np.max(np.abs(u - want)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        assert np.max(np.abs((vecs * evals) @ vecs.conj().T - h0)) < 1e-12
    assert list(q.step_unitaries(h0, (), (), [])) == []
