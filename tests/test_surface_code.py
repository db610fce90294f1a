import copy
import itertools
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import chi2_contingency

from scqsim import surface_code as sc
from scqsim.qcore import StateVector


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def test_pauli_string_commutation():
    assert sc.PauliString("XXI").commutes_with(sc.PauliString("ZZI"))
    assert not sc.PauliString("XII").commutes_with(sc.PauliString("ZII"))
    assert sc.PauliString("XYZ").commutes_with(sc.PauliString("XYZ"))


def test_pauli_string_multiplication():
    x, y, z = sc.PauliString("X"), sc.PauliString("Y"), sc.PauliString("Z")
    xy = x * y
    assert xy.letters == "Z" and xy.sign == 1j
    yx = y * x
    assert yx.sign == -1j
    assert (x * x).letters == "I"


def test_pauli_string_matrix_consistency():
    rng = np.random.default_rng(9)
    letters = ["I", "X", "Y", "Z"]
    for _ in range(20):
        a = "".join(rng.choice(letters, 3))
        b = "".join(rng.choice(letters, 3))
        pa, pb = sc.PauliString(a), sc.PauliString(b)
        prod = pa * pb
        assert np.allclose(prod.to_matrix(), pa.to_matrix() @ pb.to_matrix())


# ---------------------------------------------------------------------------
# d = 2 state-vector path
# ---------------------------------------------------------------------------

def test_codewords_orthonormal():
    zero, one = sc.d2_codewords()
    assert abs(np.linalg.norm(zero.amplitudes) - 1) < 1e-14
    assert abs(np.linalg.norm(one.amplitudes) - 1) < 1e-14
    assert abs(zero.overlap(one)) < 1e-14


def test_codewords_stabilized():
    zero, one = sc.d2_codewords()
    for s in sc.D2_STABILIZERS:
        m = s.to_matrix()
        assert np.max(np.abs(m @ zero.amplitudes - zero.amplitudes)) < 1e-14
        assert np.max(np.abs(m @ one.amplitudes - one.amplitudes)) < 1e-14


def test_logical_z_eigenvalues():
    zero, one = sc.d2_codewords()
    zl = sc.D2_LOGICAL_Z.to_matrix()
    assert np.max(np.abs(zl @ zero.amplitudes - zero.amplitudes)) < 1e-14
    assert np.max(np.abs(zl @ one.amplitudes + one.amplitudes)) < 1e-14


def test_logical_operators_anticommute():
    xl, zl = sc.D2_LOGICAL_X, sc.D2_LOGICAL_Z
    assert not xl.commutes_with(zl)
    prod1, prod2 = xl * zl, zl * xl
    assert prod1.letters == prod2.letters
    assert prod1.sign == -prod2.sign
    for s in sc.D2_STABILIZERS:
        assert xl.commutes_with(s)
        assert zl.commutes_with(s)


def test_logical_x_squares_to_identity():
    sq = sc.D2_LOGICAL_X * sc.D2_LOGICAL_X
    assert sq.letters == "IIIII" and sq.sign == 1


def test_logical_x_maps_codewords():
    zero, one = sc.d2_codewords()
    xl = sc.D2_LOGICAL_X.to_matrix()
    assert np.max(np.abs(xl @ zero.amplitudes - one.amplitudes)) < 1e-14


def test_measure_stabilizer_deterministic_on_codeword():
    zero, _ = sc.d2_codewords()
    rng = np.random.default_rng(0)
    state = zero
    for s in sc.D2_STABILIZERS:
        out, state = sc.measure_stabilizer(state, s, rng)
        assert out == +1
    assert np.max(np.abs(state.amplitudes - zero.amplitudes)) < 1e-12


def test_measure_stabilizer_random_on_product_state():
    rng = np.random.default_rng(1)
    outcomes = []
    for _ in range(200):
        state = sc.StateVector(np.eye(32)[:, 0].astype(complex))
        out, post = sc.measure_stabilizer(state, sc.D2_STABILIZERS[0], rng)
        outcomes.append(out)
        # QND: repeating reproduces the outcome
        again, _ = sc.measure_stabilizer(post, sc.D2_STABILIZERS[0], rng)
        assert again == out
    frac = outcomes.count(1) / len(outcomes)
    assert 0.35 < frac < 0.65


def test_x_error_flips_adjacent_z_checks():
    zero, _ = sc.d2_codewords()
    rng = np.random.default_rng(2)
    flipped = sc.apply_pauli(zero, sc.PauliString.from_support(5, "X", [2]))
    for s, want in zip(sc.D2_STABILIZERS, (+1, +1, -1, -1)):
        out, flipped = sc.measure_stabilizer(flipped, s, rng)
        assert out == want


def test_logical_h_d2():
    zero, one = sc.d2_codewords()
    plus = sc.logical_h_d2(zero)
    want = (zero.amplitudes + one.amplitudes) / np.sqrt(2)
    assert np.max(np.abs(plus.amplitudes - want)) < 1e-12
    minus = sc.logical_h_d2(one)
    want = (zero.amplitudes - one.amplitudes) / np.sqrt(2)
    assert np.max(np.abs(minus.amplitudes - want)) < 1e-12


def _logical_h_d2_looped(psi):
    """Oracle: H on each of the five qubits, then the slot relabeling
    D0->D1, D1->D4, D3->D0, D4->D3 index by index."""
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    h5 = np.array([[1.0 + 0j]])
    for _ in range(5):
        h5 = np.kron(h5, h1)
    psi = h5 @ psi
    perm = {0: 1, 1: 4, 2: 2, 3: 0, 4: 3}
    out = np.zeros_like(psi)
    for idx in range(32):
        bits = [(idx >> (4 - q)) & 1 for q in range(5)]
        new_bits = [0] * 5
        for q in range(5):
            new_bits[perm[q]] = bits[q]
        out[sum(b << (4 - q) for q, b in enumerate(new_bits))] = psi[idx]
    return out


def test_logical_h_d2_matches_looped_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        state = StateVector(v / np.linalg.norm(v))
        got = sc.logical_h_d2(state).amplitudes
        assert np.array_equal(got, _logical_h_d2_looped(state.amplitudes))


# Reference letter table: (letter1, letter2) -> (letter, exponent of i)
_PAULI_MUL = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("X", "X"): ("I", 0), ("X", "Y"): ("Z", 1), ("X", "Z"): ("Y", 3),
    ("Y", "I"): ("Y", 0), ("Y", "X"): ("Z", 3), ("Y", "Y"): ("I", 0), ("Y", "Z"): ("X", 1),
    ("Z", "I"): ("Z", 0), ("Z", "X"): ("Y", 1), ("Z", "Y"): ("X", 3), ("Z", "Z"): ("I", 0),
}


def _letter_product(a: sc.PauliString, b: sc.PauliString) -> tuple[str, int]:
    """(letters, phase mod 4) of a * b, one letter pair at a time."""
    phase, letters = a.phase + b.phase, []
    for pa, pb in zip(a.letters, b.letters):
        c, k = _PAULI_MUL[(pa, pb)]
        letters.append(c)
        phase += k
    return "".join(letters), phase % 4


def _letters_commute(a: sc.PauliString, b: sc.PauliString) -> bool:
    return sum(1 for pa, pb in zip(a.letters, b.letters)
               if pa != "I" and pb != "I" and pa != pb) % 2 == 0


def _random_pauli_pairs():
    rng = np.random.default_rng(17)
    pairs = [(sc.PauliString(a), sc.PauliString(b)) for a in "IXYZ" for b in "IXYZ"]
    for _ in range(200):
        n = int(rng.integers(1, 10))
        pairs.append(tuple(sc.PauliString("".join(rng.choice(list("IXYZ"), n)),
                                          int(rng.integers(0, 4)))
                           for _ in range(2)))
    return pairs


def test_pauli_algebra_matches_letter_table():
    """Products (letters and phase) and commutation on the bits equal the
    letter table on all 16 single-qubit pairs and 200 random strings."""
    for a, b in _random_pauli_pairs():
        prod = a * b
        assert (prod.letters, prod.phase) == _letter_product(a, b)
        assert a.commutes_with(b) is _letters_commute(a, b)


def test_pauli_bits_round_trip():
    p = sc.PauliString("IXYZ", 3)
    x, z = p.bits()
    assert x.dtype == z.dtype == np.int8
    assert x.tolist() == [0, 1, 1, 0] and z.tolist() == [0, 0, 1, 1]
    assert sc.PauliString.from_bits(x, z, 3) == p
    assert sc.PauliString.from_bits([1, 0], [1, 1]) == sc.PauliString("YZ")


# ---------------------------------------------------------------------------
# Stabilizer tableau
# ---------------------------------------------------------------------------

def test_tableau_qnd_repetition():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(40):
        tab = sc.StabilizerTableau(1)
        tab.h(0)
        a = tab.measure_z(0, rng)
        b = tab.measure_z(0, rng)
        assert a == b
        seen.add(a)
    assert seen == {0, 1}


def test_tableau_bell_correlation():
    rng = np.random.default_rng(4)
    for _ in range(30):
        tab = sc.StabilizerTableau(2)
        tab.h(0)
        tab.cnot(0, 1)
        assert tab.measure_pauli(sc.PauliString("ZZ"), rng) == +1
        a = tab.measure_z(0, rng)
        b = tab.measure_z(1, rng)
        assert a == b


def test_tableau_basic_gates():
    rng = np.random.default_rng(5)
    tab = sc.StabilizerTableau(1)
    tab.x_gate(0)
    assert tab.measure_z(0, rng) == 1
    tab = sc.StabilizerTableau(1)
    tab.h(0)
    tab.z_gate(0)
    tab.h(0)
    assert tab.measure_z(0, rng) == 1      # HZH = X
    tab = sc.StabilizerTableau(1)
    tab.h(0)
    tab.s(0)
    tab.s(0)
    tab.h(0)                               # H S^2 H = H Z H = X
    assert tab.measure_z(0, rng) == 1


def test_tableau_rejects_non_clifford():
    tab = sc.StabilizerTableau(2)
    with pytest.raises(ValueError, match="unsupported"):
        tab.apply("T", 0)


def test_tableau_d2_encoding_matches_stabilizer_set():
    rng = np.random.default_rng(6)
    tab = sc.StabilizerTableau(5)
    if tab.measure_pauli(sc.D2_STABILIZERS[0], rng) == -1:
        tab.z_gate(0)
    if tab.measure_pauli(sc.D2_STABILIZERS[1], rng) == -1:
        tab.z_gate(4)
    for s in sc.D2_STABILIZERS:
        assert tab.measure_pauli(s, rng) == +1
    assert tab.measure_pauli(sc.D2_LOGICAL_Z, rng) == +1


def _g_scalar(x1, z1, x2, z2):
    """Exponent of i in the product of two single-qubit Paulis, case by
    case as Aaronson and Gottesman define it."""
    if x1 and z1:                       # Y
        return z2 - x2
    if x1:                              # X
        return z2 * (2 * x2 - 1)
    if z1:                              # Z
        return x2 * (1 - 2 * z2)
    return 0


def _looped_rowsum(x, z, r, h, i):
    """Row h <- row i * row h, one row and one qubit at a time."""
    gsum = sum(_g_scalar(int(x[i, j]), int(z[i, j]), int(x[h, j]), int(z[h, j]))
               for j in range(x.shape[1]))
    r[h] = (2 * int(r[h]) + 2 * int(r[i]) + gsum) % 4 // 2
    x[h] ^= x[i]
    z[h] ^= z[i]


def _looped_measure(tab, px, pz, sign, rng):
    """Test oracle for ``StabilizerTableau._measure``: the textbook CHP
    measurement with one rowsum per row, on a scratch row for the
    deterministic outcome."""
    n = tab.n
    x, z, r = tab.x, tab.z, tab.r
    anti = [sum(int(x[i, j]) * int(pz[j]) + int(z[i, j]) * int(px[j])
                for j in range(n)) % 2 for i in range(2 * n)]
    pivots = [i for i in range(n, 2 * n) if anti[i]]
    if pivots:
        p = pivots[0]
        for i in range(2 * n):
            if i != p and anti[i]:
                _looped_rowsum(x, z, r, i, p)
        x[p - n], z[p - n], r[p - n] = x[p], z[p], r[p]
        draw = int(rng.integers(0, 2))
        x[p], z[p], r[p] = px, pz, draw ^ sign
        return "random", draw
    xs = np.vstack([x, np.zeros((1, n), np.int8)])
    zs = np.vstack([z, np.zeros((1, n), np.int8)])
    rs = np.append(r, np.int8(0))
    for i in range(n):
        if anti[i]:
            _looped_rowsum(xs, zs, rs, 2 * n, i + n)
    return "deterministic", int(rs[2 * n]) ^ sign


def test_measure_matches_looped_rowsum_oracle():
    """Seeded random Clifford circuits with Z and Pauli-string measurements:
    the vectorized measurement gives the oracle's outcomes and leaves the
    same x, z and r."""
    meta = np.random.default_rng(21)
    branches = {"random": 0, "deterministic": 0}
    for circuit in range(60):
        n = int(meta.integers(2, 9))
        fast, slow = sc.StabilizerTableau(n), sc.StabilizerTableau(n)
        rng_fast = np.random.default_rng(circuit)
        rng_slow = np.random.default_rng(circuit)
        for _ in range(40):
            if meta.random() < 0.6:
                gate = ["H", "S", "CNOT", "X", "Z"][int(meta.integers(0, 5))]
                qubits = meta.choice(n, 2 if gate == "CNOT" else 1, replace=False)
                for tab in (fast, slow):
                    tab.apply(gate, *(int(v) for v in qubits))
                continue
            if meta.random() < 0.5:
                q = int(meta.integers(0, n))
                pz = (np.arange(n) == q).astype(np.int8)
                branch, want = _looped_measure(slow, 0 * pz, pz, 0, rng_slow)
                assert fast.measure_z(q, rng_fast) == want
            else:
                pauli = sc.PauliString("".join(meta.choice(list("IXYZ"), n)),
                                       2 * int(meta.integers(0, 2)))
                px = np.array([c in "XY" for c in pauli.letters], dtype=np.int8)
                pz = np.array([c in "ZY" for c in pauli.letters], dtype=np.int8)
                branch, want = _looped_measure(slow, px, pz, pauli.phase // 2,
                                               rng_slow)
                assert fast.measure_pauli(pauli, rng_fast) == 1 - 2 * want
            branches[branch] += 1
            assert np.array_equal(fast.x, slow.x)
            assert np.array_equal(fast.z, slow.z)
            assert np.array_equal(fast.r, slow.r)
    assert min(branches.values()) > 100


def _cnot_matrix_5q(control: int, target: int) -> np.ndarray:
    m = np.zeros((32, 32))
    for idx in range(32):
        bits = [(idx >> (4 - q)) & 1 for q in range(5)]
        if bits[control]:
            bits[target] ^= 1
        m[sum(b << (4 - q) for q, b in enumerate(bits)), idx] = 1
    return m


def _h_on_qubit_5q(q: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    m = np.array([[1.0]])
    for i in range(5):
        m = np.kron(m, h if i == q else np.eye(2))
    return m


def test_tableau_vs_statevector_distributions():
    """10^4-shot chi-square agreement between the two simulation paths on
    d = 2 Clifford experiments with genuinely random outcomes."""
    shots = 10**4
    experiments = [
        # (tableau circuit, state-vector circuit, measured stabilizer)
        (lambda t: None, lambda psi: psi, sc.D2_STABILIZERS[0]),
        (
            lambda t: (t.h(0), t.cnot(0, 2)),
            lambda psi: _cnot_matrix_5q(0, 2) @ (_h_on_qubit_5q(0) @ psi),
            sc.D2_STABILIZERS[3],
        ),
    ]
    for tab_circuit, vec_circuit, stab in experiments:
        rng1 = np.random.default_rng(100)
        rng2 = np.random.default_rng(200)
        tab_counts = [0, 0]
        vec_counts = [0, 0]
        for _ in range(shots):
            tab = sc.StabilizerTableau(5)
            tab_circuit(tab)
            tab_counts[tab.measure_pauli(stab, rng1) == 1] += 1
        for _ in range(shots):
            psi = vec_circuit(np.eye(32)[:, 0].astype(complex))
            out, _ = sc.measure_stabilizer(
                sc.StateVector(psi, _skip_norm_check=True), stab, rng2)
            vec_counts[out == 1] += 1
        assert min(tab_counts) > 0 and min(vec_counts) > 0
        _, p_value, _, _ = chi2_contingency(np.array([tab_counts, vec_counts]))
        assert p_value > 0.01


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lattice_counts(d):
    lat = sc.SurfaceLattice(d)
    assert lat.n_total == 4 * d**2 - 4 * d + 1
    assert lat.n_data == 2 * d**2 - 2 * d + 1
    assert len(lat.x_checks) == len(lat.z_checks) == d**2 - d


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stabilizers_mutually_commute(d):
    lat = sc.SurfaceLattice(d)
    stabs = [lat.stabilizer(p) for p in list(lat.x_checks) + list(lat.z_checks)]
    for i, a in enumerate(stabs):
        for b in stabs[i + 1:]:
            assert a.commutes_with(b)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_logical_ops_commute_with_stabilizers(d):
    lat = sc.SurfaceLattice(d)
    xl, zl = sc.logical_ops(lat)
    assert xl.weight() == d and zl.weight() == d
    assert not xl.commutes_with(zl)
    for pos in list(lat.x_checks) + list(lat.z_checks):
        s = lat.stabilizer(pos)
        assert xl.commutes_with(s)
        assert zl.commutes_with(s)


def test_d2_lattice_matches_worked_example():
    lat = sc.SurfaceLattice(2)
    stabs = {lat.stabilizer(p).letters for p in list(lat.x_checks) + list(lat.z_checks)}
    assert stabs == {s.letters for s in sc.D2_STABILIZERS}
    xl, zl = sc.logical_ops(lat)
    assert xl.letters == sc.D2_LOGICAL_X.letters
    assert zl.letters == sc.D2_LOGICAL_Z.letters


@pytest.mark.parametrize("d", range(2, 10))
def test_data_index_is_the_position_in_data(d):
    """``data_index`` equals ``data.index`` on every data cell and raises
    ``ValueError`` on every check cell and off the grid."""
    lat = sc.SurfaceLattice(d)
    for r in range(-1, lat.size + 1):
        for c in range(-1, lat.size + 1):
            if (r, c) in lat.data:
                assert lat.data_index((r, c)) == lat.data.index((r, c))
            else:
                with pytest.raises(ValueError, match="not a data qubit"):
                    lat.data_index((r, c))


# ---------------------------------------------------------------------------
# Syndrome extraction
# ---------------------------------------------------------------------------

def test_noiseless_cycles_trivial_after_encoding():
    rng = np.random.default_rng(8)
    lat = sc.SurfaceLattice(3)
    tab = sc.lattice_tableau(lat)
    sc.encode_logical_zero(lat, tab, rng)
    for cycle in range(3):
        syn = sc.syndrome_cycle(lat, tab, {"p_x": 0.0, "p_z": 0.0}, rng, cycle)
        assert not syn.x_bits.any()
        assert not syn.z_bits.any()


def test_single_bit_flip_flips_two_checks():
    rng = np.random.default_rng(9)
    lat = sc.SurfaceLattice(2)
    tab = sc.lattice_tableau(lat)
    sc.encode_logical_zero(lat, tab, rng)
    tab.x_gate(lat.cell_index((1, 1)))     # X on the central data qubit D2
    syn = sc.syndrome_cycle(lat, tab, {"p_x": 0.0, "p_z": 0.0}, rng)
    assert list(syn.z_bits) == [1, 1]
    assert not syn.x_bits.any()


def test_boundary_error_flips_one_check():
    lat = sc.SurfaceLattice(3)
    for i, pos in enumerate(lat.data):
        ex = np.zeros(lat.n_data, dtype=np.int8)
        ex[i] = 1
        syn = sc.syndrome_from_errors(lat, ex, np.zeros(lat.n_data, np.int8))
        n_flipped = int(syn.z_bits.sum())
        r, c = pos
        on_boundary_row = r in (0, lat.size - 1) and r % 2 == 0 and c % 2 == 0
        if on_boundary_row:
            assert n_flipped == 1
        else:
            assert n_flipped == 2


def test_circuit_and_parity_paths_agree():
    rng = np.random.default_rng(10)
    lat = sc.SurfaceLattice(3)
    for trial in range(5):
        tab = sc.lattice_tableau(lat)
        sc.encode_logical_zero(lat, tab, rng)
        ex, ez = sc.inject_errors(lat, tab, 0.15, 0.15, rng)
        syn_circuit = sc.syndrome_cycle(lat, tab, {"p_x": 0.0, "p_z": 0.0}, rng)
        syn_parity = sc.syndrome_from_errors(lat, ex, ez)
        assert np.array_equal(syn_circuit.x_bits, syn_parity.x_bits)
        assert np.array_equal(syn_circuit.z_bits, syn_parity.z_bits)


def _scalar_inject(lattice, tab, p_x, p_z, rng):
    """Reference error injection: two scalar draws per data qubit."""
    ex = np.zeros(lattice.n_data, dtype=np.int8)
    ez = np.zeros(lattice.n_data, dtype=np.int8)
    for i, pos in enumerate(lattice.data):
        q = lattice.cell_index(pos)
        if rng.random() < p_x:
            tab.x_gate(q)
            ex[i] = 1
        if rng.random() < p_z:
            tab.z_gate(q)
            ez[i] = 1
    return ex, ez


@pytest.mark.parametrize("d", [3, 5])
def test_inject_errors_matches_scalar_draws(d):
    """The block draw flips the same qubits, leaves the same tableau and
    the rng where the scalar-draw loop leaves them."""
    lat = sc.SurfaceLattice(d)
    encoded = sc.lattice_tableau(lat)
    sc.encode_logical_zero(lat, encoded, np.random.default_rng(1))
    for seed in range(20):
        fast, slow = copy.deepcopy(encoded), copy.deepcopy(encoded)
        rng_fast, rng_slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sc.inject_errors(lat, fast, 0.1, 0.25, rng_fast)
        want = _scalar_inject(lat, slow, 0.1, 0.25, rng_slow)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        for name in ("x", "z", "r"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))
        assert rng_fast.random() == rng_slow.random()


def test_syndrome_csv_dump(tmp_path):
    lat = sc.SurfaceLattice(2)
    syn = sc.Syndrome(0, np.array([1, 0]), np.array([0, 1]))
    path = tmp_path / "syndromes.csv"
    sc.syndromes_to_csv([syn, syn], path)
    lines = path.read_text().splitlines()
    assert lines == ["1,0,0,1", "1,0,0,1"]


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

def test_two_adjacent_defects_single_correction():
    lat = sc.SurfaceLattice(3)
    ex = np.zeros(lat.n_data, dtype=np.int8)
    ex[lat.data_index((2, 2))] = 1          # interior data qubit
    syn = sc.syndrome_from_errors(lat, ex, np.zeros_like(ex))
    frame = sc.mwpm_decode(syn, lat)
    assert np.array_equal(frame.x, ex)
    assert not frame.z.any()


def test_decoder_restores_trivial_syndrome():
    rng = np.random.default_rng(11)
    lat = sc.SurfaceLattice(3)
    for _ in range(200):
        ex = (rng.random(lat.n_data) < 0.08).astype(np.int8)
        ez = (rng.random(lat.n_data) < 0.08).astype(np.int8)
        syn = sc.syndrome_from_errors(lat, ex, ez)
        frame = sc.mwpm_decode(syn, lat)
        resid = sc.syndrome_from_errors(lat, ex ^ frame.x, ez ^ frame.z)
        assert not resid.x_bits.any()
        assert not resid.z_bits.any()


def _assert_low_weight_corrected(d, max_weight):
    """Every X and every Z pattern of weight <= max_weight is corrected
    with no logical flip and an empty residual syndrome."""
    lat = sc.SurfaceLattice(d)
    xl, zl = sc.logical_ops(lat)
    xl_sup = np.zeros(lat.n_data, np.int8)
    xl_sup[list(xl.support())] = 1
    zl_sup = np.zeros(lat.n_data, np.int8)
    zl_sup[list(zl.support())] = 1
    patterns = [c for w in range(max_weight + 1)
                for c in itertools.combinations(range(lat.n_data), w)]
    for flipped in patterns:
        for kind in ("x", "z"):
            ex = np.zeros(lat.n_data, dtype=np.int8)
            ez = np.zeros(lat.n_data, dtype=np.int8)
            (ex if kind == "x" else ez)[list(flipped)] = 1
            frame = sc.mwpm_decode(sc.syndrome_from_errors(lat, ex, ez), lat)
            rx, rz = ex ^ frame.x, ez ^ frame.z
            assert int(rx @ zl_sup) % 2 == 0
            assert int(rz @ xl_sup) % 2 == 0
            resid = sc.syndrome_from_errors(lat, rx, rz)
            assert not resid.x_bits.any() and not resid.z_bits.any()


def test_d3_exhaustive_single_errors_corrected():
    _assert_low_weight_corrected(3, 1)


def test_d5_exhaustive_weight_two_errors_corrected():
    """1 + 41 + 820 = 862 patterns per kind."""
    _assert_low_weight_corrected(5, 2)


def test_d2_degenerate_decoding_no_logical_error():
    """Z errors on D0 and D3 share their syndrome with a Z error on D2;
    the correction differs from the truth by the stabilizer Z0 Z2 Z3."""
    lat = sc.SurfaceLattice(2)
    ez = np.zeros(5, dtype=np.int8)
    ez[0] = ez[3] = 1
    syn = sc.syndrome_from_errors(lat, np.zeros(5, np.int8), ez)
    assert list(syn.x_bits) == [1, 1]
    frame = sc.mwpm_decode(syn, lat)
    assert int(frame.z.sum()) == 1          # minimum-weight: single Z on D2
    residual = ez ^ frame.z
    # residual is the Za stabilizer: trivial syndrome and no logical error
    resid_syn = sc.syndrome_from_errors(lat, np.zeros(5, np.int8), residual)
    assert not resid_syn.x_bits.any()
    xl, _ = sc.logical_ops(lat)
    xl_sup = np.zeros(5, np.int8)
    xl_sup[list(xl.support())] = 1
    assert int(residual @ xl_sup) % 2 == 0


def test_decoder_matches_brute_force_weight():
    """Random 6-defect instances against a factorial all-pairings oracle."""
    import itertools

    lat = sc.SurfaceLattice(5)
    rng = np.random.default_rng(12)

    def brute_force(defects):
        n = len(defects)
        best = np.inf
        for n_bound in range(n + 1):
            for bound_set in itertools.combinations(range(n), n_bound):
                rest = [i for i in range(n) if i not in bound_set]
                if len(rest) % 2:
                    continue
                base = sum(
                    len(sc._boundary_path(defects[i], lat.size, "z"))
                    for i in bound_set
                )

                def pairings(items):
                    if not items:
                        yield 0
                        return
                    first, rest_items = items[0], items[1:]
                    for k, other in enumerate(rest_items):
                        w = len(sc._pair_path(defects[first], defects[other], "z"))
                        for sub in pairings(rest_items[:k] + rest_items[k + 1:]):
                            yield w + sub

                for pair_w in pairings(rest):
                    best = min(best, base + pair_w)
        return best

    for _ in range(10):
        picks = rng.choice(len(lat.z_checks), size=6, replace=False)
        defects = [lat.z_checks[i] for i in sorted(picks)]
        assert _table_weight(sorted(picks), 5, "z") == brute_force(defects)


def _table_weight(picks, d, kind):
    """Matching weight ``_match`` gives over the move keys of defects on
    the checks ``picks`` (ascending) in the layout's block-diagonal table."""
    move_keys = sc._layout(d).move_keys
    rows = [i + (len(move_keys) // 2 if kind == "x" else 0) for i in picks]
    cols = [0] + [1 + i for i in rows]
    best = sc._match(move_keys[np.ix_(rows, cols)][None])
    return int(best[-1, 0] >> 7)


def _recursive_matching(defects, size, kind):
    """Slow oracle for the matcher: the memoized top-down recursion over
    subsets, matching the lowest defect left first.  Options are scanned
    boundary first, partners in ascending order, and only a strict
    improvement replaces the incumbent.  Move weights are the lengths of
    ``_boundary_path`` and ``_pair_path``.  Returns (weight, pairs), a pair
    being (i, j) into ``defects`` or (i, None) for a boundary match."""
    n = len(defects)
    moves = [[len(sc._boundary_path(p, size, kind))]
             + [len(sc._pair_path(p, q, kind)) for q in defects] for p in defects]

    @lru_cache(maxsize=None)
    def solve(mask):
        if mask == 0:
            return 0, ()
        first = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << first)
        w, pairs = solve(rest)
        best_w = w + moves[first][0]
        best_pairs = pairs + ((first, None),)
        for j in range(first + 1, n):
            if (rest >> j) & 1:
                w, pairs = solve(rest & ~(1 << j))
                cand = w + moves[first][1 + j]
                if cand < best_w:
                    best_w, best_pairs = cand, pairs + ((first, j),)
        return best_w, best_pairs

    return solve((1 << n) - 1)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("kind", ["x", "z"])
def test_move_weights_are_path_lengths(d, kind):
    lat = sc.SurfaceLattice(d)
    checks = lat.z_checks if kind == "z" else lat.x_checks
    want = [[len(sc._boundary_path(c, lat.size, kind))]
            + [len(sc._pair_path(c, c2, kind)) for c2 in checks] for c in checks]
    paths, weights = sc._move_table(d, kind)
    assert weights.tolist() == want
    assert set(np.unique(paths).tolist()) <= {0, 1}


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("kind", ["x", "z"])
def test_move_paths_light_their_own_defects(d, kind):
    """A boundary path trips its own check only, a pair path its two
    checks, and a defect paired with itself none."""
    lat = sc.SurfaceLattice(d)
    paths, _ = sc._move_table(d, kind)
    lit = paths.astype(int) @ lat.adjacency(kind) % 2
    n = len(paths)
    for c in range(n):
        assert lit[c, 0].tolist() == np.eye(n, dtype=int)[c].tolist()
        for c2 in range(n):
            want = np.zeros(n, dtype=int)
            want[[c, c2]] = 1 if c != c2 else 0
            assert lit[c, 1 + c2].tolist() == want.tolist()


def _x_boundary_path(pos, size):
    """Reference X-check boundary path: straight left or right."""
    r, c = pos
    if (c + 1) // 2 <= (size - c) // 2:
        cols = range(c - 1, -1, -2)
    else:
        cols = range(c + 1, size, 2)
    return [(r, cc) for cc in cols]


def _x_pair_path(p1, p2):
    """Reference X-check pair path: horizontally first, then vertically."""
    (r1, c1), (r2, c2) = p1, p2
    out = []
    step = 2 if c2 >= c1 else -2
    for cc in range(c1, c2, step):
        out.append((r1, cc + step // 2))
    step = 2 if r2 >= r1 else -2
    for rr in range(r1, r2, step):
        out.append((rr + step // 2, c2))
    return out


@pytest.mark.parametrize("d", [2, 3, 5])
def test_x_paths_are_the_z_rule_transposed(d):
    """Every X-check boundary and pair path covers the data qubits of the
    reference X geometry, and the move table equals one built from it."""
    lat = sc.SurfaceLattice(d)
    want = np.zeros((len(lat.x_checks), 1 + len(lat.x_checks), lat.n_data), np.int8)
    for i, c in enumerate(lat.x_checks):
        ref = _x_boundary_path(c, lat.size)
        assert set(sc._boundary_path(c, lat.size, "x")) == set(ref)
        moves = [ref]
        for c2 in lat.x_checks:
            ref = _x_pair_path(c, c2)
            assert set(sc._pair_path(c, c2, "x")) == set(ref)
            moves.append(ref)
        for j, path in enumerate(moves):
            want[i, j, [lat.data_index(pos) for pos in path]] = 1
    paths, weights = sc._move_table(d, "x")
    assert np.array_equal(paths, want)
    assert np.array_equal(weights, want.sum(axis=-1))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_layout_is_the_move_tables_block_diagonal(d):
    """The layout's move table holds each kind's ``_move_table`` on its own
    diagonal block (Z checks first), its move keys the weight << 7 and the
    moves' logical parities in bit 0, and no move between kinds; its parity
    matrices are the adjacency with the logical support as last column."""
    lat = sc.SurfaceLattice(d)
    layout = sc._layout(d)
    m = len(lat.z_checks)
    x_l, z_l = sc.logical_ops(lat)
    assert layout.lattice == lat
    for at, kind, logical in ((0, "z", z_l), (m, "x", x_l)):
        support = np.bitwise_or(*logical.bits()).astype(int)
        paths, weights = sc._move_table(d, kind)
        rows = slice(at, at + m)
        own, other = np.r_[0, 1 + at:1 + at + m], np.arange(1 + m - at, 1 + 2 * m - at)
        assert np.array_equal(layout.paths[rows][:, own], paths)
        assert layout.move_keys.dtype == np.int32
        keys = layout.move_keys[rows]
        assert np.array_equal(keys[:, own], weights << 7 | paths.astype(int) @ support % 2)
        assert not layout.paths[rows][:, other].any()
        assert (keys[:, other] == sc._NO_MOVE << 7).all()
        assert layout.parity[kind].dtype == np.float32
        assert np.array_equal(layout.parity[kind],
                              np.column_stack((lat.adjacency(kind), support)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_parities_match_integer_oracle(d):
    """``_parities`` against integer matmuls mod 2: the check bits, then the
    parity on the guarded logical, as int8, for random and all-ones
    patterns, one pattern or many, int8 or bool."""
    lat = sc.SurfaceLattice(d)
    x_l, z_l = sc.logical_ops(lat)
    oracle = {kind: np.column_stack((lat.adjacency(kind),
                                     np.bitwise_or(*logical.bits()))).astype(int)
              for kind, logical in (("x", x_l), ("z", z_l))}
    rng = np.random.default_rng(50 + d)
    for ex, ez in ((rng.random((2, 64, lat.n_data)) < 0.3).astype(np.int8),
                   np.ones((2, 3, lat.n_data), dtype=np.int8)):
        for pair in ((ex, ez), (ex[0], ez[0]), (ex.astype(bool), ez.astype(bool))):
            x_bits, z_bits = sc._parities(lat, *pair)
            assert x_bits.dtype == z_bits.dtype == np.int8
            assert np.array_equal(x_bits, pair[1].astype(int) @ oracle["x"] % 2)
            assert np.array_equal(z_bits, pair[0].astype(int) @ oracle["z"] % 2)
            syn = sc.syndrome_from_errors(lat, *pair)
            assert np.array_equal(syn.x_bits, x_bits[..., :-1])
            assert np.array_equal(syn.z_bits, z_bits[..., :-1])


def test_parity_builds_no_move_table(monkeypatch):
    """The first ``syndrome_from_errors`` at a distance builds its parity
    matrices alone: with ``_move_table`` raising, d = 7 still gives the
    integer oracle's bits."""
    sc._parity.cache_clear()         # the call below is the first at d = 7

    def no_build(*args):
        raise AssertionError("move table built")

    monkeypatch.setattr(sc, "_move_table", no_build)
    lat = sc.SurfaceLattice(7)
    ex, ez = (np.random.default_rng(57).random((2, 32, lat.n_data)) < 0.2).astype(np.int8)
    syn = sc.syndrome_from_errors(lat, ex, ez)
    assert np.array_equal(syn.x_bits, ez.astype(int) @ lat.adjacency("x") % 2)
    assert np.array_equal(syn.z_bits, ex.astype(int) @ lat.adjacency("z") % 2)


def test_layout_is_built_once(monkeypatch):
    """After a warm call, the Monte Carlo, the decoder and the parity rule
    build no adjacency and no move table: they read the cached layout,
    whose arrays are read-only."""
    lat = sc.SurfaceLattice(5)
    warm = sc.logical_error_rate(5, 0.08, 1, 300, 3)
    layout = sc._layout(5)

    def no_build(*args):
        raise AssertionError("layout rebuilt")

    monkeypatch.setattr(sc.SurfaceLattice, "adjacency", no_build)
    monkeypatch.setattr(sc, "_move_table", no_build)
    assert sc.logical_error_rate(5, 0.08, 1, 300, 3) == warm
    ex = np.zeros(lat.n_data, dtype=np.int8)
    ex[[3, 20]] = 1
    frame = sc.mwpm_decode(sc.syndrome_from_errors(lat, ex, ex[::-1].copy()), lat)
    assert frame.x.any() and frame.z.any()
    assert sc._layout(5) is layout
    for shared in (layout.paths, layout.move_keys, *layout.parity.values()):
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0


def _pairs_correction(defects, pairs, lat, kind):
    """The data-qubit correction built from matched pairs of ``defects``."""
    out = np.zeros(lat.n_data, dtype=np.int8)
    for i, j in pairs:
        if j is None:
            path = sc._boundary_path(defects[i], lat.size, kind)
        else:
            path = sc._pair_path(defects[i], defects[j], kind)
        for pos in path:
            out[lat.data_index(pos)] ^= 1
    return out


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("kind", ["x", "z"])
def test_matcher_equals_recursion(d, kind):
    """Weight and correction agree with the recursion on 20 random defect
    sets of every size up to the capacity (or the number of checks)."""
    lat = sc.SurfaceLattice(d)
    checks = lat.z_checks if kind == "z" else lat.x_checks
    rng = np.random.default_rng(40 + d)
    none = np.zeros(len(checks), dtype=np.int8)
    for n in range(1, min(len(checks), sc.MAX_DEFECTS) + 1):
        for _ in range(20):
            picks = np.sort(rng.choice(len(checks), size=n, replace=False))
            defects = [checks[i] for i in picks]
            weight, pairs = _recursive_matching(defects, lat.size, kind)
            assert _table_weight(picks.tolist(), d, kind) == weight
            bits = none.copy()
            bits[picks] = 1
            if kind == "z":
                got = sc.mwpm_decode(sc.Syndrome(0, none, bits), lat).x
            else:
                got = sc.mwpm_decode(sc.Syndrome(0, bits, none), lat).z
            assert np.array_equal(got, _pairs_correction(defects, pairs, lat, kind))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decode_clears_its_own_syndrome(data):
    d = data.draw(st.sampled_from([2, 3, 5]))
    lat = sc.SurfaceLattice(d)
    n_checks = len(lat.z_checks)
    bits = st.sets(st.integers(0, n_checks - 1),
                   max_size=min(n_checks, sc.MAX_DEFECTS))
    x_bits = np.zeros(n_checks, dtype=np.int8)
    z_bits = np.zeros(n_checks, dtype=np.int8)
    x_bits[list(data.draw(bits))] = 1
    z_bits[list(data.draw(bits))] = 1
    frame = sc.mwpm_decode(sc.Syndrome(0, x_bits, z_bits), lat)
    again = sc.syndrome_from_errors(lat, frame.x, frame.z)
    assert np.array_equal(again.x_bits, x_bits)
    assert np.array_equal(again.z_bits, z_bits)


# The padded matcher the compact DP replaced, kept as its oracle: every
# state scans all 1 + n moves, a move that does not exist reads a sentinel
# key, and the logical parity is walked back from the full set.

@lru_cache(maxsize=None)
def _padded_plan(n):
    """``first`` (lowest defect of each state), ``child`` ((states, 1 + n)
    int32: the state each move leads to, ``len(first)`` where the move does
    not exist) and ``levels`` (start of each size level, plus the end)."""
    bit = 1 << np.arange(n, dtype=np.int64)

    def moves(masks):
        rest = masks & (masks - 1)
        return rest, np.where(rest[:, None] & bit != 0, rest[:, None] ^ bit, -1)

    by_size = [np.zeros(0, dtype=np.int64)] * (n + 1)
    by_size[n] = np.array([(1 << n) - 1], dtype=np.int64)
    for k in range(n - 1, -1, -1):
        pairs = moves(by_size[k + 2])[1] if k + 2 <= n else np.zeros(0, np.int64)
        found = np.sort(np.concatenate((moves(by_size[k + 1])[0], pairs[pairs >= 0])))
        by_size[k] = found[np.r_[True, found[1:] != found[:-1]]]
    levels = np.concatenate(([0], np.cumsum([len(m) for m in by_size])))
    masks = np.concatenate(by_size)

    def index(to, k):
        if k < 0:
            return len(masks)
        at = levels[k] + np.searchsorted(by_size[k], to)
        return np.where(to >= 0, at, len(masks))

    child = np.empty((len(masks), 1 + n), dtype=np.int32)
    child[0] = len(masks)
    for k in range(1, n + 1):
        rest, pair = moves(by_size[k])
        child[levels[k]:levels[k + 1], 0] = index(rest, k - 1)
        child[levels[k]:levels[k + 1], 1:] = index(pair, k - 2)
    first = np.log2(np.maximum(masks & -masks, 1)).astype(np.int32)
    return first, child, levels


def _padded_match(move_weight):
    """Weight of each set's matching and the move chosen in every state,
    (states, S), from (S, n, 1 + n) move weights; keys are weight * 32 +
    move."""
    s, n = move_weight.shape[:2]
    first, child, levels = _padded_plan(n)
    move_key = np.ascontiguousarray(((move_weight << 5) + np.arange(1 + n)).T)
    key = np.zeros((len(first) + 1, s), dtype=np.int32)
    key[-1] = sc._NO_MOVE << 5
    choice = np.zeros((len(first), s), dtype=np.int8)
    for lo, hi in zip(levels[1:-1], levels[2:]):
        best = (key[child[lo:hi].T] + move_key[:, first[lo:hi]]).min(axis=0)
        choice[lo:hi] = best & 31
        key[lo:hi] = best - choice[lo:hi]
    return key[len(first) - 1] >> 5, choice


def _padded_walk(choice, move_entry):
    """XOR of ``move_entry`` ((S, n, 1 + n, ...)) over each set's moves,
    walked back from the full set along ``choice``."""
    s, n = move_entry.shape[:2]
    first, child, _ = _padded_plan(n)
    out = np.zeros((s,) + move_entry.shape[3:], dtype=move_entry.dtype)
    sets, state = np.arange(s), np.full(s, len(first) - 1)
    while len(sets):
        move = choice[state, sets]
        out[sets] ^= move_entry[sets, first[state], move]
        state = child[state, move]
        live = state > 0
        sets, state = sets[live], state[live]
    return out


def _padded_matched_xor(syn, weights, table):
    """The padded matching of each syndrome row, as the XOR of ``table``'s
    entries (indexed like a ``_move_table``) over its moves."""
    counts = syn.sum(axis=1)
    out = np.zeros((len(syn),) + table.shape[2:], dtype=table.dtype)
    for n in sorted(set(counts.tolist()) - {0}):
        rows = np.nonzero(counts == n)[0]
        defects = np.nonzero(syn[rows])[1].reshape(len(rows), n)
        cols = np.concatenate((np.zeros((len(rows), 1), dtype=int), 1 + defects), axis=1)
        at = (defects[:, :, None], cols[:, None, :])
        out[rows] = _padded_walk(_padded_match(weights[at])[1], table[at])
    return out


def _dp_parities(rows, move_keys):
    """The logical parity the compact DP carries to the full set's key."""
    out = np.zeros(len(rows), dtype=np.int64)
    for part, _, best in sc._matchings(rows, move_keys):
        out[part] = best[-1] & 1
    return out


@pytest.mark.parametrize("n", range(1, 15))
def test_plan_is_the_padded_plan_compacted(n):
    """The plan keeps the padded plan's states, first defects and children
    (-1 for a missing move), and each level's tables list exactly the moves
    that exist, in scan order, as rows ``move * n + first`` and children."""
    plan = sc._matching_plan(n)
    first, child, levels = _padded_plan(n)
    assert np.array_equal(plan.levels, levels)
    assert np.array_equal(plan.first, first)
    assert np.array_equal(plan.child, np.where(child == len(first), -1, child))
    for k in range(1, n + 1):
        lo, hi = levels[k], levels[k + 1]
        state, move = np.nonzero(child[lo:hi] < len(first))
        assert plan.moves[k - 1].shape == plan.children[k - 1].shape == (k, hi - lo)
        assert np.array_equal(plan.moves[k - 1].T.ravel(), move * n + first[lo + state])
        assert np.array_equal(plan.children[k - 1].T.ravel(), child[lo:hi][state, move])


def test_plan_holds_only_existing_moves():
    """A state of k defects has k moves and the plan lists no others: 58
    DP candidates at 6 defects, 655 at 10 and 6,255 at 14 (a scan of all
    1 + n moves takes 140, 1,573 and 14,790).  Its arrays are read-only, and
    at 19 defects they take no more bytes than the padded plan's int32
    child table alone (875,680)."""
    for n, want in ((6, 58), (10, 655), (14, 6255)):
        plan = sc._matching_plan(n)
        sizes = np.diff(plan.levels)
        assert sum(t.size for t in plan.moves) == want
        assert sum(t.size for t in plan.children) == want
        assert sum(k * int(sizes[k]) for k in range(n + 1)) == want
        assert plan.width == max(t.size for t in plan.moves)
    plan = sc._matching_plan(19)
    arrays = (plan.levels, plan.first, plan.child, *plan.moves, *plan.children)
    assert _padded_plan(19)[1].nbytes == 875_680
    assert sum(a.nbytes for a in arrays) <= 875_680
    for shared in arrays:
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0


def test_dp_parity_equals_padded_walk_on_all_d3_syndromes():
    """The parity in the full set's key equals the padded matcher's walk
    over the moves' logical flips, on all 2 x 64 d = 3 syndromes."""
    layout = sc._layout(3)
    m = len(layout.lattice.z_checks)
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    rows = np.zeros((2 << m, 2 * m), dtype=np.int8)
    rows[:1 << m, :m] = rows[1 << m:, m:] = bits
    want = _padded_matched_xor(rows, layout.move_keys >> 7, layout.move_keys & 1)
    assert want.any() and not want.all()
    assert np.array_equal(_dp_parities(rows, layout.move_keys), want)


def test_dp_parity_equals_padded_walk_on_random_d5_rows():
    """The same on 40 random d = 5 rows per kind and defect count 1..14."""
    layout = sc._layout(5)
    m = len(layout.lattice.z_checks)
    rng = np.random.default_rng(71)
    rows = np.zeros((14, 2, 40, 2 * m), dtype=np.int8)
    for n in range(1, 15):
        for kind in range(2):
            for row in rows[n - 1, kind]:
                row[kind * m + rng.choice(m, size=n, replace=False)] = 1
    rows = rows.reshape(-1, 2 * m)
    want = _padded_matched_xor(rows, layout.move_keys >> 7, layout.move_keys & 1)
    assert np.array_equal(_dp_parities(rows, layout.move_keys), want)


def test_dp_choices_equal_padded_dp_under_ties():
    """Every state's choice, not only the final parity, on 500 random sets
    per defect count 1..14 with move weights in {1, 2}, so ties are
    everywhere, and random flips: the compact DP picks what the padded one
    does in all 1,290,500 states, and each set's weight and parity match.
    A stored key that kept bit 1 would let parity sums carry into the move
    bits and change choices."""
    rng = np.random.default_rng(81)
    compared = wrong = 0
    for n in range(1, 15):
        weights = rng.integers(1, 3, size=(500, n, 1 + n), dtype=np.int32)
        flips = rng.integers(0, 2, size=(500, n, 1 + n), dtype=np.int32)
        best = sc._match(weights << 7 | flips)
        weight, choice = _padded_match(weights)
        compared += choice.size
        wrong += int((best >> 2 & 31 != choice).sum())
        assert np.array_equal(best[-1] >> 7, weight)
        assert np.array_equal(best[-1] & 1, _padded_walk(choice, flips))
    assert (compared, wrong) == (1_290_500, 0)


def test_decode_matches_per_kind_matcher():
    """``mwpm_decode`` matches both kinds in one call on the layout's table
    and reads the paths back from the compact DP's choices; the oracle
    matches each kind on its own ``_move_table`` with the padded matcher.
    200 random d = 5 syndromes."""
    lat = sc.SurfaceLattice(5)
    m = len(lat.z_checks)
    tables = {kind: sc._move_table(5, kind) for kind in "zx"}
    rng = np.random.default_rng(61)
    for _ in range(200):
        bits = {}
        for kind in "zx":
            bits[kind] = np.zeros(m, dtype=np.int8)
            picks = rng.choice(m, size=rng.integers(0, sc.MAX_DEFECTS + 1), replace=False)
            bits[kind][picks] = 1
        frame = sc.mwpm_decode(sc.Syndrome(0, bits["x"], bits["z"]), lat)
        want = {kind: _padded_matched_xor(bits[kind][None], tables[kind][1],
                                          tables[kind][0])[0] for kind in "zx"}
        assert frame.x.dtype == frame.z.dtype == np.int8
        assert np.array_equal(frame.x, want["z"])
        assert np.array_equal(frame.z, want["x"])


def test_decoder_capacity_limit():
    """d = 7 has 42 checks of a kind, past the matcher's capacity."""
    lat = sc.SurfaceLattice(7)
    syn = sc.Syndrome(0, np.zeros(len(lat.x_checks), np.int8),
                      np.ones(len(lat.z_checks), np.int8))
    with pytest.raises(sc.DecoderCapacityError):
        sc.mwpm_decode(syn, lat)


@pytest.mark.parametrize("d_bits, d_lattice", [(3, 5), (5, 3), (3, 2)])
def test_decode_rejects_syndrome_of_another_distance(d_bits, d_lattice):
    n_bits = len(sc.SurfaceLattice(d_bits).z_checks)
    for kind in "xz":
        bits = {k: np.zeros(n_bits if k == kind else d_lattice**2 - d_lattice,
                            dtype=np.int8) for k in "xz"}
        bits[kind][-1] = 1
        syn = sc.Syndrome(0, bits["x"], bits["z"])
        with pytest.raises(ValueError, match=f"{kind.upper()}-check bits"):
            sc.mwpm_decode(syn, sc.SurfaceLattice(d_lattice))


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_syndrome_rejects_non_bits(bad):
    bits = np.zeros(6)
    bits[1] = bad
    with pytest.raises(ValueError, match="only 0 and 1"):
        sc.Syndrome(0, bits, np.zeros(6))
    with pytest.raises(ValueError, match="only 0 and 1"):
        sc.Syndrome(0, np.zeros(6), bits)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_zero_noise_zero_rate():
    res = sc.logical_error_rate(3, 0.0, cycles=2, shots=500, seed=0)
    assert res.rate == 0.0
    assert res.failures == 0


def test_rate_ordering_in_p():
    lo = sc.logical_error_rate(3, 1e-3, cycles=1, shots=30000, seed=5)
    hi = sc.logical_error_rate(3, 3e-2, cycles=1, shots=30000, seed=5)
    assert hi.rate >= 10 * max(lo.rate, 1.0 / 30000)


def test_d3_beats_d2():
    d2 = sc.logical_error_rate(2, 1e-2, cycles=1, shots=30000, seed=6)
    d3 = sc.logical_error_rate(3, 1e-2, cycles=1, shots=30000, seed=6)
    assert d3.rate < d2.rate


def test_monte_carlo_reproducible():
    a = sc.logical_error_rate(3, 5e-3, cycles=2, shots=4000, seed=13)
    b = sc.logical_error_rate(3, 5e-3, cycles=2, shots=4000, seed=13)
    assert a.rate == b.rate and a.failures == b.failures
    c = sc.logical_error_rate(3, 5e-3, cycles=2, shots=4000, seed=14)
    assert (a.rate, a.failures) != (c.rate, c.failures) or a.rate == 0


def test_cycles_compound_error_probability():
    one = sc.logical_error_rate(3, 2e-2, cycles=1, shots=20000, seed=15)
    five = sc.logical_error_rate(3, 2e-2, cycles=5, shots=20000, seed=15)
    assert five.rate > one.rate


def _looped_failures(d, p, cycles, shots, seed):
    """Test oracle for ``logical_error_rate``: the same documented draws,
    one ``mwpm_decode`` per shot."""
    lat = sc.SurfaceLattice(d)
    x_l, z_l = sc.logical_ops(lat)
    p_cum = 0.5 * (1.0 - (1.0 - 2.0 * p) ** cycles)
    draws = np.random.Generator(np.random.Philox(key=seed)).random(
        (shots, lat.n_data, 2))
    failures = 0
    for ex, ez in zip((draws[:, :, 0] < p_cum).astype(np.int8),
                      (draws[:, :, 1] < p_cum).astype(np.int8)):
        frame = sc.mwpm_decode(sc.syndrome_from_errors(lat, ex, ez), lat)
        flips_z_l = (ex ^ frame.x)[list(z_l.support())].sum() % 2
        flips_x_l = (ez ^ frame.z)[list(x_l.support())].sum() % 2
        failures += bool(flips_z_l or flips_x_l)
    return failures


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("p", [1e-3, 0.03, 0.08, 0.15])
@pytest.mark.parametrize("cycles", [1, 3])
def test_decode_once_matches_per_shot_loop(d, p, cycles):
    shots, seed = 300, 17
    try:
        want = _looped_failures(d, p, cycles, shots, seed)
    except sc.DecoderCapacityError:
        with pytest.raises(sc.DecoderCapacityError):
            sc.logical_error_rate(d, p, cycles, shots, seed)
        return
    assert sc.logical_error_rate(d, p, cycles, shots, seed).failures == want


def _documented_syndromes(d, p, shots, seed):
    """(Z-check, X-check) syndromes of the draws documented for
    ``logical_error_rate`` at one cycle."""
    lat = sc.SurfaceLattice(d)
    draws = np.random.Generator(np.random.Philox(key=seed)).random(
        (shots, lat.n_data, 2))
    return ((draws[:, :, 0] < p).astype(int) @ lat.adjacency("z") % 2,
            (draws[:, :, 1] < p).astype(int) @ lat.adjacency("x") % 2)


@pytest.mark.parametrize("shots", [1023, 1024, 1025, 2049])
def test_draw_block_edges_match_per_shot_loop(shots):
    """Shot counts around the 1,024-shot draw blocks: failures equal the
    per-shot loop's, and the counts the documented syndromes'."""
    assert sc._DRAW_SHOTS == 1024
    p, seed = 0.08, 23
    for d in (5, 3):        # distinct syndromes matched, then the decode table
        res = sc.logical_error_rate(d, p, 1, shots, seed)
        assert res.failures == _looped_failures(d, p, 1, shots, seed)
        for kind, syn in zip("zx", _documented_syndromes(d, p, shots, seed)):
            assert res.max_defects[kind] == syn.sum(axis=1).max()
            assert res.distinct_syndromes[kind] == len(np.unique(syn, axis=0))


@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-3, 0.5, 1 - 2**-53, 1.0])
def test_flip_draws_equal_random_below_p(p):
    """``_flip_draws`` gives ``Generator.random(shape) < p`` bit for bit over
    three consecutive blocks of one stream, and leaves the stream where
    ``random`` leaves it."""
    for seed in (0, 23, 2**40 + 3):
        bit_generator = np.random.Philox(key=seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        for shape in ((1024, 82), (5, 26), (1025, 2)):
            got = sc._flip_draws(bit_generator, p, shape)
            assert got.dtype == bool and got.shape == shape
            assert np.array_equal(got, rng.random(shape) < p)
        assert bit_generator.random_raw() == rng.bit_generator.random_raw()


@pytest.mark.parametrize("cycles", [1, 2, 3])
def test_certain_flips_at_odd_and_even_cycles(cycles):
    """p = 1 flips every data qubit by X and Z each cycle, so the cumulative
    probability is 1 after odd cycles (every draw below it) and 0 after even
    ones: every shot holds the all-ones error, or none."""
    shots, seed = 40, 5
    for d in (2, 3, 5):
        lat = sc.SurfaceLattice(d)
        every = np.full(lat.n_data, cycles % 2, dtype=np.int8)
        syn = sc.syndrome_from_errors(lat, every, every)
        res = sc.logical_error_rate(d, 1.0, cycles, shots, seed)
        assert res.failures == _looped_failures(d, 1.0, cycles, shots, seed)
        assert res.failures in ((0, shots) if cycles % 2 else (0,))
        assert res.max_defects == {"z": syn.z_bits.sum(), "x": syn.x_bits.sum()}
        assert res.distinct_syndromes == {"z": 1, "x": 1}


@pytest.mark.parametrize("d", [2, 3])
def test_decode_table_is_the_decoders_readback(d):
    """All 2^m syndromes of each kind, decoded by ``mwpm_decode`` and read
    back: the correction clears the syndrome, the residual of an error with
    that syndrome and even logical parity flips the guarded logical exactly
    when the table's flip says so (odd parity the other way), and the
    defect count is the syndrome's popcount."""
    lat = sc.SurfaceLattice(d)
    m = len(lat.z_checks)
    x_l, z_l = sc.logical_ops(lat)
    table = sc._decode_table(d)
    assert table.fail.shape == (2, 2 << m) and table.fail.dtype == bool
    assert table.defects.shape == (1 << m,)
    for shared in table:
        assert not shared.flags.writeable
    none = np.zeros(m, dtype=np.int8)
    flips = 0
    # X errors light Z checks and may flip Z_L; Z errors light X checks and X_L
    for k, (kind, logical) in enumerate((("z", z_l), ("x", x_l))):
        support = list(logical.support())
        for s in range(1 << m):
            bits = (s >> np.arange(m) & 1).astype(np.int8)
            syn = sc.Syndrome(0, *((none, bits) if kind == "z" else (bits, none)))
            frame = sc.mwpm_decode(syn, lat)
            fix, other = (frame.x, frame.z) if kind == "z" else (frame.z, frame.x)
            again = sc.syndrome_from_errors(lat, frame.x, frame.z)
            assert not other.any()
            assert np.array_equal(again.z_bits if kind == "z" else again.x_bits, bits)
            flip = bool(fix[support].sum() % 2)
            flips += flip
            assert table.fail[k, s] == flip
            assert table.fail[k, s | 1 << m] == (not flip)
            assert table.defects[s] == bits.sum()
    assert 0 < flips < 2 << m


def test_decode_table_is_built_lazily_at_small_distances(src_env):
    """Importing the module builds no table, a d = 5 call builds none, the
    first d = 3 call builds one."""
    code = ("import scqsim.surface_code as sc\n"
            "built = sc._decode_table.cache_info\n"
            "assert built().currsize == 0\n"
            "sc.logical_error_rate(5, 0.03, 1, 200, 1)\n"
            "assert built().currsize == 0\n"
            "sc.logical_error_rate(3, 0.03, 1, 200, 1)\n"
            "assert built().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code], env=src_env, check=True)


@lru_cache(maxsize=None)
def _failing_by_weight(d):
    """(n_data, failing X patterns by weight, failing Z patterns by weight):
    every one of the 2^n_data patterns of each kind is corrected by
    ``mwpm_decode``, each distinct syndrome decoded once, and counted as
    failing when the residual flips the logical of the other kind."""
    lat = sc.SurfaceLattice(d)
    x_l, z_l = sc.logical_ops(lat)
    n = lat.n_data
    patterns = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    none = np.zeros(len(lat.z_checks), dtype=np.int8)
    failing = []
    # X errors light Z checks and may flip Z_L; Z errors light X checks
    for kind, logical in (("z", z_l), ("x", x_l)):
        support = np.zeros(n, dtype=int)
        support[list(logical.support())] = 1
        found, inverse = np.unique(patterns @ lat.adjacency(kind) % 2, axis=0,
                                   return_inverse=True)
        fixes = []
        for bits in found.astype(np.int8):
            both = (none, bits) if kind == "z" else (bits, none)
            frame = sc.mwpm_decode(sc.Syndrome(0, *both), lat)
            fixes.append(frame.x if kind == "z" else frame.z)
        residual = patterns ^ np.array(fixes)[inverse.reshape(-1)]
        failing.append(np.bincount(patterns.sum(axis=1), weights=residual @ support % 2,
                                   minlength=n + 1))
    return (n, *failing)


def _exact_logical_rate(d, p, cycles):
    """1 - (1 - P_x)(1 - P_z), each kind's failing patterns summed at the
    cumulative flip probability (1 - (1 - 2p)^cycles) / 2."""
    n, fail_x, fail_z = _failing_by_weight(d)
    q = 0.5 * (1.0 - (1.0 - 2.0 * p) ** cycles)
    w = np.arange(n + 1)
    pw = q**w * (1 - q) ** (n - w)
    return 1.0 - (1.0 - fail_x @ pw) * (1.0 - fail_z @ pw)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [0.01, 0.05, 0.15])
@pytest.mark.parametrize("cycles", [1, 3])
def test_monte_carlo_matches_exact_oracle(d, p, cycles):
    """Failure counts of 20,000 shots are a Binomial(shots, exact) draw:
    neither tail of the count falls below 1e-6."""
    shots, seed = 20_000, 41
    exact = _exact_logical_rate(d, p, cycles)
    k = sc.logical_error_rate(d, p, cycles, shots, seed).failures
    at_most = betainc(shots - k, k + 1, 1.0 - exact) if k < shots else 1.0
    at_least = betainc(k, shots - k + 1, exact) if k > 0 else 1.0
    assert min(at_most, at_least) >= 1e-6, (k, shots * exact)


def test_monte_carlo_memory_bound():
    """No full-size error array: once its caches are warm, the 10,000-shot
    d = 5, p = 0.15 call peaks under 6 MB of traced allocations.  Keeping
    float32 (shots, n_data) error arrays of both kinds takes it to about
    7.2 MB."""
    sc.logical_error_rate(5, 0.15, 1, 10000, 7)
    tracemalloc.start()
    try:
        sc.logical_error_rate(5, 0.15, 1, 10000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_monte_carlo_past_the_old_capacity():
    """d = 5, p = 0.15, seed 7 holds 16-defect shots; it completes, with the
    failure count of the exact matcher."""
    res = sc.logical_error_rate(5, 0.15, 1, 10000, 7)
    assert res.failures == 5170
    assert max(res.max_defects.values()) == 16


@pytest.mark.parametrize("d, p, shots, seed", [
    (3, 1e-3, 2000, 3), (3, 0.08, 2000, 4), (5, 0.03, 1000, 5), (5, 0.15, 3000, 6),
])
def test_monte_carlo_counts(d, p, shots, seed):
    res = sc.logical_error_rate(d, p, 1, shots, seed)
    for kind, syn in zip("zx", _documented_syndromes(d, p, shots, seed)):
        assert res.max_defects[kind] == syn.sum(axis=1).max()
        assert res.distinct_syndromes[kind] == len(np.unique(syn, axis=0))


def test_monte_carlo_at_full_capacity():
    """d = 5, p = 0.5, seed 9: the draws hold a shot with every one of the 20
    X checks lit, which the matcher takes, and decoding that syndrome (or
    all 20 Z checks) leaves none lit."""
    d, p, shots, seed = 5, 0.5, 10000, 9
    assert len(sc.SurfaceLattice(d).z_checks) == sc.MAX_DEFECTS == 20
    res = sc.logical_error_rate(d, p, 1, shots, seed)
    assert res.max_defects == {"z": 18, "x": 20}
    assert res.failures == 7484
    lat = sc.SurfaceLattice(d)
    for kind in "xz":
        bits = {k: np.full(20, int(k == kind), np.int8) for k in "xz"}
        frame = sc.mwpm_decode(sc.Syndrome(0, bits["x"], bits["z"]), lat)
        again = sc.syndrome_from_errors(lat, frame.x, frame.z)
        assert np.array_equal(again.x_bits, bits["x"])
        assert np.array_equal(again.z_bits, bits["z"])


@pytest.mark.parametrize("p, cycles, shots", [
    (2.0, 1, 10), (-0.1, 1, 10), (np.nan, 1, 10), (0.01, 0, 10), (0.01, 1, 0),
])
def test_monte_carlo_rejects_out_of_range_inputs(p, cycles, shots):
    with pytest.raises(ValueError, match="0 <= p <= 1"):
        sc.logical_error_rate(3, p, cycles, shots)


def test_unsupported_distance():
    with pytest.raises(ValueError, match="distances"):
        sc.logical_error_rate(4, 1e-3)
