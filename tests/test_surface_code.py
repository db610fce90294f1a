import numpy as np
import pytest
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


def test_d3_exhaustive_single_errors_corrected():
    lat = sc.SurfaceLattice(3)
    xl, zl = sc.logical_ops(lat)
    xl_sup = np.zeros(lat.n_data, np.int8)
    xl_sup[list(xl.support())] = 1
    zl_sup = np.zeros(lat.n_data, np.int8)
    zl_sup[list(zl.support())] = 1
    for i in range(lat.n_data):
        for kind in ("x", "z"):
            ex = np.zeros(lat.n_data, dtype=np.int8)
            ez = np.zeros(lat.n_data, dtype=np.int8)
            (ex if kind == "x" else ez)[i] = 1
            frame = sc.mwpm_decode(sc.syndrome_from_errors(lat, ex, ez), lat)
            rx, rz = ex ^ frame.x, ez ^ frame.z
            assert int(rx @ zl_sup) % 2 == 0
            assert int(rz @ xl_sup) % 2 == 0
            resid = sc.syndrome_from_errors(lat, rx, rz)
            assert not resid.x_bits.any() and not resid.z_bits.any()


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
                    sc._boundary_distance(defects[i], lat.size, "z")
                    for i in bound_set
                )

                def pairings(items):
                    if not items:
                        yield 0
                        return
                    first, rest_items = items[0], items[1:]
                    for k, other in enumerate(rest_items):
                        w = sc._pair_distance(defects[first], defects[other])
                        for sub in pairings(rest_items[:k] + rest_items[k + 1:]):
                            yield w + sub

                for pair_w in pairings(rest):
                    best = min(best, base + pair_w)
        return best

    for _ in range(10):
        picks = rng.choice(len(lat.z_checks), size=6, replace=False)
        defects = [lat.z_checks[i] for i in sorted(picks)]
        weight, _ = sc._min_weight_matching(defects, lat.size, "z")
        assert weight == brute_force(defects)


def test_decoder_capacity_limit():
    lat = sc.SurfaceLattice(5)
    syn = sc.Syndrome(0, np.zeros(len(lat.x_checks), np.int8),
                      np.ones(len(lat.z_checks), np.int8))
    with pytest.raises(sc.DecoderCapacityError):
        sc.mwpm_decode(syn, lat)


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
@pytest.mark.parametrize("p", [1e-3, 0.03, 0.08])
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


def test_monte_carlo_capacity_error():
    """d = 5, p = 0.15, seed 7: the draws hold shots with more defects than
    the matcher takes, and the whole call raises before decoding."""
    d, p, shots, seed = 5, 0.15, 10000, 7
    lat = sc.SurfaceLattice(d)
    draws = np.random.Generator(np.random.Philox(key=seed)).random(
        (shots, lat.n_data, 2))
    most = max(
        int(((draws[:, :, 0] < p).astype(int) @ lat.adjacency("z") % 2).sum(1).max()),
        int(((draws[:, :, 1] < p).astype(int) @ lat.adjacency("x") % 2).sum(1).max()),
    )
    assert most > sc.MAX_DEFECTS
    with pytest.raises(sc.DecoderCapacityError,
                       match=f"^{most} defects exceed the exhaustive-matching "
                             f"capacity {sc.MAX_DEFECTS}$"):
        sc.logical_error_rate(d, p, 1, shots, seed)


@pytest.mark.parametrize("p, cycles, shots", [
    (2.0, 1, 10), (-0.1, 1, 10), (np.nan, 1, 10), (0.01, 0, 10), (0.01, 1, 0),
])
def test_monte_carlo_rejects_out_of_range_inputs(p, cycles, shots):
    with pytest.raises(ValueError, match="0 <= p <= 1"):
        sc.logical_error_rate(3, p, cycles, shots)


def test_unsupported_distance():
    with pytest.raises(ValueError, match="distances"):
        sc.logical_error_rate(4, 1e-3)
