"""Surface-code engine: worked d=2 example as state vectors, a CHP-style
stabilizer tableau for d >= 3, syndrome extraction, exhaustive
minimum-weight matching, logical operators, and logical-error-rate
Monte Carlo.

Lattice convention (fixed here; a mirror-image choice would work equally):
the distance-d code lives on a (2d-1) x (2d-1) grid.  Cell (r, c) is a
data qubit when r + c is even, an X-syndrome qubit when r is even and c
odd, and a Z-syndrome qubit when r is odd and c even.  For d = 2::

    D0  Xa  D1        data row-major: D0=(0,0) D1=(0,2) D2=(1,1)
    Za  D2  Zb                        D3=(2,0) D4=(2,2)
    D3  Xc  D4

which reproduces the textbook five-qubit patch: Xa = X0 X1 X2,
Xc = X2 X3 X4, Za = Z0 Z2 Z3, Zb = Z1 Z2 Z4, with logicals
Z_L = Z0 Z1 (top row) and X_L = X0 X3 (left column).

X-error chains terminate on the top/bottom boundaries (their defects are
Z-checks), Z-error chains on the left/right boundaries.  The noise model
is phenomenological: iid X and Z flips on data qubits each cycle with
perfect extraction circuits, so matching is two-dimensional on the final
syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qcore import H_GATE, PAULIS, StateVector, basis_ket, tensor

# (letter1, letter2) -> (letter, phase-exponent of i) for single-qubit products
_PAULI_MUL = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("X", "X"): ("I", 0), ("X", "Y"): ("Z", 1), ("X", "Z"): ("Y", 3),
    ("Y", "I"): ("Y", 0), ("Y", "X"): ("Z", 3), ("Y", "Y"): ("I", 0), ("Y", "Z"): ("X", 1),
    ("Z", "I"): ("Z", 0), ("Z", "X"): ("Y", 1), ("Z", "Y"): ("X", 3), ("Z", "Z"): ("I", 0),
}


class DecoderCapacityError(RuntimeError):
    """Too many defects for the exhaustive matcher."""


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli operator: letters in {I, X, Y, Z} plus an overall phase.

    ``phase`` is the exponent k of i^k, so k = 0, 1, 2, 3 means
    +1, +i, -1, -i.
    """

    letters: str
    phase: int = 0

    def __post_init__(self):
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def sign(self) -> complex:
        return 1j**self.phase

    def weight(self) -> int:
        return sum(1 for c in self.letters if c != "I")

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("length mismatch")
        anti = sum(
            1
            for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return anti % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("length mismatch")
        phase = self.phase + other.phase
        letters = []
        for a, b in zip(self.letters, other.letters):
            c, k = _PAULI_MUL[(a, b)]
            letters.append(c)
            phase += k
        return PauliString("".join(letters), phase)

    def to_matrix(self) -> np.ndarray:
        return self.sign * tensor([PAULIS[c] for c in self.letters]).entries

    @classmethod
    def from_support(cls, n: int, letter: str, support, phase: int = 0) -> "PauliString":
        letters = ["I"] * n
        for q in support:
            letters[q] = letter
        return cls("".join(letters), phase)


# ---------------------------------------------------------------------------
# State-vector path: the d = 2 worked example
# ---------------------------------------------------------------------------

D2_STABILIZERS = (
    PauliString("XXXII"),
    PauliString("IIXXX"),
    PauliString("ZIZZI"),
    PauliString("IZZIZ"),
)

D2_LOGICAL_Z = PauliString("ZZIII")
D2_LOGICAL_X = PauliString("XIIXI")


def d2_codewords() -> tuple[StateVector, StateVector]:
    """The distance-2 logical codewords as 32-dim state vectors.

    |0>_L = (|00000> + |00111> + |11011> + |11100>) / 2
    |1>_L = (|10010> + |10101> + |01001> + |01110>) / 2

    with |psi_D0 ... psi_D4> bit ordering (D0 most significant).
    """
    zero = 0.5 * sum(basis_ket(b).amplitudes
                     for b in ("00000", "00111", "11011", "11100"))
    one = 0.5 * sum(basis_ket(b).amplitudes
                    for b in ("10010", "10101", "01001", "01110"))
    return StateVector(zero), StateVector(one)


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    return StateVector(p.to_matrix() @ state.amplitudes, _skip_norm_check=True)


def measure_stabilizer(state: StateVector, s: PauliString, rng) -> tuple[int, StateVector]:
    """Projective measurement of a Hermitian Pauli; returns (+-1, post-state).

    Born probabilities via the projectors (I +- S)/2; repeating the
    measurement reproduces the outcome.
    """
    if s.phase % 2:
        raise ValueError("stabilizer must be Hermitian (phase +-1)")
    m = s.to_matrix()
    psi = state.amplitudes
    plus = 0.5 * (psi + m @ psi)
    p_plus = float(np.vdot(plus, plus).real)
    if rng.random() < p_plus:
        post = plus / np.sqrt(p_plus)
        return +1, StateVector(post)
    minus = 0.5 * (psi - m @ psi)
    post = minus / np.sqrt(1.0 - p_plus)
    return -1, StateVector(post)


def logical_h_d2(state: StateVector) -> StateVector:
    """Transversal H on all five data qubits followed by the 90-degree
    lattice rotation, realized as the index relabeling
    D0->D1, D1->D4, D3->D0, D4->D3 (D2 fixed).
    """
    psi = tensor([H_GATE] * 5).entries @ state.amplitudes
    # new qubit axis j holds old axis (3, 0, 2, 4, 1)[j]
    return StateVector(psi.reshape((2,) * 5).transpose(3, 0, 2, 4, 1).reshape(-1))


# ---------------------------------------------------------------------------
# Stabilizer tableau (CHP-style)
# ---------------------------------------------------------------------------

class StabilizerTableau:
    """Aaronson-Gottesman tableau over n qubits.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; ``x``/``z``
    are (2n, n) bit arrays and ``r`` the sign bits (0 -> +, 1 -> -).
    Supports H, S, CNOT, X, Z, single-qubit Z measurement, and projective
    measurement of an arbitrary Hermitian Pauli string.  Non-Clifford
    requests have nowhere to go here and raise.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.int8)
        self.z = np.zeros((2 * n, n), dtype=np.int8)
        self.r = np.zeros(2 * n, dtype=np.int8)
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[np.arange(n, 2 * n), np.arange(n)] = 1

    # -- gates -------------------------------------------------------------

    def h(self, q: int):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()
        return self

    def s(self, q: int):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]
        return self

    def cnot(self, control: int, target: int):
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]
        return self

    def x_gate(self, q: int):
        self.r ^= self.z[:, q]
        return self

    def z_gate(self, q: int):
        self.r ^= self.x[:, q]
        return self

    def apply(self, name: str, *qubits):
        table = {"H": self.h, "S": self.s, "CNOT": self.cnot,
                 "X": self.x_gate, "Z": self.z_gate}
        if name.upper() not in table:
            raise ValueError(f"unsupported (non-Clifford?) gate {name!r}")
        return table[name.upper()](*qubits)

    # -- phase bookkeeping ---------------------------------------------------

    @staticmethod
    def _g(x1, z1, x2, z2):
        # exponent of i when multiplying single-qubit Paulis (AG convention);
        # each term is -1, 0 or 1, so int8 bit arrays do not overflow
        return (
            x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * z2 * (2 * x2 - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * z2)
        )

    # -- measurements --------------------------------------------------------

    def _measure(self, px, pz, sign: int, rng) -> int:
        """Measure the Pauli (-1)^sign X^px Z^pz; returns the outcome bit.

        Random branch: every other anticommuting row is multiplied by the
        first anticommuting stabilizer (the pivot) in one vectorized rowsum,
        the pivot moves to its destabilizer slot and is replaced by the
        measured Pauli with sign ``draw ^ sign``.  Deterministic branch: the
        outcome is the sign of the product of the stabilizers whose
        destabilizers anticommute, built as a prefix XOR plus one g-sum.
        """
        n = self.n
        x, z, r = self.x, self.z, self.r
        # symplectic product with every row (the int8 sums accumulate in int)
        anti = (x[:, pz == 1].sum(axis=1) + z[:, px == 1].sum(axis=1)) % 2 == 1
        hits = np.nonzero(anti[n:])[0]
        if len(hits):
            p = int(hits[0]) + n
            anti[p] = False
            rows = np.nonzero(anti)[0]
            gsum = self._g(x[p], z[p], x[rows], z[rows]).sum(axis=1)
            r[rows] = (2 * r[rows] + 2 * int(r[p]) + gsum) % 4 // 2
            x[rows] ^= x[p]
            z[rows] ^= z[p]
            x[p - n], z[p - n], r[p - n] = x[p], z[p], r[p]
            draw = int(rng.integers(0, 2))
            x[p], z[p], r[p] = px, pz, draw ^ sign
            return draw
        rows = np.nonzero(anti[:n])[0] + n
        xs, zs = x[rows], z[rows]
        # product of the rows before each one (exclusive prefix XOR)
        x_pre = np.bitwise_xor.accumulate(xs) ^ xs
        z_pre = np.bitwise_xor.accumulate(zs) ^ zs
        total = 2 * int(r[rows].sum()) + int(self._g(xs, zs, x_pre, z_pre).sum())
        return (total % 4 // 2) ^ sign

    def measure_z(self, q: int, rng) -> int:
        """Standard-basis measurement of qubit q; returns 0 or 1."""
        pz = np.zeros(self.n, dtype=np.int8)
        pz[q] = 1
        return self._measure(np.zeros(self.n, dtype=np.int8), pz, 0, rng)

    def measure_pauli(self, p: PauliString, rng) -> int:
        """Projective measurement of a Hermitian Pauli string; returns +-1."""
        if p.n != self.n:
            raise ValueError("Pauli length mismatch")
        if p.phase % 2:
            raise ValueError("measured Pauli must be Hermitian")
        px = np.array([c in "XY" for c in p.letters], dtype=np.int8)
        pz = np.array([c in "ZY" for c in p.letters], dtype=np.int8)
        return 1 - 2 * self._measure(px, pz, p.phase // 2, rng)

    def stabilizer_strings(self) -> list[PauliString]:
        out = []
        for i in range(self.n, 2 * self.n):
            phase = 2 * int(self.r[i])
            letters = "".join(
                "IXZY"[int(self.x[i, q]) + 2 * int(self.z[i, q])]
                for q in range(self.n)
            )
            out.append(PauliString(letters, phase))
        return out


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceLattice:
    """Distance-d surface-code layout on a (2d-1) x (2d-1) grid."""

    d: int
    data: tuple = field(init=False)
    x_checks: tuple = field(init=False)
    z_checks: tuple = field(init=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need distance d >= 2")
        size = self.size
        data, xc, zc = [], [], []
        for r in range(size):
            for c in range(size):
                if (r + c) % 2 == 0:
                    data.append((r, c))
                elif r % 2 == 0:
                    xc.append((r, c))
                else:
                    zc.append((r, c))
        object.__setattr__(self, "data", tuple(data))
        object.__setattr__(self, "x_checks", tuple(xc))
        object.__setattr__(self, "z_checks", tuple(zc))
        assert len(data) == 2 * self.d**2 - 2 * self.d + 1
        assert len(xc) == len(zc) == self.d**2 - self.d

    @property
    def size(self) -> int:
        return 2 * self.d - 1

    @property
    def n_total(self) -> int:
        return self.size**2

    @property
    def n_data(self) -> int:
        return len(self.data)

    def cell_index(self, pos) -> int:
        return pos[0] * self.size + pos[1]

    def data_index(self, pos) -> int:
        return self.data.index(pos)

    def check_support(self, pos) -> list:
        """Data qubits adjacent to a syndrome qubit (2 on edges, 4 inside)."""
        r, c = pos
        out = []
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < self.size and 0 <= cc < self.size:
                out.append((rr, cc))
        return out

    def stabilizer(self, pos) -> PauliString:
        """Stabilizer of a check position as a PauliString over data qubits."""
        letter = "X" if pos in self.x_checks else "Z"
        support = [self.data_index(p) for p in self.check_support(pos)]
        return PauliString.from_support(self.n_data, letter, support)

    def adjacency(self, kind: str) -> np.ndarray:
        """(n_data, n_checks) 0/1 matrix: data qubit in support of check."""
        checks = self.x_checks if kind == "x" else self.z_checks
        a = np.zeros((self.n_data, len(checks)), dtype=np.int8)
        for j, pos in enumerate(checks):
            for p in self.check_support(pos):
                a[self.data_index(p), j] = 1
        return a


def logical_ops(lattice: SurfaceLattice) -> tuple[PauliString, PauliString]:
    """(X_L, Z_L): X down the left column of data qubits, Z along the top row.

    Both commute with every stabilizer and anticommute with each other
    (they intersect only at the corner data qubit).
    """
    x_support = [lattice.data_index((r, 0)) for r in range(0, lattice.size, 2)]
    z_support = [lattice.data_index((0, c)) for c in range(0, lattice.size, 2)]
    return (
        PauliString.from_support(lattice.n_data, "X", x_support),
        PauliString.from_support(lattice.n_data, "Z", z_support),
    )


# ---------------------------------------------------------------------------
# Syndromes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Syndrome:
    """One cycle of parity outcomes: bit 1 means the check returned -1."""

    cycle: int
    x_bits: np.ndarray
    z_bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_bits", np.asarray(self.x_bits, dtype=np.int8))
        object.__setattr__(self, "z_bits", np.asarray(self.z_bits, dtype=np.int8))


@dataclass
class PauliFrame:
    """Classical record of inferred X/Z corrections per data qubit."""

    x: np.ndarray
    z: np.ndarray


def lattice_tableau(lattice: SurfaceLattice) -> StabilizerTableau:
    """Fresh |0...0> tableau over every lattice cell (data + syndrome)."""
    return StabilizerTableau(lattice.n_total)


def encode_logical_zero(lattice: SurfaceLattice, tab: StabilizerTableau,
                        rng) -> None:
    """Project |0...0> onto |0>_L and fix the X-check frame to +1.

    All-zeros already satisfies the Z stabilizers and Z_L = +1; one round of
    X-check measurements projects the rest.  A check that lands on -1 is
    flipped by a Z chain from that check to its nearest boundary (the chain
    anticommutes with exactly that one X stabilizer and commutes with Z_L),
    after which every stabilizer reads +1 deterministically.
    """
    noiseless = {"p_x": 0.0, "p_z": 0.0}
    syn = syndrome_cycle(lattice, tab, noiseless, rng)
    for j, bit in enumerate(syn.x_bits):
        if bit:
            for pos in _boundary_path(lattice.x_checks[j], lattice.size, "x"):
                tab.z_gate(lattice.cell_index(pos))


def inject_errors(lattice: SurfaceLattice, tab: StabilizerTableau,
                  p_x: float, p_z: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """iid X / Z flips on the data qubits; returns the injected patterns."""
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


def syndrome_cycle(lattice: SurfaceLattice, tab: StabilizerTableau,
                   noise: dict, rng, cycle: int = 0) -> Syndrome:
    """One full error-correction cycle on the lattice tableau.

    Injects iid data errors with probabilities ``noise = {'p_x':, 'p_z':}``,
    then runs the parity-check circuits: every X check first (ancilla in
    |+>, CNOTs ancilla -> data, H, measure), then every Z check (CNOTs
    data -> ancilla, measure).  Ancillas are reset after measurement.
    The extraction circuits themselves are noiseless in this model.
    """
    inject_errors(lattice, tab, noise.get("p_x", 0.0), noise.get("p_z", 0.0), rng)
    x_bits = np.zeros(len(lattice.x_checks), dtype=np.int8)
    for j, pos in enumerate(lattice.x_checks):
        anc = lattice.cell_index(pos)
        tab.h(anc)
        for dpos in lattice.check_support(pos):
            tab.cnot(anc, lattice.cell_index(dpos))
        tab.h(anc)
        bit = tab.measure_z(anc, rng)
        if bit:
            tab.x_gate(anc)
        x_bits[j] = bit
    z_bits = np.zeros(len(lattice.z_checks), dtype=np.int8)
    for j, pos in enumerate(lattice.z_checks):
        anc = lattice.cell_index(pos)
        for dpos in lattice.check_support(pos):
            tab.cnot(lattice.cell_index(dpos), anc)
        bit = tab.measure_z(anc, rng)
        if bit:
            tab.x_gate(anc)
        z_bits[j] = bit
    return Syndrome(cycle, x_bits, z_bits)


def syndrome_from_errors(lattice: SurfaceLattice, ex: np.ndarray,
                         ez: np.ndarray, cycle: int = 0) -> Syndrome:
    """Parities implied by explicit error patterns (fast path; no circuits).

    Agrees with :func:`syndrome_cycle` for the phenomenological model --
    the test suite asserts exactly that equivalence.
    """
    return Syndrome(cycle, *_parities(lattice, ex, ez))


def _parities(lattice: SurfaceLattice, ex, ez) -> tuple[np.ndarray, np.ndarray]:
    """(X-check, Z-check) parities of error patterns, one row per shot."""
    x_bits = (ez @ lattice.adjacency("x")) % 2     # Z errors trip X checks
    z_bits = (ex @ lattice.adjacency("z")) % 2     # X errors trip Z checks
    return x_bits, z_bits


def syndromes_to_csv(syndromes, path) -> None:
    """One line per cycle: X-check bits row-major, then Z-check bits."""
    with open(path, "w") as fh:
        for s in syndromes:
            bits = list(s.x_bits) + list(s.z_bits)
            fh.write(",".join(str(int(b)) for b in bits) + "\n")


# ---------------------------------------------------------------------------
# Exhaustive minimum-weight matching
# ---------------------------------------------------------------------------

MAX_DEFECTS = 14


def _check_capacity(n_defects: int) -> None:
    if n_defects > MAX_DEFECTS:
        raise DecoderCapacityError(
            f"{n_defects} defects exceed the exhaustive-matching capacity "
            f"{MAX_DEFECTS}"
        )


def _boundary_distance(pos, size: int, kind: str) -> int:
    r, c = pos
    if kind == "z":     # X-error chains end on the top/bottom boundary
        return min((r + 1) // 2, (size - r) // 2)
    return min((c + 1) // 2, (size - c) // 2)


def _pair_distance(p1, p2) -> int:
    return (abs(p1[0] - p2[0]) + abs(p1[1] - p2[1])) // 2


def _boundary_path(pos, size: int, kind: str) -> list:
    """Data qubits on the straight path from a defect to its nearest boundary."""
    r, c = pos
    if kind == "z":
        if (r + 1) // 2 <= (size - r) // 2:
            rows = range(r - 1, -1, -2)
        else:
            rows = range(r + 1, size, 2)
        return [(rr, c) for rr in rows]
    if (c + 1) // 2 <= (size - c) // 2:
        cols = range(c - 1, -1, -2)
    else:
        cols = range(c + 1, size, 2)
    return [(r, cc) for cc in cols]


def _pair_path(p1, p2, kind: str) -> list:
    """Data qubits on a minimum path between two same-type defects.

    Z-check defects connect vertically first, then horizontally; X-check
    defects the transpose.  Any minimum path differs from this one by
    stabilizers only.
    """
    (r1, c1), (r2, c2) = p1, p2
    out = []
    if kind == "z":
        step = 2 if r2 >= r1 else -2
        for rr in range(r1, r2, step):
            out.append((rr + step // 2, c1))
        step = 2 if c2 >= c1 else -2
        for cc in range(c1, c2, step):
            out.append((r2, cc + step // 2))
    else:
        step = 2 if c2 >= c1 else -2
        for cc in range(c1, c2, step):
            out.append((r1, cc + step // 2))
        step = 2 if r2 >= r1 else -2
        for rr in range(r1, r2, step):
            out.append((rr + step // 2, c2))
    return out


def _min_weight_matching(defects: list, size: int, kind: str):
    """Exhaustive minimum-weight pairing with virtual boundary nodes.

    Returns (weight, pairs) where each pair is (i, j) into ``defects`` or
    (i, None) for a boundary match.  Ties resolve deterministically:
    options are scanned boundary-first, partners in ascending index order,
    and only strict improvements replace the incumbent.
    """
    n = len(defects)
    _check_capacity(n)

    @lru_cache(maxsize=None)
    def solve(mask: int):
        if mask == 0:
            return 0, ()
        first = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << first)
        best_w, best_pairs = None, None
        w, pairs = solve(rest)
        cand = w + _boundary_distance(defects[first], size, kind)
        best_w, best_pairs = cand, pairs + ((first, None),)
        for j in range(first + 1, n):
            if not (rest >> j) & 1:
                continue
            w, pairs = solve(rest & ~(1 << j))
            cand = w + _pair_distance(defects[first], defects[j])
            if cand < best_w:
                best_w, best_pairs = cand, pairs + ((first, j),)
        return best_w, best_pairs

    weight, pairs = solve((1 << n) - 1)
    solve.cache_clear()
    return weight, pairs


def mwpm_decode(syndromes, lattice: SurfaceLattice) -> PauliFrame:
    """Minimum-weight matching correction from measured syndromes.

    Accepts a single :class:`Syndrome` or a sequence over cycles; with the
    phenomenological model (perfect extraction) each cycle reports the
    parity of the cumulative error, so the final cycle carries all the
    information and is the one decoded.  Corrections land in a Pauli
    frame, never on the state.
    """
    if isinstance(syndromes, Syndrome):
        syn = syndromes
    else:
        seq = list(syndromes)
        if not seq:
            raise ValueError("no syndromes to decode")
        syn = seq[-1]
    return PauliFrame(_correction(syn.z_bits, lattice, "z"),
                      _correction(syn.x_bits, lattice, "x"))


def _correction(bits, lattice: SurfaceLattice, kind: str) -> np.ndarray:
    """Matching correction on the data qubits for one kind of check bits:
    Z-check bits (kind "z") give the X correction, X-check bits the Z one."""
    checks = lattice.z_checks if kind == "z" else lattice.x_checks
    defects = [checks[i] for i in np.nonzero(bits)[0]]
    out = np.zeros(lattice.n_data, dtype=np.int8)
    if not defects:
        return out
    _, pairs = _min_weight_matching(defects, lattice.size, kind)
    for i, j in pairs:
        if j is None:
            path = _boundary_path(defects[i], lattice.size, kind)
        else:
            path = _pair_path(defects[i], defects[j], kind)
        for pos in path:
            out[lattice.data_index(pos)] ^= 1
    return out


# ---------------------------------------------------------------------------
# Logical-error-rate Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogicalRateResult:
    rate: float
    ci_low: float
    ci_high: float
    failures: int
    shots: int
    d: int
    p: float
    cycles: int
    seed: int


def _wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    ph = k / n
    denom = 1 + z**2 / n
    center = (ph + z**2 / (2 * n)) / denom
    half = z * np.sqrt(ph * (1 - ph) / n + z**2 / (4 * n**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def logical_error_rate(d: int, p: float, cycles: int = 1, shots: int = 10000,
                       seed: int = 0) -> LogicalRateResult:
    """Monte Carlo logical error rate under phenomenological noise.

    Each data qubit flips (X and, independently, Z) with probability p per
    cycle; the cumulative flip probability over ``cycles`` rounds is
    (1 - (1 - 2p)^cycles)/2, sampled directly since perfect extraction
    makes only the final syndrome matter.  A shot fails when the residual
    error after matching anticommutes with Z_L or X_L.

    The RNG is counter-based (Philox keyed by ``seed``): shot i consumes
    row i of one pre-drawn array, so any shot is reproducible from
    (seed, shot index) alone.  Each distinct syndrome of each kind is
    decoded once and its correction's logical parity gathered back to the
    shots that share it.
    """
    if d not in (2, 3, 5):
        raise ValueError("supported distances: 2, 3, 5")
    if not (0.0 <= p <= 1.0 and cycles >= 1 and shots >= 1):
        raise ValueError("need 0 <= p <= 1, cycles >= 1 and shots >= 1")
    lattice = SurfaceLattice(d)
    x_l, z_l = logical_ops(lattice)

    p_cum = 0.5 * (1.0 - (1.0 - 2.0 * p) ** cycles)
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.random((shots, lattice.n_data, 2))
    errors_x = (draws[:, :, 0] < p_cum).astype(np.int8)
    errors_z = (draws[:, :, 1] < p_cum).astype(np.int8)

    syn_x, syn_z = _parities(lattice, errors_x, errors_z)
    _check_capacity(int(max(syn_x.sum(axis=1).max(), syn_z.sum(axis=1).max())))

    # a shot fails when its residual X error flips Z_L or its Z error X_L
    failed = np.zeros(shots, dtype=bool)
    for kind, syn, errors, logical in (("z", syn_z, errors_x, z_l),
                                       ("x", syn_x, errors_z, x_l)):
        sup = np.zeros(lattice.n_data, dtype=np.int8)
        sup[list(logical.support())] = 1
        keys = syn.astype(np.int64) @ (1 << np.arange(syn.shape[1], dtype=np.int64))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        flips = np.array([_correction(syn[i], lattice, kind) @ sup for i in first])
        failed |= (errors @ sup + flips[inverse]) % 2 == 1
    failures = int(failed.sum())
    rate = failures / shots
    lo, hi = _wilson_interval(failures, shots)
    return LogicalRateResult(rate, lo, hi, failures, shots, d, p, cycles, seed)
