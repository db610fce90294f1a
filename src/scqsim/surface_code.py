"""Surface-code engine: worked d=2 example as state vectors, a CHP-style
stabilizer tableau for d >= 3, syndrome extraction, exact
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
Z-checks), Z-error chains on the left/right boundaries.  The Monte Carlo
samples iid X and Z flips on data qubits each cycle and extracts syndromes
perfectly: a code-capacity model compounded over cycles (the
phenomenological model of Dennis et al., J. Math. Phys. 43 (2002) 4452,
adds measurement errors), so matching is 2-D on the final syndrome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .qcore import H_GATE, PAULIS, StateVector, basis_ket, tensor

_LETTERS = "IXZY"       # the letter of the bits (x, z) is _LETTERS[x + 2 z]
_CODES = bytes.maketrans(_LETTERS.encode(), bytes(range(4)))     # letter -> x + 2 z


def _g(x1, z1, x2, z2):
    """Exponent of i in the product of the single-qubit Paulis with bits
    (x1, z1) and (x2, z2), Y = (1, 1) (Aaronson-Gottesman); each term is -1,
    0 or 1, so int8 bit arrays do not overflow."""
    return (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )


def _symplectic(x, z, px, pz):
    """1 where the Pauli (x, z) (qubits on the last axis) anticommutes with
    (px, pz): the symplectic product mod 2, its int8 sums accumulated in int."""
    return (x[..., pz == 1].sum(axis=-1) + z[..., px == 1].sum(axis=-1)) % 2


class DecoderCapacityError(RuntimeError):
    """More than ``MAX_DEFECTS`` defects of one check type in a syndrome: too
    many for the exact matcher."""


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli operator: letters in {I, X, Y, Z} plus an overall phase.

    ``phase`` is the exponent k of i^k, so k = 0, 1, 2, 3 means
    +1, +i, -1, -i.  The algebra runs on the tableau's bits: :meth:`bits`
    gives (x, z) per qubit, I = (0, 0), X = (1, 0), Z = (0, 1), Y = (1, 1)
    (the letter, not XZ = -iY), and :meth:`from_bits` reads them back.
    Products take the phase rule of the tableau's rowsum; commutation is
    the symplectic product.
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

    def bits(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, z) int8 bits per qubit, Y = (1, 1); the phase is not included."""
        code = np.frombuffer(self.letters.encode().translate(_CODES), dtype=np.int8)
        return code & 1, code >> 1

    @classmethod
    def from_bits(cls, x, z, phase: int = 0) -> "PauliString":
        """The Pauli string i^phase P with P's letters given by bits (x, z)."""
        code = np.asarray(x, dtype=int) + 2 * np.asarray(z, dtype=int)
        return cls("".join(_LETTERS[k] for k in code.tolist()), phase)

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return int(_symplectic(*self.bits(), *other.bits())) == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("length mismatch")
        (x1, z1), (x2, z2) = self.bits(), other.bits()
        phase = self.phase + other.phase + int(_g(x1, z1, x2, z2).sum())
        return PauliString.from_bits(x1 ^ x2, z1 ^ z2, phase)

    def to_matrix(self) -> np.ndarray:
        return self.sign * tensor([PAULIS[c] for c in self.letters]).entries

    @classmethod
    def from_support(cls, n: int, letter: str, support) -> "PauliString":
        letters = ["I"] * n
        for q in support:
            letters[q] = letter
        return cls("".join(letters))


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
        anti = _symplectic(x, z, px, pz) == 1
        hits = np.nonzero(anti[n:])[0]
        if len(hits):
            p = int(hits[0]) + n
            anti[p] = False
            rows = np.nonzero(anti)[0]
            gsum = _g(x[p], z[p], x[rows], z[rows]).sum(axis=1)
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
        total = 2 * int(r[rows].sum()) + int(_g(xs, zs, x_pre, z_pre).sum())
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
        return 1 - 2 * self._measure(*p.bits(), p.phase // 2, rng)


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
        """Index of a data qubit in ``data``: data cells are the even cell
        indices of the row-major grid (its size is odd), so it is half the
        cell index.  Raises ``ValueError`` for any other position."""
        r, c = pos
        if not (0 <= r < self.size and 0 <= c < self.size and (r + c) % 2 == 0):
            raise ValueError(f"{pos} is not a data qubit at d = {self.d}")
        return (r * self.size + c) // 2

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
        for name in ("x_bits", "z_bits"):
            bits = np.asarray(getattr(self, name))
            if not np.isin(bits, (0, 1)).all():
                raise ValueError(f"{name} must hold only 0 and 1")
            object.__setattr__(self, name, np.asarray(bits, dtype=np.int8))


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
    """iid X / Z flips on the data qubits, drawn as one (n_data, 2) block
    (row i: qubit i's X, then Z draw); returns the injected patterns."""
    draws = rng.random((lattice.n_data, 2))
    ex = (draws[:, 0] < p_x).astype(np.int8)
    ez = (draws[:, 1] < p_z).astype(np.int8)
    for i in np.nonzero(ex)[0]:
        tab.x_gate(lattice.cell_index(lattice.data[i]))
    for i in np.nonzero(ez)[0]:
        tab.z_gate(lattice.cell_index(lattice.data[i]))
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

    Agrees with :func:`syndrome_cycle`, whose extraction is perfect -- the
    test suite asserts exactly that equivalence.
    """
    x_bits, z_bits = _parities(lattice, ex, ez)
    return Syndrome(cycle, x_bits[..., :-1], z_bits[..., :-1])


def _parities(lattice: SurfaceLattice, ex, ez) -> tuple[np.ndarray, np.ndarray]:
    """(X-check, Z-check) parities of 0/1 error patterns over the data
    qubits (one pattern, or one row per shot), as int8.  Each has one more
    column than there are checks: the pattern's parity on the logical those
    checks guard, X_L for the X checks that Z errors ``ez`` trip and Z_L
    for the Z checks that X errors ``ex`` trip.

    One float32 matmul per kind against the :func:`_parity` matrices
    (BLAS; numpy's integer matmul is not), exact for sums of a few ones,
    then a cast to int8 and ``& 1``: float ``% 2`` costs about 100 times as
    much.
    """
    parity = _parity(lattice.d)
    return ((ez @ parity["x"]).astype(np.int8) & 1,
            (ex @ parity["z"]).astype(np.int8) & 1)


def syndromes_to_csv(syndromes, path) -> None:
    """One line per cycle: X-check bits row-major, then Z-check bits."""
    with open(path, "w") as fh:
        for s in syndromes:
            bits = list(s.x_bits) + list(s.z_bits)
            fh.write(",".join(str(int(b)) for b in bits) + "\n")


# ---------------------------------------------------------------------------
# Exact minimum-weight matching
# ---------------------------------------------------------------------------

MAX_DEFECTS = 20
"""Most defects of one check type the exact matcher takes in one syndrome.

The matcher is a DP over subsets of the defects that always matches the
lowest one left, to the boundary or to a partner, so a state of k defects
has exactly k moves.  From the full set that reaches only Fibonacci-many
subsets, and it visits no others: 987 at 14 defects and 17,711 at 20
(counting the empty one), against 2^20 = 1,048,576 for the full table,
with 6,255 and 159,765 moves in all.  Each further defect multiplies the
states by ~1.6 and the moves by ~1.7; past 20, :class:`DecoderCapacityError`
is raised instead.  Distances 2, 3 and 5 have at most 20 checks of a type,
so no syndrome of theirs exceeds the capacity."""

_NO_MOVE = 1 << 20      # weight of a move that does not exist (> any matching)
# A DP key is one int32: weight << 7 | move << 2 | parity.  The move (0 for
# the boundary, 1 + j for partner j; 1 + n <= 21 < 32) sits in bits 2-6,
# and bits 0-1 hold the sum of two parity bits (at most 2, so no carry into
# the move).  That leaves 24 bits of weight: a matching may weigh up to
# 2^24 - 1, and ``_NO_MOVE << 7`` = 2^27 still fits.
_WEIGHT_SHIFT = 7
_MOVE_SHIFT = 2
_MOVE_MASK = 31
_STORED = ~0b1111110    # a stored key keeps the weight and parity bit 0 only


def _check_capacity(n_defects: int) -> None:
    if n_defects > MAX_DEFECTS:
        raise DecoderCapacityError(
            f"{n_defects} defects exceed the exhaustive-matching capacity "
            f"{MAX_DEFECTS}"
        )


def _boundary_path(pos, size: int, kind: str) -> list:
    """Data qubits on the straight path from a defect to its nearest boundary.

    A Z-check defect runs vertically to the top or bottom; an X-check path
    is that rule on the transposed lattice.
    """
    if kind == "x":
        return [(c, r) for r, c in _boundary_path(pos[::-1], size, "z")]
    r, c = pos
    if (r + 1) // 2 <= (size - r) // 2:
        rows = range(r - 1, -1, -2)
    else:
        rows = range(r + 1, size, 2)
    return [(rr, c) for rr in rows]


def _pair_path(p1, p2, kind: str) -> list:
    """Data qubits on a minimum path between two same-type defects.

    Z-check defects connect vertically first, then horizontally; an
    X-check path is that rule on the transposed lattice.  Any minimum path
    differs from this one by stabilizers only.
    """
    if kind == "x":
        return [(c, r) for r, c in _pair_path(p1[::-1], p2[::-1], "z")]
    (r1, c1), (r2, c2) = p1, p2
    out = []
    step = 2 if r2 >= r1 else -2
    for rr in range(r1, r2, step):
        out.append((rr + step // 2, c1))
    step = 2 if c2 >= c1 else -2
    for cc in range(c1, c2, step):
        out.append((r2, cc + step // 2))
    return out


def _move_table(d: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Every matching move at distance d for defects on checks of ``kind``,
    from :func:`_boundary_path` and :func:`_pair_path`; :func:`_layout`
    builds it once per kind.

    Returns ``paths``, (checks, 1 + checks, n_data) 0/1: row c is a defect
    on check c, column 0 its boundary path and column 1 + c2 its path to a
    defect on check c2; and ``weights``, the path lengths, (checks,
    1 + checks) int32.
    """
    lattice = SurfaceLattice(d)
    checks = lattice.z_checks if kind == "z" else lattice.x_checks
    paths = np.zeros((len(checks), 1 + len(checks), lattice.n_data), dtype=np.int8)
    for i, c in enumerate(checks):
        moves = [_boundary_path(c, lattice.size, kind)]
        moves += [_pair_path(c, c2, kind) for c2 in checks]
        for j, path in enumerate(moves):
            paths[i, j, [lattice.data_index(pos) for pos in path]] = 1
    return paths, paths.sum(axis=-1, dtype=np.int32)


class _Layout(NamedTuple):
    """What the Monte Carlo and the decoder read at one distance, built once
    per d by :func:`_layout`; every array is read-only.

    ``parity`` is :func:`_parity`'s dict at d.  ``paths`` and ``move_keys``
    are one block-diagonal move table over both kinds, indexed like a
    :func:`_move_table` with 2m checks: Z check c is row c and X check c
    row m + c, column 0 is the boundary move and column 1 + c2 the move to
    the defect of row c2.  ``paths`` holds each move's path over the data
    qubits; ``move_keys`` its DP key without the move, ``weight << 7 |
    flip``, the weight being the path length and the flip its parity on the
    kind's logical.  A move between kinds does not exist: its path is empty
    and its weight ``_NO_MOVE``.  No syndrome row mixes the kinds, so each
    row sees only its own kind's moves, in their own order.
    """

    lattice: SurfaceLattice
    parity: dict
    paths: np.ndarray
    move_keys: np.ndarray


@cache
def _parity(d: int) -> dict:
    """``parity[kind]`` at distance d, read-only (n_data, m + 1) float32 for
    m checks of a kind: the kind's :meth:`SurfaceLattice.adjacency` and, as
    its last column, the support of the logical its checks guard (Z_L for
    "z", X_L for "x").  Built without any move table."""
    lattice = SurfaceLattice(d)
    x_l, z_l = logical_ops(lattice)
    parity = {}
    for kind, logical in (("z", z_l), ("x", x_l)):
        support = np.bitwise_or(*logical.bits())
        parity[kind] = np.column_stack((lattice.adjacency(kind), support)).astype(np.float32)
        parity[kind].flags.writeable = False      # cached: every caller gets these
    return parity


@cache
def _layout(d: int) -> _Layout:
    """The :class:`_Layout` at distance d."""
    lattice = SurfaceLattice(d)
    m = len(lattice.z_checks)       # as many as X checks
    parity = _parity(d)
    paths = np.zeros((2 * m, 1 + 2 * m, lattice.n_data), dtype=np.int8)
    move_keys = np.full((2 * m, 1 + 2 * m), _NO_MOVE << _WEIGHT_SHIFT, dtype=np.int32)
    for at, kind in ((0, "z"), (m, "x")):
        support = parity[kind][:, -1].astype(np.int8)
        rows, cols = slice(at, at + m), np.r_[0, 1 + at:1 + at + m]
        paths[rows, cols], weights = _move_table(d, kind)
        move_keys[rows, cols] = weights << _WEIGHT_SHIFT | paths[rows, cols] @ support & 1
    for shared in (paths, move_keys):
        shared.flags.writeable = False      # cached: every caller gets these
    return _Layout(lattice, parity, paths, move_keys)


class _Plan(NamedTuple):
    """The states of the matching DP over n defects and their moves.

    ``levels`` is the index where each size level starts, plus the end.
    ``first`` (int8) is the lowest defect of each state and ``child``
    ((states, 1 + n) int16) the state each move leads to, -1 where the move
    does not exist; only :func:`mwpm_decode`'s read-back uses them.  The DP
    reads ``moves`` and ``children``: per size level k = 1..n, (k, L_k)
    int16 tables of the k moves of each of the level's L_k states, in scan
    order (boundary first, then partners ascending).  A move is given as
    its row ``move * n + first`` in :func:`_match`'s table of move keys,
    its child as a state index.  ``width`` is the most moves on one level.
    """

    levels: np.ndarray
    first: np.ndarray
    child: np.ndarray
    moves: tuple
    children: tuple
    width: int


@cache
def _matching_plan(n: int) -> _Plan:
    """The :class:`_Plan` over n defects, built once per n.

    A state is the set (bit mask) of defects still unmatched.  Its lowest
    defect f goes to the boundary (move 0, to the state without f) or to a
    partner j > f in the set (move 1 + j, to the state without f and j).
    Only the states these moves reach from the full set are kept, ordered
    by size (then by mask), so each size level depends on smaller ones
    only; state 0 is the empty set and the last state the full set.
    """
    bit = 1 << np.arange(n, dtype=np.int64)

    def moves(masks):       # the state each move leads to (pairs: -1 if none)
        rest = masks & (masks - 1)
        return rest, np.where(rest[:, None] & bit != 0, rest[:, None] ^ bit, -1)

    by_size = [np.zeros(0, dtype=np.int64)] * (n + 1)
    by_size[n] = np.array([(1 << n) - 1], dtype=np.int64)
    for k in range(n - 1, -1, -1):      # a state of size k comes from k + 1 or k + 2
        pairs = moves(by_size[k + 2])[1] if k + 2 <= n else np.zeros(0, np.int64)
        found = np.sort(np.concatenate((moves(by_size[k + 1])[0], pairs[pairs >= 0])))
        by_size[k] = found[np.r_[True, found[1:] != found[:-1]]]
    levels = np.concatenate(([0], np.cumsum([len(m) for m in by_size])))
    masks = np.concatenate(by_size)

    def index(to, k):       # state index of each mask, -1 for none
        if k < 0:
            return -1
        return np.where(to >= 0, levels[k] + np.searchsorted(by_size[k], to), -1)

    first = np.log2(np.maximum(masks & -masks, 1)).astype(np.int8)
    child = np.full((len(masks), 1 + n), -1, dtype=np.int16)
    level_moves, level_children = [], []
    for k in range(1, n + 1):
        rest, pair = moves(by_size[k])
        rows = child[levels[k]:levels[k + 1]]
        rows[:, 0] = index(rest, k - 1)
        rows[:, 1:] = index(pair, k - 2)
        state, move = np.nonzero(rows >= 0)     # row by row: a state's k moves in order
        row = move * n + first[levels[k] + state]
        level_moves.append(np.ascontiguousarray(row.reshape(-1, k).T, dtype=np.int16))
        level_children.append(np.ascontiguousarray(rows[state, move].reshape(-1, k).T))
    for shared in (levels, first, child, *level_moves, *level_children):
        shared.flags.writeable = False      # cached: every caller gets these
    return _Plan(levels, first, child, tuple(level_moves), tuple(level_children),
                 max(t.size for t in level_moves))


def _match(move_key: np.ndarray) -> np.ndarray:
    """Exact minimum-weight matching of S defect sets of one size n at once.

    ``move_key`` is (S, n, 1 + n): per set, the :func:`_layout` move keys
    ``weight << 7 | flip`` of its defects' moves, as in a
    :func:`_move_table` with the set's defects as its checks.  Every state
    of :func:`_matching_plan` is solved for all S sets, one size level at a
    time, over the k moves of each state of size k only.  A candidate's key
    is ``weight << 7 | move << 2 | parity``, the weight and parity being
    those of the move plus its child's, so the smallest key is the lightest
    candidate and, among equal weights, the first one scanned (boundary
    first, then partners in ascending order): a later candidate must be
    strictly lighter to win.  The moves of a state are distinct, so the
    parity bits never decide.  They hold the sum of the child's parity and
    the move's flip; a state stores its winner with the move and bit 1
    cleared, so bit 0 is the XOR of the flips along its matching and no
    sum ever carries into the move bits.

    Returns each state's winning candidate for every set, (states, S)
    int32: for the full set (the last row), ``>> 7`` is the matching's
    weight and ``& 1`` its parity on the logical, and ``>> 2 & 31`` is the
    move chosen in any state, from which the matching is read back.
    """
    s, n = move_key.shape[:2]
    plan = _matching_plan(n)
    move_ids = np.arange(1 + n, dtype=np.int32) << _MOVE_SHIFT
    table = np.ascontiguousarray((move_key + move_ids).T).reshape(-1, s)
    key = np.zeros((plan.levels[-1], s), dtype=np.int32)
    best = np.zeros_like(key)
    for lo, hi, moves, children in zip(plan.levels[1:-1], plan.levels[2:],
                                       plan.moves, plan.children):
        candidates = key[children]
        candidates += table[moves]
        np.minimum.reduce(candidates, axis=0, out=best[lo:hi])
        np.bitwise_and(best[lo:hi], _STORED, out=key[lo:hi])
    return best


_CHUNK = 1 << 15        # DP candidates (sets x moves) per level step


def _matchings(syn: np.ndarray, move_keys: np.ndarray):
    """Match every syndrome row with :func:`_match`, in batches.

    ``syn`` is (rows, checks) of 0/1 bits and ``move_keys`` is indexed like
    a :func:`_move_table` (defect check, move).  Rows with the same defect
    count are matched together, in chunks of at most ``_CHUNK`` DP
    candidates per level.  Yields, per chunk, the row indices, their
    defects ((rows, n) check indices, ascending) and :func:`_match`'s keys.
    Raises :class:`DecoderCapacityError` past ``MAX_DEFECTS`` defects in a
    row, before any matching.
    """
    counts = syn.sum(axis=1)
    _check_capacity(int(counts.max(initial=0)))
    for n in sorted(set(counts.tolist()) - {0}):
        rows = np.nonzero(counts == n)[0]
        step = max(1, _CHUNK // _matching_plan(n).width)
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            defects = np.nonzero(syn[part])[1].reshape(len(part), n)
            cols = np.concatenate((np.zeros((len(part), 1), dtype=defects.dtype),
                                   1 + defects), axis=1)
            # gathered as (1 + n, n, S), so _match transposes it back without a copy
            yield part, defects, _match(move_keys[defects.T, cols.T[:, None]].T)


def mwpm_decode(syndromes, lattice: SurfaceLattice) -> PauliFrame:
    """Minimum-weight matching correction from measured syndromes.

    Accepts a single :class:`Syndrome` or a sequence over cycles; with
    perfect extraction (data flips only, no measurement errors) each cycle
    reports the parity of the cumulative error, so the final cycle carries
    all the information and is the one decoded.  Its Z-check and X-check
    bits are two syndrome rows of the :func:`_layout` move table that
    :func:`logical_error_rate` matches, matched by the same
    :func:`_matchings` call; each matching is then read back from the full
    set along the chosen moves, XORing their paths: Z-check bits give the X
    correction, X-check bits the Z one.  Corrections land in a Pauli frame,
    never on the state.  Raises ``ValueError`` unless each bit array holds
    one bit per check of the lattice, and :class:`DecoderCapacityError`
    past ``MAX_DEFECTS`` defects of one kind.
    """
    if isinstance(syndromes, Syndrome):
        syn = syndromes
    else:
        seq = list(syndromes)
        if not seq:
            raise ValueError("no syndromes to decode")
        syn = seq[-1]
    m = len(lattice.z_checks)       # as many as X checks
    rows = np.zeros((2, 2 * m), dtype=np.int8)
    for k, (kind, bits) in enumerate((("z", syn.z_bits), ("x", syn.x_bits))):
        if bits.shape != (m,):
            raise ValueError(f"{kind.upper()}-check bits of shape {bits.shape} for "
                             f"{m} checks at d = {lattice.d}")
        rows[k, k * m:(k + 1) * m] = bits
    layout = _layout(lattice.d)
    frame = np.zeros((2, lattice.n_data), dtype=np.int8)
    for part, defects, best in _matchings(rows, layout.move_keys):
        plan = _matching_plan(defects.shape[1])
        for row, picks, won in zip(part, defects, best.T):
            cols = np.r_[0, 1 + picks]
            state = len(plan.first) - 1
            while state:
                move = won[state] >> _MOVE_SHIFT & _MOVE_MASK
                frame[row] ^= layout.paths[picks[plan.first[state]], cols[move]]
                state = plan.child[state, move]
    return PauliFrame(frame[0], frame[1])


# ---------------------------------------------------------------------------
# Logical-error-rate Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogicalRateResult:
    """Monte Carlo outcome.  ``max_defects`` and ``distinct_syndromes`` are
    keyed by check kind ("z": Z-check defects from X errors, "x": X-check
    defects from Z errors): the most defects in one shot and the number of
    distinct syndromes matched."""

    rate: float
    ci_low: float
    ci_high: float
    failures: int
    shots: int
    d: int
    p: float
    cycles: int
    seed: int
    max_defects: dict = field(default_factory=dict)
    distinct_syndromes: dict = field(default_factory=dict)


def _wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    ph = k / n
    denom = 1 + z**2 / n
    center = (ph + z**2 / (2 * n)) / denom
    half = z * np.sqrt(ph * (1 - ph) / n + z**2 / (4 * n**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


_DRAW_SHOTS = 1024      # shots per block of flip draws (the same stream at any size)
_TABLE_CHECKS = 6       # a kind with at most this many checks (d <= 3) decodes by table


def _flip_draws(bit_generator, p: float, shape) -> np.ndarray:
    """``np.random.Generator(bit_generator).random(shape) < p`` from the
    same Philox stream, for 0 <= p <= 1, by one compare on the raw 64-bit
    draws: Philox's ``random()`` is (raw >> 11) 2^-53, which is below p
    exactly when raw is below ceil(p 2^53) 2^11.  At p = 1 that threshold
    is 2^64, past uint64, and every draw is below it."""
    raw = bit_generator.random_raw(math.prod(shape)).reshape(shape)
    threshold = math.ceil(p * 2.0**53) << 11
    if threshold >> 64:
        return np.ones(shape, dtype=bool)
    return raw < np.uint64(threshold)


class _Table(NamedTuple):
    """Every syndrome of both kinds at one distance, matched once; both
    arrays are read-only.

    A shot's key of a kind holds its m check bits and, as bit m, its parity
    on the kind's logical (see :func:`logical_error_rate`).  ``fail[k,
    key]``, k = 0 for the Z checks and 1 for the X checks, is True when the
    key's logical bit differs from the logical flip of its syndrome's
    minimum-weight matching, i.e. when the shot fails on that kind; so
    ``fail[k, :2^m]`` is each syndrome's flip.  ``defects[s]`` is the
    defect count of syndrome s.
    """

    fail: np.ndarray
    defects: np.ndarray


@cache
def _decode_table(d: int) -> _Table:
    """The :class:`_Table` at distance d (meant for at most ``_TABLE_CHECKS``
    checks of a kind): all 2^m syndromes of both kinds in one
    :func:`_matchings` call on the :func:`_layout` move table, the DP that
    matches the distinct syndromes at larger d."""
    layout = _layout(d)
    m = len(layout.lattice.z_checks)        # as many as X checks
    syn = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(np.int8)
    rows = np.zeros((2, 1 << m, 2 * m), dtype=np.int8)
    rows[0, :, :m], rows[1, :, m:] = syn, syn
    flips = np.zeros(2 << m, dtype=bool)
    for part, _, best in _matchings(rows.reshape(2 << m, 2 * m), layout.move_keys):
        flips[part] = best[-1] & 1
    flips = flips.reshape(2, 1 << m)
    table = _Table(np.concatenate((flips, ~flips), axis=1), syn.sum(axis=1))
    for shared in table:
        shared.flags.writeable = False      # cached: every caller gets these
    return table


def _decode_by_table(keys: np.ndarray, d: int, m: int):
    """(failed, most, distinct) of the shot keys (2, shots) from the
    :func:`_decode_table`: one gather per kind for the failures, one
    ``bincount`` for the syndromes seen."""
    table = _decode_table(d)
    failed = table.fail[0][keys[0]] | table.fail[1][keys[1]]
    most, distinct = {}, {}
    for kind, k in zip("zx", keys):
        seen = np.bincount(k, minlength=2 << m).reshape(2, 1 << m).any(axis=0)
        most[kind] = int(table.defects[seen].max())
        distinct[kind] = int(np.count_nonzero(seen))
    return failed, most, distinct


def _decode_distinct(keys: np.ndarray, move_keys: np.ndarray, m: int):
    """(failed, most, distinct) of the shot keys (2, shots): each distinct
    syndrome of either kind matched once, all in one :func:`_matchings`
    call, its logical flip gathered back to the shots that share it."""
    # one matcher row per distinct syndrome: Z-check bits in the columns
    # [0, m), X-check bits in [m, 2m)
    found, inverse = zip(*(np.unique(k & ((1 << m) - 1), return_inverse=True)
                           for k in keys))
    split = len(found[0])
    both = np.concatenate((found[0], found[1].astype("<i8") << m), dtype="<i8")
    rows = np.unpackbits(both.view(np.uint8).reshape(-1, 8), axis=1, count=2 * m,
                         bitorder="little")
    counts = rows.sum(axis=1)
    most = {"z": int(counts[:split].max()), "x": int(counts[split:].max())}
    distinct = {"z": split, "x": len(both) - split}
    flips = np.zeros(len(rows), dtype=np.int8)
    for part, _, best in _matchings(rows, move_keys):
        flips[part] = best[-1] & 1
    failed = (((keys[0] >> m) ^ flips[:split][inverse[0]])
              | ((keys[1] >> m) ^ flips[split:][inverse[1]]))
    return failed, most, distinct


def logical_error_rate(d: int, p: float, cycles: int = 1, shots: int = 10000,
                       seed: int = 0) -> LogicalRateResult:
    """Monte Carlo logical error rate under code-capacity noise compounded
    over cycles: data-qubit flips only, perfect syndrome extraction.

    Each data qubit flips (X and, independently, Z) with probability p per
    cycle; the cumulative flip probability over ``cycles`` rounds is
    (1 - (1 - 2p)^cycles)/2, sampled directly since perfect extraction
    makes only the final syndrome matter.  A shot fails when the residual
    error after matching anticommutes with Z_L or X_L.

    The RNG is counter-based (Philox keyed by ``seed``): shot i flips data
    qubit j by X where ``random((shots, n_data, 2))[i, j, 0]`` is below the
    cumulative probability and by Z where ``[i, j, 1]`` is, so any shot is
    reproducible from (seed, shot index) alone.  The draws are taken in
    blocks of ``_DRAW_SHOTS`` shots, as the same booleans compared on the
    raw stream (:func:`_flip_draws`), and no error array outlives its
    block: one float32 product against both kinds' :func:`_parity`
    matrices, interleaved to the draws' layout, gives every shot's check
    bits and logical parities, and one more product turns them into one
    integer key per shot and kind (the check bits, then the logical bit).

    At d = 2 and 3 a kind has at most ``_TABLE_CHECKS`` checks, and the
    keys are looked up in the :func:`_decode_table`, which matched every
    syndrome once: the failures are one gather per kind, the most defects
    and the distinct syndromes one ``bincount``.  At d = 5 each distinct
    syndrome of either kind is matched once, all of them by one
    :func:`_matchings` call on the :func:`_layout` move table (the one
    :func:`mwpm_decode` uses), in batches of equal defect count.  Either
    way the DP carries the logical parity of each matching in its keys, so
    the parity is read straight off the full set's key: no matching is
    read back and no correction is built.  A syndrome has at most 20 checks
    of a kind at d <= 5, so none exceeds ``MAX_DEFECTS`` and no call aborts
    for the decoder's capacity.
    """
    if d not in (2, 3, 5):
        raise ValueError("supported distances: 2, 3, 5")
    if not (0.0 <= p <= 1.0 and cycles >= 1 and shots >= 1):
        raise ValueError("need 0 <= p <= 1, cycles >= 1 and shots >= 1")
    layout = _layout(d)
    n_data, m = layout.lattice.n_data, len(layout.lattice.z_checks)

    p_cum = 0.5 * (1.0 - (1.0 - 2.0 * p) ** cycles)
    bit_generator = np.random.Philox(key=seed)
    # one product for both kinds: draw column 2i (qubit i's X flip) meets
    # row i of the Z-check matrix, column 2i + 1 (its Z flip) the X-check
    # one's, giving [Z-check bits, Z_L, X-check bits, X_L] per shot
    parity = _parity(d)
    fused = np.zeros((n_data, 2, 2, m + 1), dtype=np.float32)
    fused[:, 0, 0], fused[:, 1, 1] = parity["z"], parity["x"]
    fused = fused.reshape(2 * n_data, 2 * (m + 1))
    # then a shot's key of a kind: its check bits, with its logical parity as
    # bit m (float32 sums are exact: m + 1 <= 21 bits, under 2^24)
    bit_value = np.zeros((2, 2, m + 1), dtype=np.float32)
    bit_value[0, 0] = bit_value[1, 1] = 2.0 ** np.arange(m + 1)
    bit_value = bit_value.reshape(2, 2 * (m + 1)).T
    keys = np.empty((shots, 2), dtype=np.int32)     # Z-check keys, X-check keys
    for lo in range(0, shots, _DRAW_SHOTS):
        n = min(_DRAW_SHOTS, shots - lo)
        flips = _flip_draws(bit_generator, p_cum, (n, 2 * n_data))
        keys[lo:lo + n] = ((flips @ fused).astype(np.int8) & 1) @ bit_value
    keys = np.ascontiguousarray(keys.T)

    # a shot fails when its residual X error flips Z_L or its Z error X_L
    if m <= _TABLE_CHECKS:
        failed, most, distinct = _decode_by_table(keys, d, m)
    else:
        failed, most, distinct = _decode_distinct(keys, layout.move_keys, m)
    failures = int(np.count_nonzero(failed))
    rate = failures / shots
    lo, hi = _wilson_interval(failures, shots)
    return LogicalRateResult(rate, lo, hi, failures, shots, d, p, cycles, seed,
                             most, distinct)
