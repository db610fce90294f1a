"""Core quantum linear algebra: operators, states, Bloch vectors, propagators.

Conventions used throughout the package:

* Basis ordering is computational: index 0 is the qubit ground state |0>
  (the north pole of the Bloch sphere), index 1 the excited state |1>.
  Multi-qubit kets |ij> put the leftmost (most significant) subsystem first,
  so ``tensor(A, B)`` acts on |i>_A |j>_B.
* hbar = 1.  Energies are stored as ordinary frequencies in GHz (E/h);
  dynamical generators use angular frequency in rad/ns.  The conversion
  ``omega = 2*pi*f`` happens where a Hamiltonian is built for time
  evolution, never inside the integrators.
* ``sigma_plus`` / ``sigma_minus`` are the standard matrices
  (sigma_x +- i*sigma_y)/2, i.e. sigma_plus = |0><1|.  The operator that
  describes qubit energy decay |1> -> |0> is therefore ``sigma_plus`` in
  this ordering; the dedicated constructors in :mod:`scqsim.dynamics`
  hide this bookkeeping.

All values are immutable after construction (arrays are frozen), so they
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
NORM_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _as_matrix(op) -> np.ndarray:
    """The complex matrix of an Operator, a DensityMatrix or an array-like."""
    if isinstance(op, (Operator, DensityMatrix)):
        return op.entries
    return np.asarray(op, dtype=complex)


@dataclass(frozen=True)
class Operator:
    """A square complex matrix with optional verified structure flags.

    ``hermitian=True`` / ``unitary=True`` are checked at construction
    (max|A - A^dag| < 1e-12 resp. max|U^dag U - I| < 1e-10) and raise
    ValueError when violated.  ``None`` means "unchecked".
    """

    entries: np.ndarray
    hermitian: bool | None = None
    unitary: bool | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        object.__setattr__(self, "entries", _freeze(m))
        if self.hermitian:
            dev = np.max(np.abs(m - m.conj().T))
            if dev >= HERMITIAN_TOL:
                raise ValueError(f"hermitian flag set but max|A-A^dag| = {dev:.3e}")
        if self.unitary:
            dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
            if dev >= UNITARY_TOL:
                raise ValueError(f"unitary flag set but max|U^dag U - I| = {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def __matmul__(self, other):
        if isinstance(other, StateVector):
            return StateVector(self.entries @ other.amplitudes, _skip_norm_check=True)
        return Operator(self.entries @ _as_matrix(other))

    def __add__(self, other):
        return Operator(self.entries + _as_matrix(other))

    def __sub__(self, other):
        return Operator(self.entries - _as_matrix(other))

    def __mul__(self, scalar):
        return Operator(self.entries * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.entries)

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) < tol)

    def is_unitary(self, tol: float = UNITARY_TOL) -> bool:
        m = self.entries
        return bool(np.max(np.abs(m.conj().T @ m - np.eye(self.dim))) < tol)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state.  Norm is checked to 1e-10."""

    amplitudes: np.ndarray
    _skip_norm_check: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", _freeze(v))
        if not self._skip_norm_check:
            n = np.linalg.norm(v)
            if abs(n - 1.0) >= NORM_TOL:
                raise ValueError(f"state vector not normalized: |psi| = {n!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / np.linalg.norm(self.amplitudes))

    def to_density(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (tolerances 1e-10)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) >= 1e-10:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) >= NORM_TOL:
            raise ValueError(f"density matrix trace = {tr!r}, expected 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
        object.__setattr__(self, "entries", _freeze(m))

    @classmethod
    def _verified(cls, m: np.ndarray) -> "DensityMatrix":
        """A complex square matrix the caller has checked as the constructor
        would (exactly Hermitian, trace within NORM_TOL, no negative
        eigenvalue); it is frozen in place, not copied."""
        state = object.__new__(cls)
        object.__setattr__(state, "entries", _freeze(m))
        return state

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)

    def expectation(self, op) -> float:
        return float(np.trace(self.entries @ _as_matrix(op)).real)


@dataclass(frozen=True)
class BlochVector:
    """Bloch-ball coordinates of a qubit state (|s| <= 1; pure iff |s| = 1)."""

    s_x: float
    s_y: float
    s_z: float

    def __post_init__(self):
        if self.norm > 1.0 + 1e-10:
            raise ValueError(f"invalid Bloch vector: |s| = {self.norm!r} > 1")

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.s_x**2 + self.s_y**2 + self.s_z**2))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "BlochVector":
        return cls(
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        )


# ---------------------------------------------------------------------------
# Pauli matrices and the universal gate set
# ---------------------------------------------------------------------------

SIGMA_X = Operator([[0, 1], [1, 0]], hermitian=True, unitary=True)
SIGMA_Y = Operator([[0, -1j], [1j, 0]], hermitian=True, unitary=True)
SIGMA_Z = Operator([[1, 0], [0, -1]], hermitian=True, unitary=True)
SIGMA_PLUS = Operator([[0, 1], [0, 0]])
SIGMA_MINUS = Operator([[0, 0], [1, 0]])

X_GATE = SIGMA_X
Y_GATE = SIGMA_Y
Z_GATE = SIGMA_Z
H_GATE = Operator(np.array([[1, 1], [1, -1]]) / np.sqrt(2), hermitian=True, unitary=True)
S_GATE = Operator([[1, 0], [0, 1j]], unitary=True)
T_GATE = Operator([[1, 0], [0, np.exp(1j * np.pi / 4)]], unitary=True)
CNOT_GATE = Operator(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], unitary=True
)
CZ_GATE = Operator(np.diag([1.0, 1.0, 1.0, -1.0]), hermitian=True, unitary=True)

PAULIS = {"I": Operator(np.eye(2), hermitian=True, unitary=True),
          "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
"""The single-qubit Pauli table, keyed by upper-case letter."""


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim), hermitian=True, unitary=True)


def pauli(axis: str) -> Operator:
    try:
        return PAULIS[axis.upper()]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def ket(index: int, dim: int) -> StateVector:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return StateVector(v)


def basis_ket(bits: str) -> StateVector:
    """Computational-basis ket from a bit string, e.g. ``basis_ket('10')``."""
    index = int(bits, 2)
    return ket(index, 2 ** len(bits))


def annihilation(n_levels: int) -> Operator:
    """Bosonic annihilation operator truncated to ``n_levels`` Fock states."""
    a = np.zeros((n_levels, n_levels), dtype=complex)
    for n in range(1, n_levels):
        a[n - 1, n] = np.sqrt(n)
    return Operator(a)


def creation(n_levels: int) -> Operator:
    return annihilation(n_levels).dag()


def number_op(n_levels: int) -> Operator:
    return Operator(np.diag(np.arange(n_levels, dtype=float)), hermitian=True)


# ---------------------------------------------------------------------------
# Bloch sphere conversions
# ---------------------------------------------------------------------------

def bloch_to_density(s: BlochVector) -> DensityMatrix:
    """rho = (I + s_x sx + s_y sy + s_z sz) / 2."""
    m = 0.5 * (
        np.eye(2)
        + s.s_x * SIGMA_X.entries
        + s.s_y * SIGMA_Y.entries
        + s.s_z * SIGMA_Z.entries
    )
    return DensityMatrix(m)


def density_to_bloch(rho: DensityMatrix) -> BlochVector:
    if rho.dim != 2:
        raise ValueError("Bloch vector is defined for a single qubit only")
    return BlochVector(
        rho.expectation(SIGMA_X),
        rho.expectation(SIGMA_Y),
        rho.expectation(SIGMA_Z),
    )


def rotation_operator(axis: str, angle: float) -> Operator:
    """R_k(eta) = cos(eta/2) I - i sin(eta/2) sigma_k for k in {x, y, z}."""
    sk = pauli(axis).entries
    m = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sk
    return Operator(m, unitary=True)


# ---------------------------------------------------------------------------
# Matrix exponentials and propagators
# ---------------------------------------------------------------------------

def expm_hermitian(h: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * H) for Hermitian H via eigendecomposition."""
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(scale * evals)) @ vecs.conj().T


STEP_BLOCK = 64
"""Steps per batched eigendecomposition in :func:`step_unitaries`."""


def step_unitaries(h0, controls, amplitudes, durations):
    """Piecewise-constant propagators U_j = exp(-i dt_j H_j), one per step.

    H_j = H0 + sum_k amplitudes[k, j] controls[k] (rad/ns), summed in that
    order; ``durations`` holds the dt_j in ns (zero widths are allowed).
    Yields ``(U_j, evals_j, vecs_j)`` per step, where H_j = vecs_j
    diag(evals_j) vecs_j^dag.  The steps are diagonalized with a batched
    ``eigh`` in blocks of ``STEP_BLOCK``, so memory does not grow with the
    step count; each U_j is formed the way ``expm_hermitian(H_j, -1j * dt_j)``
    forms it.
    """
    h0 = _as_matrix(h0)
    dim = h0.shape[0]
    durations = np.asarray(durations, dtype=float).reshape(-1)
    controls = np.asarray(controls, dtype=complex).reshape(-1, dim, dim)
    amplitudes = np.asarray(amplitudes, dtype=float).reshape(len(controls),
                                                             len(durations))
    for start in range(0, len(durations), STEP_BLOCK):
        block = slice(start, start + STEP_BLOCK)
        dts = durations[block]
        h = np.broadcast_to(h0, (len(dts), dim, dim))
        for c, a in zip(controls, amplitudes[:, block]):
            h = h + a[:, None, None] * c
        evals, vecs = np.linalg.eigh(h)
        phases = np.exp((-1j * dts)[:, None] * evals)
        us = (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        yield from zip(us, evals, vecs)


def matrix_exp(a) -> Operator:
    """Matrix exponential e^A.

    Hermitian and anti-Hermitian inputs go through an eigendecomposition;
    anything else falls back to scaling-and-squaring (Pade).
    """
    m = _as_matrix(a)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp: input has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) < HERMITIAN_TOL:
        return Operator(expm_hermitian(m))
    ih = 1j * m
    if np.max(np.abs(ih - ih.conj().T)) < HERMITIAN_TOL:
        # A = -iH with H Hermitian: e^A = V e^{-i lambda} V^dag
        return Operator(expm_hermitian(ih, scale=-1j))
    from scipy.linalg import expm
    return Operator(expm(m))


def propagator(h, t: float) -> Operator:
    """U = exp(-i H t) for Hermitian H in rad/ns and t in ns."""
    m = _as_matrix(h)
    if np.max(np.abs(m - m.conj().T)) >= 1e-9:
        raise ValueError("propagator requires a Hermitian generator")
    hm = 0.5 * (m + m.conj().T)
    return Operator(expm_hermitian(hm, scale=-1j * t), unitary=True)


def to_angular(f):
    """GHz (ordinary frequency) -> rad/ns.  Works on scalars and matrices."""
    return 2.0 * np.pi * f


def from_angular(w):
    """rad/ns -> GHz."""
    return w / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# Composite systems
# ---------------------------------------------------------------------------

def tensor(*ops) -> Operator:
    """Kronecker product; the leftmost argument is the most significant factor."""
    if len(ops) == 1 and isinstance(ops[0], (list, tuple)):
        ops = tuple(ops[0])
    if not ops:
        raise ValueError("tensor requires at least one operator")
    out = _as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, _as_matrix(op))
    return Operator(out)


def tensor_state(*states) -> StateVector:
    if len(states) == 1 and isinstance(states[0], (list, tuple)):
        states = tuple(states[0])
    out = states[0].amplitudes
    for s in states[1:]:
        out = np.kron(out, s.amplitudes)
    return StateVector(out)


def partial_trace(rho, keep, dims) -> DensityMatrix:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order (leftmost most
    significant); ``keep`` holds the indices of the subsystems to retain.
    """
    m = _as_matrix(rho)
    dims = list(dims)
    n = len(dims)
    if m.shape[0] != int(np.prod(dims)):
        raise ValueError(f"dims {dims} inconsistent with matrix of dim {m.shape[0]}")
    keep = sorted(keep)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(traced):
        ax = i - offset
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return DensityMatrix(t.reshape(d_keep, d_keep))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def global_phase_distance(u1, u2) -> float:
    """max-norm distance between U1 and e^{i phi} U2, minimized over phi."""
    m1, m2 = _as_matrix(u1), _as_matrix(u2)
    if m1.shape != m2.shape:
        raise ValueError("operators must share dimensions")
    overlap = np.trace(m2.conj().T @ m1)
    if abs(overlap) < 1e-14:
        # no meaningful phase alignment; try aligning on the largest entry
        idx = np.unravel_index(np.argmax(np.abs(m2)), m2.shape)
        if abs(m2[idx]) < 1e-14 or abs(m1[idx]) < 1e-14:
            return float(np.max(np.abs(m1 - m2)))
        phase = (m1[idx] / m2[idx]) / abs(m1[idx] / m2[idx])
    else:
        phase = overlap / abs(overlap)
    return float(np.max(np.abs(m1 - phase * m2)))


def equal_up_to_global_phase(u1, u2, tol: float = 1e-10) -> bool:
    return global_phase_distance(u1, u2) < tol
