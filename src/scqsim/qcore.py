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


CHUNK_ENTRIES = 2**11
"""Complex entries per stacked step array in :func:`piecewise_propagator`:
an m-dimensional block is diagonalized and multiplied ``max(64,
CHUNK_ENTRIES // m**2)`` steps at a time, so memory stays flat in the step
count."""


def _chunk(m: int) -> int:
    return max(64, CHUNK_ENTRIES // m**2)


def _step_inputs(h0, controls, amplitudes, durations):
    """H0 (d, d), controls (k, d, d), durations (..., n), amplitudes (k, ..., n)."""
    h0 = _as_matrix(h0)
    dim = h0.shape[0]
    durations = np.asarray(durations, dtype=float)
    controls = np.asarray(controls, dtype=complex).reshape(-1, dim, dim)
    amplitudes = np.asarray(amplitudes, dtype=float).reshape(
        (len(controls),) + durations.shape)
    return h0, controls, amplitudes, durations


def conserved_blocks(h0, controls) -> list:
    """Index sets on which H = H0 + sum_k a_k H_k is block diagonal for every
    amplitude: the connected components of the nonzero pattern of
    |H0| + sum_k |H_k|, each ascending, ordered by their smallest index
    (the blocks of :func:`piecewise_propagator`)."""
    pattern = np.abs(_as_matrix(h0)) > 0
    for c in controls:
        pattern |= np.abs(c) > 0
    reach = pattern | pattern.T | np.eye(len(pattern), dtype=bool)
    for _ in range((len(reach) - 1).bit_length()):
        reach = reach @ reach        # paths up to twice as long
    # each block once, from the row of its smallest index
    return [np.flatnonzero(row) for i, row in enumerate(reach) if not row[:i].any()]


def _steps(h0, controls, amplitudes, durations):
    """(U, evals, vecs) stacks for steps laid out as ``durations``."""
    h = np.broadcast_to(h0, durations.shape + h0.shape)
    for c, a in zip(controls, amplitudes):
        h = h + a[..., None, None] * c
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp((-1j * durations)[..., None] * evals)
    us = (vecs * phases[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return us, evals, vecs


def step_unitaries(h0, controls, amplitudes, durations):
    """Piecewise-constant propagators U_j = exp(-i dt_j H_j), as one stack.

    H_j = H0 + sum_k amplitudes[k, j] controls[k] (rad/ns), summed in that
    order; ``durations`` holds the dt_j in ns (zero widths are allowed).
    Returns ``(us, evals, vecs)`` of shapes (n, d, d), (n, d) and (n, d, d)
    from one batched ``eigh`` of the full matrices (H_j = vecs[j]
    diag(evals[j]) vecs[j]^dag), with ``expm_hermitian(H_j, -1j * dt_j)``'s
    arithmetic.
    """
    return _steps(*_step_inputs(h0, controls, amplitudes, np.reshape(durations, -1)))


def ordered_product(us) -> np.ndarray:
    """U_n ... U_2 U_1 of a ``(..., n, d, d)`` stack (U_1 first), leading axes
    batched.  Adjacent pairs are multiplied, later step on the left, one
    batched matmul per level; at an odd count the last factor is carried to
    the next level.  n = 0 gives the identity."""
    us = np.asarray(us)
    if us.shape[-3] == 0:
        return np.broadcast_to(np.eye(us.shape[-1], dtype=us.dtype),
                               us.shape[:-3] + us.shape[-2:]).copy()
    while us.shape[-3] > 1:
        even = us.shape[-3] // 2 * 2
        pairs = us[..., 1:even:2, :, :] @ us[..., 0:even:2, :, :]
        if even < us.shape[-3]:
            pairs = np.concatenate((pairs, us[..., even:, :, :]), axis=-3)
        us = pairs
    return us[..., 0, :, :]


def piecewise_propagator(h0, controls, amplitudes, durations, watch=None):
    """The time-ordered product U_n ... U_1 of the :func:`step_unitaries` steps.

    ``durations`` may carry leading axes (..., n), with ``amplitudes`` then
    (k, ..., n): each row is its own product, and the result is (..., d, d).
    The one block split: each :func:`conserved_blocks` block makes its steps
    (a diagonal H entry by entry) ``max(64, CHUNK_ENTRIES // m**2)`` at a
    time, several rows at once when a row is shorter; :func:`ordered_product`
    reduces each chunk and then the chunk products, and the block products
    are scattered into the full dimension.

    With ``watch = j`` it returns ``(U, peak)``, where peak[..., i] is the
    largest |<i| U_t ... U_1 |j>|^2 over t = 0..n: one mat-vec per step
    inside j's block, and zero outside it.
    """
    h0, controls, amplitudes, durations = _step_inputs(h0, controls, amplitudes,
                                                       durations)
    dim = h0.shape[0]
    lead, n = durations.shape[:-1], durations.shape[-1]
    rows = int(np.prod(lead))
    durations = durations.reshape(rows, n)
    amplitudes = amplitudes.reshape(len(controls), rows, n)
    out = np.zeros((rows, dim, dim), dtype=complex)
    peak = np.zeros((rows, dim))
    if watch is not None:
        peak[:, watch] = 1.0                          # t = 0
    for ix in conserved_blocks(h0, controls):
        sub = (slice(None), ix[:, None], ix)
        hb, cb = h0[sub[1:]], controls[sub]
        size = _chunk(len(ix))
        group = max(1, size // max(n, 1))
        watched = watch is not None and watch in ix
        for r in range(0, rows, group):
            psi = np.zeros((len(durations[r:r + group]), len(ix)), dtype=complex)
            psi[:, ix == watch] = 1.0
            parts = []
            for s in range(0, max(n, 1), size):
                us = _steps(hb, cb, amplitudes[:, r:r + group, s:s + size],
                            durations[r:r + group, s:s + size])[0]
                parts.append(ordered_product(us))
                for b, steps in enumerate(us if watched else ()):
                    seen = np.empty((len(steps), len(ix)), dtype=complex)
                    v = psi[b]
                    for k, step in enumerate(steps):
                        v = seen[k] = step @ v
                    psi[b] = v
                    peak[r + b, ix] = np.maximum(
                        peak[r + b, ix], np.max(np.abs(seen) ** 2, axis=0, initial=0.0))
            out[(slice(r, r + group),) + sub[1:]] = ordered_product(
                np.stack(parts, axis=-3))
    out = out.reshape(lead + (dim, dim))
    if watch is None:
        return out
    return out, peak.reshape(lead + (dim,))


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
