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

import math
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


CHUNK_ENTRIES = 2**12
"""Complex entries per stacked step array in :func:`piecewise_propagator`:
an m-dimensional block makes and multiplies its steps ``max(64,
CHUNK_ENTRIES // m**2)`` at a time, so memory stays flat in the step
count.  A tree level costs 2m - 1 ufunc calls whatever it holds, so larger
chunks amortize them; 2^13 measured slower than 2^12 (ROADMAP, Direction
11).  A static :func:`~scqsim.dynamics.lindblad_evolve` run checks its
samples in chunks of the same size, with m = d^2."""


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


def _taylor_plan(norm: float) -> tuple:
    """(s, K) for exp(Y) with ||Y||_1 <= norm: s halvings bring the norm t to
    at most 0.5, and K is the least degree whose truncation bound
    t^(K+1) / (K+1)! e^t (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31
    (2009) 970) is at most 2^-53."""
    if not math.isfinite(norm):
        raise np.linalg.LinAlgError("non-finite step generator")
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    t = math.ldexp(norm, -s)
    k = 0
    while t ** (k + 1) / math.factorial(k + 1) * math.exp(t) > 2.0**-53:
        k += 1
    return s, k


def _stack_matmul(a, b):
    """A_j B_j for every j of an (m, m, ...) stack and an (m, k, ...) one in
    the structure-of-arrays layout (the step axes last): m multiplies and
    m - 1 adds, each one ufunc call over the whole stack, so a stack of
    2 x 2 or 3 x 3 products costs no BLAS call per product."""
    c = a[:, 0, None] * b[None, 0]
    for l in range(1, len(b)):
        c += a[:, l, None] * b[None, l]
    return c


def _expm_stack(x) -> np.ndarray:
    """exp(X_j) for every j of an (m, m, n) stack X, laid out as X.

    With mu = tr X_j / m and Y = X_j - mu I, exp(X_j) = e^mu P_K(Y / 2^s)^(2^s),
    P_K the degree-K Taylor polynomial (Horner), s and K taken once for the
    stack by :func:`_taylor_plan` from the largest ||Y||_1.  A 1 x 1 stack
    is e^X itself, as Y = 0.
    """
    m = len(x)
    diag = slice(None, None, m + 1)              # of a stack viewed as (m * m, n)
    mu = np.trace(x) / m
    y = np.array(x, dtype=complex)
    y.reshape(m * m, -1)[diag] -= mu
    s, k = _taylor_plan(float(np.abs(y).sum(axis=0).max(initial=0.0)))
    if k == 0:
        p = np.zeros_like(y)
        p.reshape(m * m, -1)[diag] = 1.0
    else:
        y *= 0.5**s
        p = y * (1.0 / math.factorial(k))
        p.reshape(m * m, -1)[diag] += 1.0 / math.factorial(k - 1)
        for j in range(k - 2, -1, -1):
            p = _stack_matmul(y, p)
            p.reshape(m * m, -1)[diag] += 1.0 / math.factorial(j)
        for _ in range(s):
            p = _stack_matmul(p, p)
    return p * np.exp(mu)


def _block_steps(h0, controls, amplitudes, durations):
    """exp(-i dt_j H_j) as an (m, m, ..., n) stack, the step axes laid out as
    ``durations`` (..., n), H_j = H0 + sum_k amplitudes[k, ..., j] controls[k]:
    :func:`_expm_stack`'s structure-of-arrays layout, kept through the
    product tree."""
    h = np.broadcast_to(h0[..., None], h0.shape + (durations.size,))
    for c, a in zip(controls, amplitudes):
        h = h + c[..., None] * a.reshape(-1)
    u = _expm_stack(h * (-1j * durations.reshape(-1)))
    return u.reshape(h0.shape + durations.shape)


def step_unitaries(h0, controls, amplitudes, durations):
    """Piecewise-constant propagators U_j = exp(-i dt_j H_j), as one stack,
    with the spectral data GRAPE's gradient reads.

    H_j = H0 + sum_k amplitudes[k, j] controls[k] (rad/ns), summed in that
    order; ``durations`` holds the dt_j in ns (zero widths are allowed).
    Returns ``(us, evals, vecs)`` of shapes (n, d, d), (n, d) and (n, d, d)
    from one batched ``eigh`` of the full matrices (H_j = vecs[j]
    diag(evals[j]) vecs[j]^dag), with ``expm_hermitian(H_j, -1j * dt_j)``'s
    arithmetic.
    """
    h0, controls, amplitudes, durations = _step_inputs(
        h0, controls, amplitudes, np.reshape(durations, -1))
    h = np.broadcast_to(h0, durations.shape + h0.shape)
    for c, a in zip(controls, amplitudes):
        h = h + a[..., None, None] * c
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp((-1j * durations)[..., None] * evals)
    us = (vecs * phases[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return us, evals, vecs


def ordered_product(us) -> np.ndarray:
    """U_n ... U_2 U_1 of a ``(..., n, d, d)`` stack (U_1 first), leading axes
    batched: a pairwise tree, each level's adjacent pairs multiplied (later
    step on the left) by one batched ``np.matmul``, an odd count carrying
    its last factor up a level.  n = 0 gives the identity."""
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


def _up_sweep(steps) -> list:
    """The levels of a chunk's product tree, on the (m, m, ..., n) stack of
    :func:`_block_steps`: ``steps``, then each level's adjacent pairs
    multiplied by :func:`_stack_matmul` (later step on the left), an odd
    count carrying its last factor up a level, to a last level of one
    factor, the chunk's product.  n = 0 gives the identity."""
    if steps.shape[-1] == 0:
        eye = np.zeros(steps.shape[:-1] + (1,), dtype=complex)
        eye.reshape(len(steps) ** 2, -1)[::len(steps) + 1] = 1.0
        return [eye]
    levels = [steps]
    while steps.shape[-1] > 1:
        even = steps.shape[-1] // 2 * 2
        pairs = _stack_matmul(steps[..., 1:even:2], steps[..., 0:even:2])
        if even < steps.shape[-1]:
            pairs = np.concatenate((pairs, steps[..., even:]), axis=-1)
        steps = pairs
        levels.append(steps)
    return levels


def _down_sweep(levels, psi) -> np.ndarray:
    """The state before each factor of ``levels[0]``, (m, ..., n), for the
    state ``psi`` (m, ...) before the product: Blelloch's down-sweep
    (CMU-CS-90-190, 1990) on :func:`_up_sweep`'s levels, m multiply-adds
    per level."""
    before = psi[..., None]
    for lower in levels[-2::-1]:
        n = lower.shape[-1]
        even = n // 2 * 2
        states = np.empty(lower.shape[1:], dtype=complex)
        states[..., 0:even:2] = before[..., :even // 2]
        states[..., 1:even:2] = _stack_matmul(lower[..., 0:even:2],
                                              before[:, None, ..., :even // 2])[:, 0]
        if n % 2:
            states[..., -1] = before[..., -1]
        before = states
    return before


def _cf4_rows(sample, widths):
    """:func:`piecewise_propagator` rows of fourth-order commutator-free
    Magnus steps (Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519; CFET4:2
    of Alvermann & Fehske, J. Comput. Phys. 230 (2011) 5930) for
    H(t) = H0 + sum_k u_k(t) H_k:
    U(t + h, t) = exp(-ih(a1 H1 + a2 H2)) exp(-ih(a2 H1 + a1 H2)), with
    H_j = H(t + c_j h) at the Gauss nodes c = 1/2 -+ sqrt(3)/6 and
    a = (3 -+ 2 sqrt(3))/12.  As a1 + a2 = 1/2, each factor is a step of
    h/2 with the amplitudes 2(a2 u1 + a1 u2) (the earlier one) or
    2(a1 u1 + a2 u2).

    ``sample(c)`` returns the amplitudes (k, n) at fraction c of each of
    the n steps of ``widths``.  Returns amplitudes (k, 2n) and durations
    (2n,), each step's two rows adjacent, the earlier first.
    """
    r3 = 3.0 ** 0.5
    u1 = np.asarray(sample(0.5 - r3 / 6), dtype=float)
    u2 = np.asarray(sample(0.5 + r3 / 6), dtype=float)
    a1, a2 = (3 - 2 * r3) / 6, (3 + 2 * r3) / 6         # the weights, doubled
    amps = np.stack((a2 * u1 + a1 * u2, a1 * u1 + a2 * u2), axis=-1)
    return (amps.reshape(amps.shape[:-2] + (-1,)),
            np.repeat(0.5 * np.asarray(widths, dtype=float), 2))


def piecewise_propagator(h0, controls, amplitudes, durations, watch=None):
    """The time-ordered product U_n ... U_1 of the steps U_j = exp(-i dt_j H_j),
    H_j = H0 + sum_k amplitudes[k, j] controls[k] (rad/ns) and dt_j =
    durations[j] (ns), as for :func:`step_unitaries`.

    ``durations`` may carry leading axes (..., n), with ``amplitudes`` then
    (k, ..., n): each row is its own product, and the result is (..., d, d).
    The one block split: each :func:`conserved_blocks` block of size m makes
    its steps ``max(64, CHUNK_ENTRIES // m**2)`` at a time, several rows at
    once when a row is shorter, by shifted Taylor polynomials
    (:func:`_expm_stack`; a 1 x 1 block is exp(-i dt_j H_j) entry by entry),
    as an (m, m, rows, n) structure-of-arrays stack (:func:`_block_steps`).
    :func:`_up_sweep` reduces each chunk in that layout; only the chunk's
    root moves to (rows, m, m), :func:`ordered_product` multiplies the chunk
    products, and the block products are scattered into the full dimension.

    With ``watch = j`` it returns ``(U, peak)``, where peak[..., i] is the
    largest |<i| U_t ... U_1 |j>|^2 over t = 0..n: inside j's block, each
    chunk's states come from one :func:`_down_sweep` of its product tree,
    and peak is zero outside the block.
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
            batch = slice(r, r + group)
            psi = np.zeros((len(ix), len(durations[batch])), dtype=complex)
            psi[ix == watch] = 1.0
            parts = []
            for s in range(0, max(n, 1), size):
                levels = _up_sweep(_block_steps(hb, cb, amplitudes[:, batch, s:s + size],
                                                durations[batch, s:s + size]))
                root = levels[-1][..., 0]
                parts.append(np.moveaxis(root, -1, 0))
                if watched:
                    seen = np.max(np.abs(_down_sweep(levels, psi)) ** 2, axis=-1)
                    psi = _stack_matmul(root, psi[:, None])[:, 0]
                    peak[batch, ix] = np.maximum(
                        peak[batch, ix], np.maximum(seen, np.abs(psi) ** 2).T)
            out[(batch,) + sub[1:]] = ordered_product(np.stack(parts, axis=-3))
    out = out.reshape(lead + (dim, dim))
    if watch is None:
        return out
    return out, peak.reshape(lead + (dim,))


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
