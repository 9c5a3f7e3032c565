"""Dense state vectors for small spin registers.

Basis convention: qubit 0 is the most significant bit of the basis index;
bit value 0 is spin up, 1 is spin down.  Registers are capped at 16 qubits
(1 MiB of amplitudes).  All operations return new ``StateVector`` values;
nothing mutates in place, so values can be shared freely across threads.

The two-qubit parity projectors are *signed*: the even projector keeps the
up-up component with ``+`` and the down-down component with ``-``, the odd
projector keeps up-down with ``+`` and down-up with ``-``.  Those signs
are exactly what the heralded gate imprints, so downstream feedback
operations never need to patch phases.

Each kernel is one pass: it reads the amplitudes it needs about once and
writes one new array.  The layouts:

- ``apply_1q`` views the register as ``(2**q, 2, 2**(n-q-1))``.  X swaps
  the two middle slices and Z negates the second.  H writes the scaled
  sum and difference of the two slices, at every qubit: a 2x2 matrix
  product saves a few percent on a long trailing axis and is many times
  slower on a short one.  X followed by H, the cluster layer's odd-herald
  feedback, is one pass too: H on the view with its slices swapped.
- Every view is one ``reshape`` of the amplitudes, its shape computed
  directly from the qubit indices.
- ``parity_weights`` and ``project_parity`` view it as
  ``(left, 2, mid, 2, right)``, lower qubit first.  The projector sums
  the probability of the two kept slices only and writes them, signed
  and scaled, into a zeroed output.
- ``collapse_z`` and ``measure_z`` read one slice of the one-qubit view.
- ``tensor`` is the outer product of the two amplitude vectors, written
  one row or column per entry of the shorter vector.
- ``permute``, ``split`` and ``subsystem_fidelity`` use the
  ``(2**k, 2**(n-k))`` matrix whose rows run over the named qubits (a
  transpose copy when the order needs one).

``split`` certifies a product before it factors anything: the matrix
column with the largest norm is the candidate subsystem, and contracting
it against the matrix gives the complement.  When ``1 - |comp|**2`` is
within ``NORM_ATOL`` the cut is a product; for any unit vector u,
``|u^H M|**2 <= sigma_1**2``, so the SVD test accepts every state this
shortcut accepts.  Otherwise it falls back to the SVD, which alone
decides whether to raise ``EntangledCutError``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 16
NORM_ATOL = 1e-10
_ZERO_PROB = 1e-24

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_GATES = ("H", "X", "Z")


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class SpinOutcome(enum.IntEnum):
    UP = 0
    DOWN = 1


class ZeroProbabilityError(ValueError):
    """Projection onto a branch that carries no amplitude."""


class EntangledCutError(ValueError):
    """Requested factorization across a cut that carries entanglement."""


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over an n-spin register (immutable by convention)."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"register size must be in [1, {MAX_QUBITS}], got {self.n}")
        if self.amps.shape != (2 ** self.n,):
            raise ValueError("amplitude array length must be 2**n")

    @staticmethod
    def from_amplitudes(amps) -> "StateVector":
        """Validating constructor: copies, checks size and normalization."""
        arr = np.asarray(amps, dtype=complex).reshape(-1).copy()
        n = int(arr.size).bit_length() - 1
        if arr.size < 2 or arr.size != 2 ** n:
            raise ValueError("amplitude count must be a power of two >= 2")
        if abs(np.linalg.norm(arr) - 1.0) > NORM_ATOL:
            raise ValueError("amplitudes are not normalized")
        return StateVector(n, arr)

    @staticmethod
    def basis(n: int, index: int) -> "StateVector":
        if not 0 <= index < 2 ** n:
            raise ValueError("basis index out of range")
        arr = np.zeros(2 ** n, dtype=complex)
        arr[index] = 1.0
        return StateVector(n, arr)

    @staticmethod
    def single(alpha: complex, beta: complex) -> "StateVector":
        """One spin in alpha|up> + beta|down>."""
        return StateVector.from_amplitudes([alpha, beta])

    @staticmethod
    def plus() -> "StateVector":
        """(up + down)/sqrt(2): one shared value whose amplitudes are read-only."""
        return _PLUS

    @staticmethod
    def minus() -> "StateVector":
        """(up - down)/sqrt(2): one shared value whose amplitudes are read-only."""
        return _MINUS

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _frozen(n: int, amps: np.ndarray) -> StateVector:
    """A state whose amplitude array rejects writes, safe to hand out many times."""
    amps.flags.writeable = False
    return StateVector(n, amps)


_PLUS = _frozen(1, np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex))
_MINUS = _frozen(1, np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex))


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.n:
        raise IndexError(f"qubit {qubit} out of range for {state.n}-qubit register")


def _axes(state: StateVector, *qubits: int) -> np.ndarray:
    """Reshape view of ``state.amps`` with a length-2 axis per named qubit:
    ``(2**q, 2, 2**(n-q-1))`` for one qubit q, ``(left, 2, mid, 2, right)``
    for two, lower qubit first.  It shares memory with the state: never write to it."""
    for q in qubits:
        _check_qubit(state, q)
    if len(qubits) == 1:
        return state.amps.reshape(1 << qubits[0], 2, -1)
    lo, hi = qubits
    if lo == hi:
        raise ValueError(f"qubits must be distinct, got {qubits}")
    if lo > hi:
        lo, hi = hi, lo
    return state.amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)


def _as_matrix(state: StateVector, qubits: list) -> np.ndarray:
    """``state.amps`` as a ``(2**k, 2**(n-k))`` matrix: the row index runs
    over `qubits` in the given order, the column index over the remaining
    qubits in ascending order."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubits must be distinct, got {qubits}")
    for q in qubits:
        _check_qubit(state, q)
    rest = [q for q in range(state.n) if q not in qubits]
    t = state.amps.reshape((2,) * state.n).transpose(qubits + rest)
    return t.reshape(2 ** len(qubits), -1)


def apply_1q(state: StateVector, qubit: int, gate: str) -> StateVector:
    """Apply H, X or Z to one qubit.

    H maps up -> (up + down)/sqrt(2) and down -> (up - down)/sqrt(2).
    """
    view = _axes(state, qubit)
    if gate not in _GATES:
        raise ValueError(f"unknown gate {gate!r}; expected one of {sorted(_GATES)}")
    if gate == "H":
        return _hadamard(state.n, view)
    up, down = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    if gate == "X":
        out[:, 0] = down
        out[:, 1] = up
    else:
        out[:, 0] = up
        np.negative(down, out=out[:, 1])
    return StateVector(state.n, out.reshape(-1))


def _apply_xh(state: StateVector, qubit: int) -> StateVector:
    """``apply_1q`` with X and then H on one qubit, in one pass: H applied
    to the view with its two slices swapped, bit for bit what the two
    calls give."""
    return _hadamard(state.n, _axes(state, qubit)[:, ::-1])


def _hadamard(n: int, view: np.ndarray) -> StateVector:
    """H on the middle axis of a one-qubit view, as ``apply_1q`` lays it out."""
    up, down = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    np.add(up, down, out=out[:, 0])
    np.subtract(up, down, out=out[:, 1])
    out *= _SQRT_HALF
    return StateVector(n, out.reshape(-1))


def _sq_norm(x: np.ndarray) -> float:
    """Squared norm of a (possibly strided) view: one vdot, no abs()**2 temporaries."""
    return float(np.vdot(x, x).real)


def parity_weights(state: StateVector, q1: int, q2: int) -> tuple[float, float]:
    """Squared norms of the even and odd parity components on (q1, q2)."""
    view = _axes(state, q1, q2)
    w = [[_sq_norm(view[:, i, :, j]) for j in (0, 1)] for i in (0, 1)]
    return w[0][0] + w[1][1], w[0][1] + w[1][0]


def project_parity(state: StateVector, q1: int, q2: int,
                   outcome: Parity) -> tuple[StateVector, float]:
    """Apply the signed parity projector on (q1, q2) and renormalize.

    Returns the collapsed state and the pre-normalization squared norm
    (the probability of the outcome).  Raises ZeroProbabilityError when
    that probability vanishes instead of returning a NaN state.
    """
    return _project_parity(state, q1, q2, outcome, None)


def _project_parity(state: StateVector, q1: int, q2: int, outcome: Parity,
                    prob: float | None) -> tuple[StateVector, float]:
    """``project_parity`` given the kept weight ``prob``, as
    ``parity_weights`` gives it for ``outcome``; None computes it here."""
    view = _axes(state, q1, q2)
    if not isinstance(outcome, Parity):
        raise TypeError(f"outcome must be a Parity, got {outcome!r}")
    # (bit of q1, bit of q2) of the slices kept with + and with -; the view
    # puts the lower qubit's axis first
    plus, minus = ((0, 0), (1, 1)) if outcome is Parity.EVEN else ((0, 1), (1, 0))
    if q1 > q2:
        plus, minus = plus[::-1], minus[::-1]
    kept = view[:, plus[0], :, plus[1]], view[:, minus[0], :, minus[1]]
    if prob is None:
        prob = _sq_norm(kept[0]) + _sq_norm(kept[1])
    if prob < _ZERO_PROB:
        raise ZeroProbabilityError(f"{outcome.value}-parity branch has zero probability")
    scale = 1.0 / math.sqrt(prob)
    out = np.zeros_like(view)
    np.multiply(kept[0], scale, out=out[:, plus[0], :, plus[1]])
    np.multiply(kept[1], -scale, out=out[:, minus[0], :, minus[1]])
    return StateVector(state.n, out.reshape(-1)), prob


def collapse_z(state: StateVector, qubit: int,
               outcome: SpinOutcome) -> tuple[StateVector, float]:
    """Project one qubit onto a Z eigenstate and renormalize.

    Returns (collapsed state, branch probability); errors on a
    zero-probability branch.
    """
    view = _axes(state, qubit)
    prob = _sq_norm(view[:, outcome])
    if prob < _ZERO_PROB:
        raise ZeroProbabilityError(f"branch {SpinOutcome(outcome).name} has zero probability")
    t = np.zeros_like(view)
    np.multiply(view[:, outcome], 1.0 / math.sqrt(prob), out=t[:, outcome])
    return StateVector(state.n, t.reshape(-1)), prob


def measure_z(state: StateVector, qubit: int,
              rng: np.random.Generator) -> tuple[SpinOutcome, StateVector]:
    """Born-rule Z measurement: one uniform draw per call (outcome UP when
    the draw falls below the up-branch probability)."""
    p_up = _sq_norm(_axes(state, qubit)[:, 0])
    outcome = SpinOutcome.UP if rng.random() < p_up else SpinOutcome.DOWN
    collapsed, _ = collapse_z(state, qubit, outcome)
    return outcome, collapsed


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|**2, global-phase invariant, clipped to [0, 1]."""
    if a.n != b.n:
        raise ValueError(f"register sizes differ: {a.n} != {b.n}")
    return min(1.0, float(abs(np.vdot(a.amps, b.amps)) ** 2))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Join two registers; a's qubits become the most significant ones."""
    if a.n + b.n > MAX_QUBITS:
        raise ValueError(f"combined register would exceed {MAX_QUBITS} qubits")
    x, y = a.amps, b.amps
    out = np.empty((x.size, y.size), dtype=np.result_type(x, y))
    # one product per entry of the shorter operand: a 2-entry operand would
    # otherwise run 2**n inner loops of length 2
    if x.size <= y.size:
        for i, xi in enumerate(x):
            np.multiply(xi, y, out=out[i])
    else:
        for j, yj in enumerate(y):
            np.multiply(x, yj, out=out[:, j])
    return StateVector(a.n + b.n, out.reshape(-1))


def permute(state: StateVector, order) -> StateVector:
    """Reorder qubits so new qubit i is old qubit order[i]."""
    order = list(order)
    if sorted(order) != list(range(state.n)):
        raise ValueError("order must be a permutation of all qubits")
    return StateVector(state.n, _as_matrix(state, order).reshape(-1))


def split(state: StateVector, part) -> tuple[StateVector, StateVector]:
    """Factor the register across a product cut.

    Returns (subsystem over `part` in the given order, complement in
    ascending order).  Raises EntangledCutError when the cut carries
    entanglement; intended for peeling off measured or never-entangled
    qubits.
    """
    part = list(part)
    mat = _as_matrix(state, part)
    if not 0 < len(part) < state.n:
        raise ValueError("part must be a proper non-empty subset of the register")
    # a product matrix is sub (x) comp: its largest column is parallel to
    # sub, and contracting that column against it gives comp (module
    # docstring: the SVD accepts whatever this accepts)
    col_norms = (np.einsum("ij,ij->j", mat.real, mat.real)
                 + np.einsum("ij,ij->j", mat.imag, mat.imag))
    col = mat[:, np.argmax(col_norms)]
    sub = col / np.linalg.norm(col)
    comp = sub.conj() @ mat
    if 1.0 - _sq_norm(comp) > NORM_ATOL:
        u, sv, vh = np.linalg.svd(mat, full_matrices=False)
        if 1.0 - sv[0] ** 2 > NORM_ATOL:
            raise EntangledCutError("subsystem is entangled with its complement")
        sub, comp = u[:, 0] / np.linalg.norm(u[:, 0]), vh[0]
    return (StateVector(len(part), sub),
            StateVector(state.n - len(part), comp / np.linalg.norm(comp)))


def subsystem_fidelity(state: StateVector, qubits, target: StateVector) -> float:
    """<target| rho |target> for the reduced state of `qubits` (in order).

    Equals the plain fidelity when the subsystem is in a pure product with
    the rest of the register.
    """
    qubits = list(qubits)
    mat = _as_matrix(state, qubits)
    if target.n != len(qubits):
        raise ValueError("target size must match the subsystem")
    v = target.amps.conj() @ mat
    return min(1.0, float(np.real(np.vdot(v, v))))
