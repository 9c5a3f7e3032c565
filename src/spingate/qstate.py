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
- ``collapse_z`` and ``measure_z`` read one slice of the one-qubit view
  and write it, scaled, into a zeroed register.  The private
  ``_measure_out`` returns that slice alone, bit for bit, as the register
  without the measured qubit.
- ``tensor`` is the outer product of the two amplitude vectors, written
  one row or column per entry of the shorter vector.
- ``permute``, ``split`` and ``subsystem_fidelity`` use the
  ``(2**k, 2**(n-k))`` matrix whose rows run over the named qubits (a
  transpose copy when the order needs one).  ``subsystem_fidelity`` over
  the whole register in order skips the matrix: one dot gives the same
  bits.

Two functions factor a register.  The private ``_factor_out``
slices out one qubit whose branches show, by exact comparison, that it is
a product: a Z eigenstate (one branch all zero) or an equal-weight
up +- down (the branches exact +- copies).  That covers every spin a
failed chain step removes, so the cluster layer calls ``split`` only for
the cut between two joined chains after a failed connection, and for a
qubit that ``_factor_out`` cannot place.

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
# BLAS hands a dot or matrix-vector product of more than about 10,000
# entries to its threads, whose partial sums round differently from one
# thread's and can stall for milliseconds.  Reductions over more entries
# than this sum fixed chunks in order instead, so their bits do not depend
# on the thread count and no call leaves the calling thread.
_CHUNK = 1 << 13

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
        if abs(_norm(arr) - 1.0) > NORM_ATOL:
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
        return _norm(self.amps)


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


def _vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """``np.vdot(x, y)``; above ``_CHUNK`` entries, the sum in order of its
    value over consecutive chunks of ``_CHUNK`` entries."""
    if x.size <= _CHUNK:
        return np.vdot(x, y)
    x, y = x.reshape(-1), y.reshape(-1)
    total = np.vdot(x[:_CHUNK], y[:_CHUNK])
    for start in range(_CHUNK, x.size, _CHUNK):
        total += np.vdot(x[start:start + _CHUNK], y[start:start + _CHUNK])
    return total


def _sq_norm(x: np.ndarray) -> float:
    """Squared norm of a (possibly strided) view: ``_vdot(x, x)``, one vdot
    per chunk, no abs()**2 temporaries."""
    return float(_vdot(x, x).real)


def _norm(x: np.ndarray) -> float:
    """Norm of a vector: the root of ``_sq_norm``."""
    return math.sqrt(_sq_norm(x))


def _conj_matmul(v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``v.conj() @ mat``; above ``_CHUNK`` entries of ``mat``, the sum in
    order over row blocks of at most ``_CHUNK`` entries (one row when a row
    is longer)."""
    rows, cols = mat.shape
    if rows * cols <= _CHUNK:
        return v.conj() @ mat
    step = max(1, _CHUNK // cols)
    total = v[:step].conj() @ mat[:step]
    for start in range(step, rows, step):
        total += v[start:start + step].conj() @ mat[start:start + step]
    return total


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
    out = np.zeros(view.shape, view.dtype)
    np.multiply(kept[0], scale, out=out[:, plus[0], :, plus[1]])
    np.multiply(kept[1], -scale, out=out[:, minus[0], :, minus[1]])
    return StateVector(state.n, out.reshape(-1)), prob


def _branch_prob(branch: np.ndarray, outcome: SpinOutcome) -> float:
    """Squared norm of the branch a Z outcome keeps; ZeroProbabilityError
    when it vanishes."""
    prob = _sq_norm(branch)
    if prob < _ZERO_PROB:
        raise ZeroProbabilityError(f"branch {SpinOutcome(outcome).name} has zero probability")
    return prob


def _draw_z(view: np.ndarray, rng: np.random.Generator) -> SpinOutcome:
    """One uniform draw: UP when it falls below the up-branch probability."""
    p_up = _sq_norm(view[:, 0])
    return SpinOutcome.UP if rng.random() < p_up else SpinOutcome.DOWN


def collapse_z(state: StateVector, qubit: int,
               outcome: SpinOutcome) -> tuple[StateVector, float]:
    """Project one qubit onto a Z eigenstate and renormalize.

    Returns (collapsed state, branch probability); errors on a
    zero-probability branch.
    """
    view = _axes(state, qubit)
    prob = _branch_prob(view[:, outcome], outcome)
    t = np.zeros(view.shape, view.dtype)
    np.multiply(view[:, outcome], 1.0 / math.sqrt(prob), out=t[:, outcome])
    return StateVector(state.n, t.reshape(-1)), prob


def measure_z(state: StateVector, qubit: int,
              rng: np.random.Generator) -> tuple[SpinOutcome, StateVector]:
    """Born-rule Z measurement: one uniform draw per call (outcome UP when
    the draw falls below the up-branch probability)."""
    outcome = _draw_z(_axes(state, qubit), rng)
    collapsed, _ = collapse_z(state, qubit, outcome)
    return outcome, collapsed


def _measure_out(state: StateVector, qubit: int, rng: np.random.Generator | None,
                 forced: SpinOutcome | None) -> tuple[SpinOutcome, StateVector]:
    """Z-measure one qubit of a register of two or more and remove it: the
    outcome (``forced``, else drawn as ``measure_z`` draws it) and the
    other qubits, in order.  Their amplitudes are the slice ``collapse_z``
    keeps, bit for bit, without the zeroed register around it."""
    view = _axes(state, qubit)
    outcome = _draw_z(view, rng) if forced is None else forced
    # one contiguous copy, then norm and scale in place: the bits
    # ``collapse_z`` writes, without strided passes on a short trailing
    # axis.  vdot reads a slice whose trailing axis is 1 in place, with its
    # stride, and copies any other slice first, so the norm comes from the
    # layout ``collapse_z``'s vdot reads.
    branch = view[:, outcome]
    kept = branch.copy()
    kept *= 1.0 / math.sqrt(_branch_prob(branch if branch.shape[1] == 1 else kept, outcome))
    return outcome, StateVector(state.n - 1, kept.reshape(-1))


def _factor_out(state: StateVector, qubit: int) -> StateVector | None:
    """The register without ``qubit`` when its two branches show by exact
    comparison that it is in a product with the rest, else None.

    A Z eigenstate has one branch exactly zero, and the rest is the other
    branch, copied.  An equal-weight superposition up +- down has branches
    that are exact +- copies of each other, and the rest is the up branch,
    normalized.  Any other qubit is left to ``split``.
    """
    view = _axes(state, qubit)
    up, down = view[:, 0], view[:, 1]
    # the first amplitude of each branch picks the comparisons worth a pass
    u, d = up[0, 0], down[0, 0]
    if d == 0 and not down.any():
        rest = up.copy()
    elif u == 0 and not up.any():
        rest = down.copy()
    elif (u == d and (up == down).all()) or (u == -d and (up == -down).all()):
        rest = up * (1.0 / math.sqrt(_sq_norm(up)))
    else:
        return None
    return StateVector(state.n - 1, rest.reshape(-1))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|**2, global-phase invariant, clipped to [0, 1]."""
    if a.n != b.n:
        raise ValueError(f"register sizes differ: {a.n} != {b.n}")
    return min(1.0, float(abs(_vdot(a.amps, b.amps)) ** 2))


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
    sub = col / _norm(col)
    comp = _conj_matmul(sub, mat)
    if 1.0 - _sq_norm(comp) > NORM_ATOL:
        u, sv, vh = np.linalg.svd(mat, full_matrices=False)
        if 1.0 - sv[0] ** 2 > NORM_ATOL:
            raise EntangledCutError("subsystem is entangled with its complement")
        sub, comp = u[:, 0] / _norm(u[:, 0]), vh[0]
    return (StateVector(len(part), sub),
            StateVector(state.n - len(part), comp / _norm(comp)))


def subsystem_fidelity(state: StateVector, qubits, target: StateVector) -> float:
    """<target| rho |target> for the reduced state of `qubits` (in order).

    Equals the plain fidelity when the subsystem is in a pure product with
    the rest of the register.  When `qubits` is the whole register in
    order (every ``chain_fidelity`` call on a register that holds only its
    chain) it is one ``np.vdot``, with the bits of the plain matrix form
    ``target.amps.conj() @ mat``; so unlike the other reductions here it is
    not summed in chunks, and above 10,000 amplitudes its bits follow the
    BLAS thread count.
    """
    qubits = list(qubits)
    whole = qubits == list(range(state.n))
    mat = None if whole else _as_matrix(state, qubits)
    if target.n != len(qubits):
        raise ValueError("target size must match the subsystem")
    v = np.vdot(target.amps, state.amps) if whole else _conj_matmul(target.amps, mat)
    return min(1.0, _sq_norm(v))
