"""Linear cluster-state assembly driven by the heralded gate.

A length-n chain is the state

    (up_1 + down_1 Z_2)(up_2 + down_2 Z_3) ... (up_n + down_n) / 2**(n/2),

the usual 1D cluster.  Growth appends a fresh spin prepared in
(up - down)/sqrt(2): run the gate on (last chain spin, fresh spin), then
apply H (even herald) or H*X (odd herald, one kernel pass) to the fresh
spin; either way the chain is one spin longer.  The success feedback must
target the fresh spin: a Hadamard on the old chain end would turn the bond
to its predecessor into an X-type link (HZ = XH), and for chains longer
than one the result would no longer be a cluster state of this form.  A
failed gate costs one spin: measure the last chain spin in Z and, on the
down outcome, apply Z to its predecessor.

Connecting chains M (length m) and N (length n) applies Z to M_m, runs
the gate on (M_m, N_1), then applies the same H / H*X feedback to the
boundary spin whose chain is a single qubit (N_1 when n == 1, else M_m).
When either chain has length one this yields a linear cluster of the full
length m + n.  When both chains have two or more spins, the parity
projection fuses M_m and N_1 into one vertex carrying three bonds, and
any local feedback splits it into a star junction: the result is an
(m+n)-qubit graph state with one degree-3 vertex, not a linear cluster (a
path state has no weight-2 stabilizer on the boundary pair, so no local
operation can linearize it).  A failed connection damages both boundary
spins; each end recovers by growth's measure-and-correct rule, M_m first
(for N_1, the mirror image: measure it and apply Z to N_2 on down), leaving
chains of lengths m-1 and n-1.

A failure leaves every spin it takes out of the chain in a product state
with the rest: a measured spin is a Z eigenstate, and a fresh spin that no
parity projection touched has seen only dephasing Z flips, so it is
(up - down) or (up + down) over sqrt(2).  Both failure paths therefore
``split`` those spins off at once (the rank-1 shortcut always accepts such
a cut, so no SVD runs) and renumber the remaining qubits in order.  A chain
grown from ``new_chain`` thus lives in a register of its own length, plus
the fresh spin during a growth step.  Qubits a caller put into a register
beyond the chain stay.  A register holds at least one qubit, so a chain
that a failure empties keeps its measured spin when nothing else is left.

``canonical_cluster`` builds the reference state by direct expansion and
is the oracle every grow/connect path is checked against.

A gate run succeeds with the same probability whatever the register
holds, so the resource factory (``simulate_factory``) walks over chain
lengths with runs drawn by ``gate.sample_runs`` and builds no register;
``expected_gate_ops`` is its exact mean, computed once per call.  The walk
reads the runs' success flags in plain loops, from whole batches each
sized from that mean for the trials left; PAIRWISE reads its connections
from a fixed plan, the post-order list of (left, right) chain lengths, and
``expected_gate_ops`` sums its connection costs over that same list.
``sample_runs`` draws the same runs however a request is split into
batches, so the batch size changes no count.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gate import (GateConfig, GateOutcome, GateResult, RunOutcome, check_count, run_gate,
                   run_moments, sample_runs)
from .qstate import (MAX_QUBITS, SpinOutcome, StateVector, _apply_xh, _frozen, apply_1q,
                     collapse_z, measure_z, split, subsystem_fidelity, tensor)
from .qstate import permute  # noqa: F401  unused; the benchmark tracer wraps cluster.permute

MAX_FACTORY_TARGET = 10
_MAX_OPS_PER_TRIAL = 1_000_000
_MAX_BATCH = 1 << 16  # the most gate runs one factory batch draws


class GrowthStrategy(enum.Enum):
    SEQUENTIAL = "sequential_growth"
    PAIRWISE = "pairwise_doubling"


@dataclass(frozen=True)
class ChainState:
    """A register plus the ordered qubit labels that form the chain.

    ``grow_chain`` and ``connect_chains`` keep a register down to its
    chain plus whatever extra qubits the caller put in; a chain built from
    ``new_chain`` has labels ``range(length)``.  An emptied chain with no
    such extras keeps its last measured spin, as a register is never empty.
    """

    register: StateVector
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = self.labels
        if len(set(labels)) != len(labels):
            raise ValueError("chain labels must be distinct")
        n = self.register.n
        if labels and not (0 <= min(labels) and max(labels) < n):
            bad = next(q for q in labels if not 0 <= q < n)
            raise ValueError(f"label {bad} outside the register")

    @property
    def length(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GrowResult:
    """Chain after one growth attempt (grown on success, shrunk on failure)."""

    chain: ChainState
    gate: GateResult


@dataclass(frozen=True)
class ConnectResult:
    """Either the joined chain or the two degraded parts after a failure."""

    chain: Optional[ChainState]
    parts: Optional[tuple[ChainState, ChainState]]
    gate: GateResult


def new_chain() -> ChainState:
    """A length-1 chain: one spin in (up + down)/sqrt(2)."""
    return ChainState(StateVector.plus(), (0,))


def add_fresh(chain: ChainState) -> tuple[ChainState, int]:
    """Append a fresh spin in (up - down)/sqrt(2); returns its index."""
    return (ChainState(tensor(chain.register, StateVector.minus()), chain.labels),
            chain.register.n)


@functools.lru_cache(maxsize=MAX_QUBITS)
def canonical_cluster(n: int) -> StateVector:
    """The 1D cluster state of n spins, by direct expansion.

    Basis amplitudes are (-1)**(number of adjacent down-down pairs),
    normalized; the oracle for all growth and connection tests.  Built
    once per n and shared, so its amplitudes are read-only.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"cluster size must be in [1, {MAX_QUBITS}]")
    idx = np.arange(2 ** n, dtype=np.int32)
    # bit k of pairs is set when bits k and k+1 are both down; XOR-folding
    # its (at most 15) bits leaves the parity of their count in bit 0
    pairs = idx & (idx >> 1)
    for shift in (8, 4, 2, 1):
        pairs ^= pairs >> shift
    return _frozen(n, ((1.0 - 2.0 * (pairs & 1)) / 2 ** (n / 2)).astype(complex))


def chain_fidelity(chain: ChainState) -> float:
    """Fidelity of the chain qubits against the canonical cluster state."""
    if chain.length == 0:
        return 1.0
    return subsystem_fidelity(chain.register, chain.labels,
                              canonical_cluster(chain.length))


def _feedback(result: GateResult, qubit: int) -> StateVector:
    """The success feedback on ``qubit``: H after an even herald, X then H
    (one pass) after an odd one."""
    if result.outcome is GateOutcome.ODD:
        return _apply_xh(result.state, qubit)
    return apply_1q(result.state, qubit, "H")


def _measure_end(state: StateVector, end: tuple[int, ...], rng,
                 forced: Optional[SpinOutcome]) -> StateVector:
    """Failure recovery at the chain end ``end[0]`` (``end`` lists the chain
    from there inwards): measure it in Z, as ``forced`` or drawn from
    ``rng``, and on DOWN apply Z to its neighbour ``end[1]``, if any."""
    if forced is not None:
        outcome, (state, _) = forced, collapse_z(state, end[0], forced)
    elif rng is None:
        raise ValueError("rng is required unless the measurement outcome is forced")
    else:
        outcome, state = measure_z(state, end[0], rng)
    if outcome is SpinOutcome.DOWN and len(end) > 1:
        state = apply_1q(state, end[1], "Z")
    return state


def _drop(state: StateVector, labels: tuple[int, ...],
          dead: tuple[int, ...]) -> ChainState:
    """The chain ``labels`` over ``state`` with the product qubits ``dead``
    split off and the rest renumbered; when ``dead`` is the whole
    register, its first qubit stays."""
    if len(dead) == state.n:
        dead = dead[1:]
    if not dead:
        return ChainState(state, labels)
    _, rest = split(state, dead)
    kept = [q for q in range(state.n) if q not in dead]
    return ChainState(rest, tuple(kept.index(q) for q in labels))


def grow_chain(chain: ChainState, fresh: int, config: GateConfig,
               rng: Optional[np.random.Generator] = None, *,
               force: Optional[GateOutcome] = None,
               force_measure: Optional[SpinOutcome] = None) -> GrowResult:
    """Attempt to extend the chain by the fresh spin.

    On failure the chain shrinks by one (a length-1 chain becomes the
    empty chain); the measured spin and the untouched fresh spin are split
    off the register and the remaining qubits renumbered in order.

    ``fresh`` must be in a product state with the rest of the register, as
    ``add_fresh`` leaves it: a success needs that for the result to be a
    cluster, and a failure that splits off a fresh spin entangled with
    another qubit raises ``EntangledCutError``.
    """
    if chain.length == 0:
        raise ValueError("cannot grow an empty chain")
    if not 0 <= fresh < chain.register.n or fresh in chain.labels:
        raise ValueError("fresh qubit must be a non-chain register qubit")
    last = chain.labels[-1]
    result = run_gate(config, chain.register, last, fresh, rng, force=force)
    if result.outcome is not GateOutcome.FAILURE:
        return GrowResult(ChainState(_feedback(result, fresh), chain.labels + (fresh,)),
                          result)
    state = _measure_end(result.state, chain.labels[::-1], rng, force_measure)
    return GrowResult(_drop(state, chain.labels[:-1], (last, fresh)), result)


def connect_chains(m_chain: ChainState, n_chain: ChainState, config: GateConfig,
                   rng: Optional[np.random.Generator] = None, *,
                   force: Optional[GateOutcome] = None,
                   force_measure: tuple[Optional[SpinOutcome],
                                        Optional[SpinOutcome]] = (None, None),
                   ) -> ConnectResult:
    """Join two chains end to start with one gate.

    Success yields a chain of length m + n.  Failure measures out both
    boundary spins (with the per-end Z feedback) and returns the two
    shortened chains, each over its own register without its measured
    boundary spin.
    """
    if m_chain.length == 0 or n_chain.length == 0:
        raise ValueError("cannot connect an empty chain")
    offset = m_chain.register.n
    register = tensor(m_chain.register, n_chain.register)
    m_labels = m_chain.labels
    n_labels = tuple(q + offset for q in n_chain.labels)
    m_last, n_first = m_labels[-1], n_labels[0]
    register = apply_1q(register, m_last, "Z")
    result = run_gate(config, register, m_last, n_first, rng, force=force)
    if result.outcome is not GateOutcome.FAILURE:
        # the feedback spin must be the one without a further chain bond,
        # otherwise that bond turns X-type under the Hadamard
        target = n_first if n_chain.length == 1 else m_last
        return ConnectResult(ChainState(_feedback(result, target), m_labels + n_labels),
                             None, result)
    forced_m, forced_n = force_measure
    state = _measure_end(result.state, m_labels[::-1], rng, forced_m)
    state = _measure_end(state, n_labels, rng, forced_n)
    m_register, n_register = split(state, tuple(range(offset)))
    part_m = _drop(m_register, m_labels[:-1], (m_last,))
    part_n = _drop(n_register, n_chain.labels[1:], (n_chain.labels[0],))
    return ConnectResult(None, (part_m, part_n), result)


@dataclass(frozen=True)
class FactoryStats:
    """Resource counts over repeated full builds of a target chain."""

    strategy: GrowthStrategy
    target_length: int
    photons: np.ndarray
    gate_ops: np.ndarray

    @property
    def trials(self) -> int:
        return self.photons.size

    @property
    def mean_photons(self) -> float:
        return float(np.mean(self.photons))

    @property
    def var_photons(self) -> float:
        return float(np.var(self.photons, ddof=1)) if self.trials > 1 else 0.0

    @property
    def stderr_photons(self) -> float:
        return math.sqrt(self.var_photons / self.trials) if self.trials > 1 else 0.0

    @property
    def mean_gate_ops(self) -> float:
        return float(np.mean(self.gate_ops))

    @property
    def var_gate_ops(self) -> float:
        return float(np.var(self.gate_ops, ddof=1)) if self.trials > 1 else 0.0

    def to_table(self):
        """The counts as a one-row ``sweep.Table``, which ``sweep.emit``
        writes as CSV, JSON lines or SVG."""
        from .sweep import Table, quantize
        columns = ("strategy", "target_length", "trials", "mean_photons",
                   "var_photons", "mean_gate_ops", "var_gate_ops")
        row = {"strategy": self.strategy.value,
               "target_length": float(self.target_length),
               "trials": float(self.trials),
               "mean_photons": quantize(self.mean_photons),
               "var_photons": quantize(self.var_photons),
               "mean_gate_ops": quantize(self.mean_gate_ops),
               "var_gate_ops": quantize(self.var_gate_ops)}
        return Table(columns=columns, rows=(row,))


class _RunReader:
    """Success flags of the gate runs a ``simulate_factory`` call reads, one
    ``sample_runs`` batch at a time, and the photons of every run drawn.

    ``flags`` iterates over the current batch; the walk reads it with plain
    ``for`` loops and calls ``refill`` only once it has run dry.
    ``per_trial`` is the mean gate operations of one trial (``math.inf``
    when no run can succeed).
    """

    def __init__(self, config: GateConfig, rng: np.random.Generator, per_trial: float,
                 trials: int):
        self.config, self.rng, self.per_trial, self.trials = config, rng, per_trial, trials
        self.flags = iter(())
        self.drawn = 0      # runs drawn so far
        self.attempts = []  # their photon counts, one array per batch
        self.start = 0      # run position where the current trial began
        self.done = 0       # trials finished

    def position(self) -> int:
        """How many runs the trials have read so far."""
        return self.drawn - operator.length_hint(self.flags)

    def check_budget(self, position: int) -> None:
        if position - self.start > _MAX_OPS_PER_TRIAL:
            raise RuntimeError("factory trial exceeded the gate-operation budget")

    def refill(self) -> None:
        """Draw the next batch: the runs the trials left are expected to
        read, plus three square roots of that, and at most ``_MAX_BATCH``
        (the size used when no run can succeed)."""
        self.check_budget(self.drawn)
        mean = self.per_trial * (self.trials - self.done)
        n = max(math.ceil(min(mean + 3.0 * math.sqrt(mean), _MAX_BATCH)), 1)
        outcome, attempts = sample_runs(self.config, n, self.rng)
        self.flags = iter((outcome == RunOutcome.SUCCESS).tolist())
        self.drawn += n
        self.attempts.append(attempts)


def _grow_to(length: int, target: int, runs: _RunReader) -> None:
    length = max(length, 1)  # an emptied chain re-prepares one spin for free
    while length < target:
        for success in runs.flags:
            if success:
                length += 1
                if length == target:
                    return
            elif length > 1:
                length -= 1
        runs.refill()


def _pairwise_plan(target: int) -> list[tuple[int, int]]:
    """The (left, right) chain lengths of every connection a PAIRWISE build
    of ``target`` spins makes, in order: both halves' plans, then the
    connection that joins them."""
    if target == 1:
        return []
    left, right = (target + 1) // 2, target // 2
    return _pairwise_plan(left) + _pairwise_plan(right) + [(left, right)]


def _connect_all(plan: list[tuple[int, int]], runs: _RunReader) -> None:
    for left, right in plan:
        joined = False
        while not joined:
            for success in runs.flags:
                if success:
                    joined = True
                    break
                if left > 1:
                    # a failed connection costs each half one spin; regrowing
                    # them may refill, so read on from the current batch
                    _grow_to(left - 1, left, runs)
                    _grow_to(right - 1, right, runs)
                    break
                # two single spins: nothing regrows, so read the next flag
            else:
                runs.refill()


def simulate_factory(target_length: int, config: GateConfig,
                     strategy: GrowthStrategy, rng: np.random.Generator,
                     trials: int) -> FactoryStats:
    """Monte Carlo resource counts for building chains of a target length.

    SEQUENTIAL grows one chain spin by spin, re-preparing a single spin
    whenever failures wipe the chain out.  PAIRWISE builds two half-length
    chains recursively and connects them, regrowing the damaged halves
    after a failed connection; the walk reads its connections from a
    fixed plan, built once per call.  Photons and gate operations are
    counted until the target length is first reached; a trial that spends
    more than 1e6 gate operations raises RuntimeError.

    The trials read gate runs in order from ``sample_runs`` batches, each
    sized from the exact mean, which is computed once per call:
    ``expected_gate_ops`` times the trials left, plus three square roots
    of that, and at most 2**16 runs.  A trial's gate ops are the runs it
    read and its photons their attempts.  ``sample_runs`` draws the same
    runs whether asked for them at once or in parts, so the batch sizes
    change no count, only where ``rng`` stands afterwards.
    """
    check_count("target_length", target_length, 1)
    if target_length > MAX_FACTORY_TARGET:
        raise ValueError(f"target length must be in [1, {MAX_FACTORY_TARGET}]")
    check_count("trials", trials, 1)
    if not isinstance(strategy, GrowthStrategy):
        raise TypeError(f"unknown strategy {strategy!r}")
    p = min(run_moments(config)[0], 1.0)  # p_unit may pass 1 by rounding
    per_trial = expected_gate_ops(target_length, p, strategy) if p > 0.0 else math.inf
    runs = _RunReader(config, rng, per_trial, trials)
    plan = _pairwise_plan(target_length) if strategy is GrowthStrategy.PAIRWISE else None
    ends = []  # run position after each trial
    for i in range(trials):
        runs.done = i
        if strategy is GrowthStrategy.SEQUENTIAL:
            _grow_to(1, target_length, runs)
        else:
            _connect_all(plan, runs)
        end = runs.position()
        runs.check_budget(end)
        ends.append(end)
        runs.start = end
    photons = np.concatenate([np.zeros(1, dtype=np.int64), *runs.attempts]).cumsum()
    totals = np.zeros((2, trials + 1), dtype=np.int64)  # photons, gate ops read so far
    totals[:, 1:] = photons[ends], ends
    return FactoryStats(strategy, target_length, *(totals[:, 1:] - totals[:, :-1]))


def expected_gate_ops(target: int, p: float, strategy: GrowthStrategy) -> float:
    """Exact mean gate operations per ``simulate_factory`` trial, at any length.

    p is one gate operation's success probability (``run_moments``; times
    its mean attempts, this gives photons).  Growing from j to j + 1 spins
    takes h_j = (1 + (1 - p) h_{j-1}) / p operations on average, h_0 = 0,
    as a failure costs one spin (Barrett & Kok, PRA 71, 060310(R) (2005)).
    SEQUENTIAL takes the sum of h_1 .. h_{target-1}.  PAIRWISE takes, for
    each connection of ``_pairwise_plan(target)`` (the list its walk
    reads) between chains of l and r spins, (1 + (1 - p)(h_{l-1} +
    h_{r-1})) / p: a failed connection costs each side one spin.
    """
    if target < 1 or not 0.0 < p <= 1.0:
        raise ValueError("need target >= 1 and p in (0, 1]")
    if not isinstance(strategy, GrowthStrategy):
        raise TypeError(f"unknown strategy {strategy!r}")
    h = [0.0]
    for _ in range(1, target):
        h.append((1.0 + (1.0 - p) * h[-1]) / p)
    if strategy is GrowthStrategy.SEQUENTIAL:
        return sum(h)
    return sum(((1.0 + (1.0 - p) * (h[left - 1] + h[right - 1])) / p
                for left, right in _pairwise_plan(target)), 0.0)
