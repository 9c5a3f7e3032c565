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

Connecting chains M (length m) and N (length n) applies Z to M_m (on M's
own register, before the join), runs the gate on (M_m, N_1), then applies
the same H / H*X feedback to the boundary spin whose chain is a single
qubit (N_1 when n == 1, else M_m).  When either chain has length one this
yields a linear cluster of the full length m + n.  When both chains have
two or more spins, the parity projection fuses M_m and N_1 into one vertex
carrying three bonds, and any local feedback splits it into a star
junction: the result is an (m+n)-qubit graph state with one degree-3
vertex, not a linear cluster (a path state has no weight-2 stabilizer on
the boundary pair, so no local operation can linearize it).  A failed
connection damages both boundary spins; each end recovers by growth's
measure-and-correct rule, M_m first (for N_1, the mirror image: measure it
and apply Z to N_2 on down), leaving chains of lengths m-1 and n-1.

A failure leaves every spin it takes out of the chain in a product state
with the rest: a measured spin is a Z eigenstate, and a fresh spin that no
parity projection touched has seen only dephasing Z flips, so it is
(up - down) or (up + down) over sqrt(2).  Both failure paths therefore
take those spins out by slicing, one qubit at a time, and renumber the
remaining qubits in order: a failed grow measures its end spin straight
out of the register (``qstate._measure_out``), and ``_drop`` slices out
the fresh spin, or a failed connection's measured boundary spin, through
``qstate._factor_out``.  ``split`` is left the one cut that slicing
cannot make, between the two chains of a failed connection, and any
spin whose branches do not show a product.  A chain grown from
``new_chain`` thus lives in a register of its own length, plus the fresh
spin during a growth step.  Qubits a caller put into a register
beyond the chain stay.  A register holds at least one qubit, so a chain
that a failure empties keeps its measured spin when nothing else is left.

``canonical_cluster`` builds the reference state by direct expansion and
is the oracle every grow/connect path is checked against.

A gate run succeeds with the same probability whatever the register
holds, so the resource factory (``simulate_factory``) walks over chain
lengths with runs drawn by ``gate.sample_runs`` and builds no register.
A growth strategy is its plan, the ordered (left, right) chain lengths
of the connections a build makes: SEQUENTIAL joins a fresh single spin
at each step, PAIRWISE joins the two halves of a recursive build.  One
transition table, built once per target and strategy from the plan,
drives the one walk (a lookup per run), and ``expected_gate_ops``, its
exact mean, is one sum over the same plan.  The walk reads whole
batches of runs, each sized from that mean for the trials left;
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

from .gate import (GateConfig, GateOutcome, GateResult, check_count, run_gate, run_moments,
                   sample_runs)
from .qstate import (MAX_QUBITS, SpinOutcome, StateVector, _apply_xh, _factor_out, _frozen,
                     _measure_out, apply_1q, collapse_z, measure_z, split, subsystem_fidelity,
                     tensor)
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
                 forced: Optional[SpinOutcome], remove: bool = False) -> StateVector:
    """Failure recovery at the chain end ``end[0]`` (``end`` lists the chain
    from there inwards): measure it in Z, as ``forced`` or drawn from
    ``rng``, and on DOWN apply Z to its neighbour ``end[1]``, if any.
    With ``remove`` the measured spin leaves the register at once
    (``qstate._measure_out``) and the qubits after it move down by one."""
    if forced is None and rng is None:
        raise ValueError("rng is required unless the measurement outcome is forced")
    if remove:
        outcome, state = _measure_out(state, end[0], rng, forced)
        end = tuple(q - (q > end[0]) for q in end)
    elif forced is not None:
        outcome, (state, _) = forced, collapse_z(state, end[0], forced)
    else:
        outcome, state = measure_z(state, end[0], rng)
    if outcome is SpinOutcome.DOWN and len(end) > 1:
        state = apply_1q(state, end[1], "Z")
    return state


def _drop(state: StateVector, labels: tuple[int, ...], dead: int) -> ChainState:
    """The chain ``labels`` over ``state`` with the product qubit ``dead``
    taken out and the qubits after it renumbered; a 1-qubit register stays
    as it is.

    ``qstate._factor_out`` slices the qubit out when its branches show it
    is a product (a measured spin, a fresh spin no projection touched);
    otherwise ``split`` certifies the cut or raises ``EntangledCutError``.
    """
    if state.n > 1:
        rest = _factor_out(state, dead)
        state = split(state, (dead,))[1] if rest is None else rest
        labels = tuple(q - (q > dead) for q in labels)
    return ChainState(state, labels)


def grow_chain(chain: ChainState, fresh: int, config: GateConfig,
               rng: Optional[np.random.Generator] = None, *,
               force: Optional[GateOutcome] = None,
               force_measure: Optional[SpinOutcome] = None) -> GrowResult:
    """Attempt to extend the chain by the fresh spin.

    On failure the chain shrinks by one (a length-1 chain becomes the
    empty chain); the measured spin and the untouched fresh spin leave the
    register and the remaining qubits are renumbered in order.  The
    measured spin is measured out of the register directly, unless it is
    all that would be left.

    ``fresh`` must be in a product state with the rest of the register, as
    ``add_fresh`` leaves it: a success needs that for the result to be a
    cluster, and a failure whose fresh spin is entangled with another
    qubit raises ``EntangledCutError`` from ``split``.
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
    remove = result.state.n > 2  # else the measured spin is all that would stay
    state = _measure_end(result.state, chain.labels[::-1], rng, force_measure, remove=remove)
    # a removed spin moves the qubits after it down by one
    *labels, fresh = (q - (remove and q > last) for q in chain.labels[:-1] + (fresh,))
    return GrowResult(_drop(state, tuple(labels), fresh), result)


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
    m_labels = m_chain.labels
    n_labels = tuple(q + offset for q in n_chain.labels)
    m_last, n_first = m_labels[-1], n_labels[0]
    # Z on M_m over M's register, before the join: negation commutes with the
    # product, so the amplitudes are equal (bits differ at most in a zero's sign)
    register = tensor(apply_1q(m_chain.register, m_last, "Z"), n_chain.register)
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
    part_m = _drop(m_register, m_labels[:-1], m_last)
    part_n = _drop(n_register, n_chain.labels[1:], n_chain.labels[0])
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


def _pairwise_plan(target: int) -> list[tuple[int, int]]:
    """The (left, right) chain lengths of every connection a PAIRWISE build
    of ``target`` spins makes, in order: both halves' plans, then the
    connection that joins them."""
    if target == 1:
        return []
    left, right = (target + 1) // 2, target // 2
    return _pairwise_plan(left) + _pairwise_plan(right) + [(left, right)]


def _plan(target: int, strategy: GrowthStrategy) -> list[tuple[int, int]]:
    """The (left, right) chain lengths of every connection a build of
    ``target`` spins makes, in order.  A SEQUENTIAL grow is a connection
    with a fresh single spin.  Each strategy has its own branch, and any
    other value raises TypeError."""
    if strategy is GrowthStrategy.SEQUENTIAL:
        return [(k, 1) for k in range(1, target)]
    if strategy is GrowthStrategy.PAIRWISE:
        return _pairwise_plan(target)
    raise TypeError(f"unknown strategy {strategy!r}")


@functools.lru_cache(maxsize=2 * MAX_FACTORY_TARGET)
def _walk_table(target: int, strategy: GrowthStrategy) -> tuple[tuple[int, int, int], ...]:
    """The factory walk as a transition table: ``table[state][code]`` is
    the state after a gate run that ends with ``sample_runs``' outcome
    ``code`` (SUCCESS, LOSS, CAP).  State 0 is the end of a trial, and
    the plan's connections are states 1, 2, ... in order, so a trial
    starts at state 1, or is done at once for one spin.

    A failed connection costs each half one spin: it leads to the states
    that regrow the left half, then those of the right half, then back
    to the connection.  Regrowing a chain from l - 1 spins to l is the
    Barrett-Kok walk over its length j: a success adds a spin, a failure
    takes one, and an emptied chain re-prepares one spin for free.  Built
    once per (target, strategy) and shared.
    """
    plan = _plan(target, strategy)
    table: list = [(0, 0, 0)] + [None] * len(plan)

    def regrow(length: int, then: int) -> int:
        """Append the states that regrow a chain to ``length`` spins from
        one fewer, the state for j spins at ``first + j - 1``, and go on
        to ``then``; returns the state to start from."""
        if length == 1:  # an emptied single spin re-prepares for free
            return then
        first = len(table)
        for j in range(1, length):
            up = first + j if j + 1 < length else then
            down = first + max(j - 2, 0)
            table.append((up, down, down))
        return first + length - 2

    for i, (left, right) in enumerate(plan, 1):
        retry = regrow(left, regrow(right, i))
        table[i] = (i + 1 if i < len(plan) else 0, retry, retry)
    return tuple(table)


def simulate_factory(target_length: int, config: GateConfig,
                     strategy: GrowthStrategy, rng: np.random.Generator,
                     trials: int) -> FactoryStats:
    """Monte Carlo resource counts for building chains of a target length.

    A strategy is its plan, the ordered (left, right) chain lengths of
    the connections a build makes (``_plan``).  SEQUENTIAL joins the chain
    with a fresh single spin, one spin at a time; PAIRWISE builds two
    half-length chains recursively and connects them.  A failed
    connection costs each half one spin, and the halves regrow before it
    is tried again; a chain that failures empty re-prepares a single
    spin.  Photons and gate operations are counted until the target
    length is first reached; a trial that spends more than 1e6 gate
    operations raises RuntimeError.

    One walk serves both strategies: it steps through the plan's
    transition table (``_walk_table``, built once per target and
    strategy), one lookup per gate run.  The runs come in order from
    ``sample_runs`` batches, each sized from the exact mean
    (``expected_gate_ops``, computed once per call from the same plan)
    times the trials left, plus three square roots of that, and at most
    2**16 runs.  A trial's gate ops are the runs it read and its photons
    their attempts.  ``sample_runs`` draws the same runs whether asked
    for them at once or in parts, so the batch sizes change no count,
    only where ``rng`` stands afterwards.  A one-spin build reads no run.
    """
    check_count("target_length", target_length, 1)
    if target_length > MAX_FACTORY_TARGET:
        raise ValueError(f"target length must be in [1, {MAX_FACTORY_TARGET}]")
    check_count("trials", trials, 1)
    p = min(run_moments(config)[0], 1.0)  # p_unit may pass 1 by rounding
    per_trial = expected_gate_ops(target_length, p, strategy) if p > 0.0 else math.inf
    table = _walk_table(target_length, strategy)
    start = state = int(target_length > 1)
    max_batch, budget, unread = _MAX_BATCH, _MAX_OPS_PER_TRIAL, operator.length_hint
    ends = [] if start else [0] * trials  # run position after each trial
    batches = []  # the photons of every run drawn, one array per batch
    drawn = begun = 0  # runs drawn; position where the current trial began
    while len(ends) < trials:
        if drawn - begun > budget:
            raise RuntimeError("factory trial exceeded the gate-operation budget")
        mean = per_trial * (trials - len(ends))
        n = max(math.ceil(min(mean + 3.0 * math.sqrt(mean), max_batch)), 1)
        outcome, attempts = sample_runs(config, n, rng)
        batches.append(attempts)
        drawn += n
        # positions are read only where a trial ends: counting every run
        # (enumerate) would cost about as much as the lookup itself
        runs = iter(outcome.tolist())
        for code in runs:
            state = table[state][code]
            if not state:
                position = drawn - unread(runs)
                if position - begun > budget:
                    raise RuntimeError("factory trial exceeded the gate-operation budget")
                ends.append(position)
                if len(ends) == trials:
                    break
                begun, state = position, start
    gate_ops = np.array(ends, dtype=np.int64)  # runs read by each trial's end
    photons = np.concatenate([np.zeros(1, dtype=np.int64), *batches]).cumsum()[gate_ops]
    gate_ops[1:] -= gate_ops[:-1]  # each trial's own counts; numpy buffers the overlap
    photons[1:] -= photons[:-1]
    return FactoryStats(strategy, target_length, photons, gate_ops)


def expected_gate_ops(target: int, p: float, strategy: GrowthStrategy) -> float:
    """Exact mean gate operations per ``simulate_factory`` trial, at any length.

    p is one gate operation's success probability (``run_moments``; times
    its mean attempts, this gives photons).  Regrowing a chain from j - 1
    to j spins takes h_j = (1 + (1 - p) h_{j-1}) / p operations on
    average, h_0 = 0, as a failure costs one spin (Barrett & Kok, PRA 71,
    060310(R) (2005)).  The mean is one sum over the strategy's plan,
    the connection list its walk reads: joining chains of l and r spins
    takes (1 + (1 - p)(h_{l-1} + h_{r-1})) / p, as a failed connection
    costs each side one spin.  A SEQUENTIAL grow joins a single spin, so
    its term is h_l and the sum is h_1 + ... + h_{target-1}.
    """
    if target < 1 or not 0.0 < p <= 1.0:
        raise ValueError("need target >= 1 and p in (0, 1]")
    h = [0.0]
    for _ in range(1, target):
        h.append((1.0 + (1.0 - p) * h[-1]) / p)
    return sum(((1.0 + (1.0 - p) * (h[left - 1] + h[right - 1])) / p
                for left, right in _plan(target, strategy)), 0.0)
