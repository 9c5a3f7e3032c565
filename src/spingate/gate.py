"""The heralded entangling gate: outcome statistics, projection, recycling.

One probe photon interrogates two spins sitting in separate (pre-balanced,
effectively identical) single-sided cavities.  A click on one of the two
success detectors projects the pair onto a signed parity subspace; a click
on either recycle detector heralds a harmless miss that leaves the
register provably untouched, so the gate retries immediately with a fresh
photon; no click at all is photon loss, which aborts the round and leaves
the (unprojected) register pending reinitialization.

Single-attempt probabilities, with detector efficiency ``eta_det`` and
input-coupling amplitude ``eta_in``:

    p_even    = eta_det * eta_in**2 * |d|**2 * w_even
    p_odd     = eta_det * eta_in**2 * |d|**2 * w_odd
    p_recycle = eta_det * |eta_in * s + sqrt(1 - eta_in**2)|**2
    p_loss    = 1 - (all of the above)

where (d, s) are the cavity reflection combinations and w_even/w_odd are
the parity weights of the current two-spin state.  For ``eta_in = 1`` and
a perfect detector these reduce to the analytic efficiencies

    eta_H = |r1 - r0|**2 / 4         single-shot success
    eta_V = |r1 + r0|**2 / 4         heralded recycle
    eta_S = eta_H / (1 - eta_V)      success with unbounded recycling

Only the split of p_even + p_odd depends on the register, so how a
repeat-until-success run ends (success, loss, or the recycle cap) and how
many photons it takes do not: ``sample_runs`` draws whole runs from the
per-attempt probabilities without a register, and ``run_moments`` gives
their exact success probability and mean photon count.  That per-attempt
law (p_unit, p_recycle, p_loss) is computed once per
``GateConfig``, on first use, and ``run_gate``, ``sample_runs``,
``run_moments`` and ``single_shot_distribution`` all read it.

Two modelling notes:

* Dephasing is a trajectory channel: on every attempt each of the two
  spins independently suffers a Z flip with probability p/2, the phase-flip
  unravelling of a t_gate/T2 ratio p.  Whether dephasing should tick
  differently during the recycle photon's flight is not resolved here; one
  channel application per attempt is used uniformly.
* The mode-mismatch amplitude sqrt(1 - eta_in**2) adds coherently to the
  recycle amplitude.  That extrapolation is normalizable only while the
  branch probabilities sum to at most one; outside that domain (strongly
  reflective, far-detuned systems probed with eta_in < 1)
  ``single_shot_distribution`` raises ModelDomainError rather than
  fabricating a negative loss probability.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cavity import ReflectionPair
from .qstate import (Parity, StateVector, _project_parity, apply_1q, parity_weights,
                     project_parity)

_SUM_ATOL = 1e-12
_DEGENERATE_ATOL = 1e-15
# sample_runs draws at most max(runs left, this many) uniforms at a time,
# so a row of long recycling runs stays small in memory
_MAX_BLOCK = 1 << 16
# the most uniforms sample_runs expects n + 3 sqrt(n) runs to need for it
# to draw them in one block
_ONE_BLOCK = 1 << 13
# sample_runs counts a run's attempts, up to the cap max_recycles + 1, in int64
_MAX_CAP = 2 ** 63 - 1


def check_count(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an integer >= minimum.

    Floats (even 3.0) and booleans are rejected: a JSON config file must
    not pass a fractional trial count or recycle cap.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


class GateOutcome(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    FAILURE = "failure"

    @property
    def parity(self) -> Parity:
        if self is GateOutcome.EVEN:
            return Parity.EVEN
        if self is GateOutcome.ODD:
            return Parity.ODD
        raise ValueError("a failed gate has no parity")


class Etas(NamedTuple):
    """Analytic single-shot, recycle, and total success probabilities."""

    eta_h: float
    eta_v: float
    eta_s: float


class DegenerateRecycleError(ArithmeticError):
    """eta_V = 1: every attempt recycles and the total efficiency diverges.

    Physically requires |r1 + r0| = 2, i.e. both coefficients unity and in
    phase (an empty lossless mirror on both arms).
    """


class ModelDomainError(ValueError):
    """Branch probabilities exceed one: the coherent mode-mismatch
    extrapolation does not apply to these parameters."""


@dataclass(frozen=True)
class GateConfig:
    """Everything the gate needs besides the register itself."""

    pair: ReflectionPair
    eta_in: float = 1.0
    detector_efficiency: float = 1.0
    max_recycles: int = 50
    dephasing_per_attempt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_in", "detector_efficiency", "dephasing_per_attempt"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        check_count("max_recycles", self.max_recycles, 0)
        if self.max_recycles >= _MAX_CAP:
            raise ValueError(f"max_recycles must be below {_MAX_CAP}, "
                             "so that max_recycles + 1 attempts fit a 64-bit count")

    @functools.cached_property
    def _law(self) -> tuple[float, float, float]:
        """``_attempt_probabilities`` of this config, computed on the first
        read.  A ModelDomainError caches nothing, so it is raised again on
        every read; ``dataclasses.replace`` builds a config with a law of
        its own."""
        return _attempt_probabilities(self)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Single-shot probabilities of the four detector outcomes."""

    p_even: float
    p_odd: float
    p_recycle: float
    p_loss: float

    @property
    def p_success(self) -> float:
        return self.p_even + self.p_odd

    def as_array(self) -> np.ndarray:
        return np.array([self.p_even, self.p_odd, self.p_recycle, self.p_loss])


class RunOutcome(enum.IntEnum):
    """How a repeat-until-success gate run ends, as ``sample_runs`` codes it."""

    SUCCESS = 0  # a success click, of either parity
    LOSS = 1     # no click: the photon was lost or missed by the detectors
    CAP = 2      # max_recycles + 1 recycle clicks in a row


# the codes as plain ints: numpy takes an IntEnum operand far more slowly
_SUCCESS, _CAP = int(RunOutcome.SUCCESS), int(RunOutcome.CAP)


class GateRuns(NamedTuple):
    """Outcome codes (``RunOutcome``, int8) and photons used (int64) of
    independent gate runs."""

    outcome: np.ndarray
    attempts: np.ndarray


@dataclass(frozen=True)
class GateResult:
    """Outcome of one repeat-until-success gate run.

    ``attempts`` counts photons consumed.  On FAILURE the state is the
    unprojected register, pending reinitialization by the caller.
    """

    outcome: GateOutcome
    attempts: int
    state: StateVector


def analytic_etas(pair: ReflectionPair) -> Etas:
    """Monochromatic gate efficiencies from one reflection pair.

    The identity eta_S = eta_H / (1 - eta_V) holds exactly; raises
    DegenerateRecycleError when the denominator vanishes.
    """
    return _recycled_etas(abs(pair.r1 - pair.r0) ** 2 / 4, abs(pair.r1 + pair.r0) ** 2 / 4)


def _recycled_etas(eta_h: float, eta_v: float, name: str = "eta_V") -> Etas:
    """Etas with eta_S = eta_H / (1 - eta_V), for monochromatic and for
    pulse-averaged efficiencies alike; raises DegenerateRecycleError, with
    ``name`` in its message, when eta_V reaches one."""
    if 1.0 - eta_v <= _DEGENERATE_ATOL:
        raise DegenerateRecycleError(f"{name} = 1: recycling never terminates")
    return Etas(eta_h, eta_v, eta_h / (1.0 - eta_v))


def _attempt_probabilities(config: GateConfig) -> tuple[float, float, float]:
    """(p_unit, p_recycle, p_loss) of one attempt on any normalized register.

    The parity weights only split p_unit between the two success clicks,
    so these three numbers fix how every gate run ends and how many
    photons it takes.  Raises ModelDomainError where the branches sum to
    more than one.
    """
    eta_det = config.detector_efficiency
    eta_in = config.eta_in
    p_unit = eta_det * eta_in ** 2 * abs(config.pair.d) ** 2
    amp_v = eta_in * config.pair.s + math.sqrt(max(0.0, 1.0 - eta_in ** 2))
    p_recycle = eta_det * abs(amp_v) ** 2
    p_loss = 1.0 - (p_unit + p_recycle)
    if p_loss < -_SUM_ATOL:
        raise ModelDomainError(
            "branch probabilities sum to "
            f"{p_unit + p_recycle:.6f} > 1; the coherent mode-mismatch "
            "model does not cover these parameters")
    return p_unit, p_recycle, max(0.0, p_loss)


def single_shot_distribution(config: GateConfig, state: StateVector,
                             q1: int, q2: int) -> OutcomeDistribution:
    """Probabilities of the four single-photon outcomes for the current state."""
    w_even, w_odd = _checked_weights(state, q1, q2)
    p_unit, p_recycle, _ = config._law
    p_even = p_unit * w_even
    p_odd = p_unit * w_odd
    p_loss = 1.0 - (p_even + p_odd + p_recycle)
    return OutcomeDistribution(p_even, p_odd, p_recycle, max(0.0, p_loss))


def _checked_weights(state: StateVector, q1: int, q2: int) -> tuple[float, float]:
    """The (even, odd) parity weights the success clicks split by, once
    the state is checked to be normalized."""
    try:
        w_even, w_odd = parity_weights(state, q1, q2)
        norm = math.sqrt(w_even + w_odd)  # the parity weights add up to ||psi||^2
    except IndexError:
        norm = state.norm()  # an unnormalized state is reported before a bad qubit
        if abs(norm - 1.0) <= 1e-9:
            raise
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    return w_even, w_odd


def run_moments(config: GateConfig) -> tuple[float, float]:
    """(p_success, mean_attempts) of one repeat-until-success run, exactly.

    With R = max_recycles and v = p_recycle, a run averages
    (1 - v**(R+1)) / (1 - v) photons and succeeds with probability p_unit
    times that; for a perfect detector and eta_in = 1 this is the capped
    efficiency eta_H (1 - eta_V**(R+1)) / (1 - eta_V).  These are the laws
    ``sample_runs`` draws from.
    """
    p_unit, p_recycle, _ = config._law
    mean_attempts = _mean_attempts(p_recycle, config.max_recycles + 1)
    return (0.0 if p_recycle >= 1.0 else p_unit * mean_attempts), mean_attempts


def _mean_attempts(v: float, cap: int) -> float:
    """Mean photons of a run capped at ``cap`` attempts, each recycling
    with probability v: 1 + v + ... + v**(cap - 1)."""
    if v >= 1.0:
        return float(cap)
    # written to stay accurate for v close to one
    return 1.0 if v == 0.0 else -math.expm1(cap * math.log(v)) / (1.0 - v)


def sample_runs(config: GateConfig, n: int, rng: np.random.Generator) -> GateRuns:
    """Outcomes and photon counts of n independent repeat-until-success runs.

    Every gate error is heralded and a recycle click leaves the register
    untouched, so how a run ends and how many photons it takes do not
    depend on the register: this draws them without one.  It reads one
    uniform per attempt and splits it at the same thresholds as
    ``run_gate``, and gives back the draws past the end of the n-th run,
    so with dephasing off it yields run for run what n ``run_gate`` calls
    would and leaves ``rng`` in the same state, for any bit generator.
    Dephasing flips phases only: it changes no outcome, and this draws
    nothing for it.

    Uniforms are drawn in blocks sized from ``run_moments``' mean photon
    count.  When n + 3 sqrt(n) runs are expected to need at most 2**13
    uniforms, the first block holds that many runs' worth, so a small
    request almost always costs one block.  Otherwise the first holds a
    little less than n runs need.  Each later block holds a little more
    than the runs left need, and none more than max(runs left, 2**16).
    Giving the unused draws back restores the generator to where it stood
    before the last block and draws again only what the runs used of that
    block, which the sizing keeps small.
    """
    p_unit, p_recycle, _ = config._law
    cap = config.max_recycles + 1
    mean_attempts = _mean_attempts(p_recycle, cap)
    outcome = np.empty(n, dtype=np.int8)
    attempts = np.empty(n, dtype=np.int64)
    done = spent = 0  # runs finished; recycles already spent by the open run
    # in runs: 3 standard deviations of n runs' photon total, or more, as a
    # run's spread stays below its mean
    margin = 3.0 * math.sqrt(n)
    wanted = n + margin  # runs the next block aims at
    if n > margin and wanted * mean_attempts > _ONE_BLOCK:
        wanted = n - margin  # undershoot, so the replay of the last block stays small
    while done < n:
        block = min(max(math.ceil(wanted * mean_attempts), 1), max(n - done, _MAX_BLOCK))
        saved, first = rng.bit_generator.state, done
        u = rng.random(block)
        # each uniform is compared once; everything after works per run
        clicks = np.flatnonzero((u < p_unit) | (u >= p_unit + p_recycle))
        ends = u[clicks] >= p_unit  # as an outcome code: SUCCESS is 0, LOSS 1
        # each click ends a run of (recycles since the last click) + 1
        # photons, the first one counting those spent before this block ...
        steps = clicks.copy()
        steps[1:] -= clicks[:-1]
        steps[:1] += spent + 1
        if clicks.size and steps.max() > cap:
            # ... unless the cap comes first: every cap-many recycles in a
            # row end a CAP run, and the click's own run gets the rest
            capped = (steps - 1) // cap
            at = np.cumsum(capped + 1) - 1
            codes = np.full(at[-1] + 1, _CAP, dtype=np.int8)
            codes[at] = ends
            photons = np.full(at[-1] + 1, cap, dtype=np.int64)
            photons[at] = steps - capped * cap
            ends, steps = codes, photons
        take = min(steps.size, n - done)
        outcome[done:done + take] = ends[:take]
        attempts[done:done + take] = steps[:take]
        done += take
        # the recycles after the last click: whole CAP runs, then the open run
        tail = block - 1 - int(clicks[-1]) if clicks.size else spent + block
        take = min(tail // cap, n - done)
        outcome[done:done + take] = _CAP
        attempts[done:done + take] = cap
        done += take
        if done == n:  # give back the draws past the end of run n
            used = int(attempts[first:].sum()) - spent
            if used < block:
                rng.bit_generator.state = saved
                rng.random(used)
        spent = tail % cap
        wanted = (n - done) + 3.0 * math.sqrt(n - done)
    return GateRuns(outcome, attempts)


def _apply_dephasing(state: StateVector, qubits, p: float,
                     rng: Optional[np.random.Generator]) -> StateVector:
    # Z flip with probability p/2 per spin; draws nothing when p == 0 so
    # transcripts are unchanged by a disabled channel.
    if p == 0.0:
        return state
    if rng is None:
        raise ValueError("dephasing requires a random generator")
    for q in qubits:
        if rng.random() < p / 2:
            state = apply_1q(state, q, "Z")
    return state


def run_gate(config: GateConfig, state: StateVector, q1: int, q2: int,
             rng: Optional[np.random.Generator] = None,
             force: Optional[GateOutcome] = None) -> GateResult:
    """Repeat-until-success gate on qubits (q1, q2) of the register.

    Samples a detector outcome per attempt: success projects and returns,
    a recycle click leaves the register untouched (dephasing channel
    aside) and retries up to ``max_recycles`` times, photon loss aborts
    with FAILURE and the unprojected register.  The dephasing channel is
    applied once per attempt, including the successful one.

    ``force`` is a test hook that deterministically selects one heralded
    branch (one attempt, no sampling); ``rng`` may then be omitted unless
    dephasing is enabled.
    """
    if force is not None:
        if force is GateOutcome.FAILURE:
            return GateResult(GateOutcome.FAILURE, 1, state)
        projected, _ = project_parity(state, q1, q2, force.parity)
        projected = _apply_dephasing(projected, (q1, q2), config.dephasing_per_attempt, rng)
        return GateResult(force, 1, projected)

    if rng is None:
        raise ValueError("rng is required unless the outcome is forced")
    w_even, w_odd = _checked_weights(state, q1, q2)
    p_unit, p_recycle, _ = config._law
    # single_shot_distribution's thresholds, the same on every attempt: a
    # recycle leaves the register untouched and Z errors change phases
    # only, so the parity weights cannot move until a projection ends the loop
    even = p_unit * w_even
    success = even + p_unit * w_odd
    kept = success + p_recycle
    p = config.dephasing_per_attempt
    current = state
    for attempts in range(1, int(config.max_recycles) + 2):  # int: no int64 overflow
        u = rng.random()
        if u < success:
            outcome, weight = ((GateOutcome.EVEN, w_even) if u < even
                               else (GateOutcome.ODD, w_odd))
            projected, _ = _project_parity(current, q1, q2, outcome.parity, weight)
            return GateResult(outcome, attempts,
                              _apply_dephasing(projected, (q1, q2), p, rng))
        if u >= kept:
            return GateResult(GateOutcome.FAILURE, attempts, current)
        # recycle: register provably unchanged, retry
        current = _apply_dephasing(current, (q1, q2), p, rng)
    return GateResult(GateOutcome.FAILURE, attempts, current)
