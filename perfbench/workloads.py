"""The four benchmark workloads: inputs from a seed, job runners, checks.

Each workload is a closed loop over a fixed list of jobs; the next job
starts when the previous one returns.  A job is one in-process CLI
invocation (the sweeps), one ``simulate_factory`` call (factory) or one
verified chain (cluster_verify).

Inputs depend only on the seed and the pass number.  The sweeps repeat
identical invocations in every pass, so each pass must print what the
first one printed.  The factory and chain jobs draw fresh outcomes in
every pass from a generator keyed by (seed, job, pass): the work a pass
does is random, and taking medians over passes with independent draws
keeps one unlucky draw from setting a run's figures.

Checks come in two kinds.  ``check_each`` runs on every job of every pass
and tests what must hold exactly.  ``check_pooled`` runs once per job on
the outputs of the first ``CHECK_PASSES`` passes and holds the
statistical checks (exact tails, see ``oracles``), so the set of outputs
they see depends on the seed alone, not on how many passes fit in the run.

The library is reached only through ``library_api()`` (the benchmark's
own lookup site for entry points, which the tracer wraps) and through the
library's own module-level references.
"""

from __future__ import annotations

import collections
import contextlib
import io
import math
import types
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import oracles
from spingate import cli, cluster, qstate
from spingate.cavity import ReflectionPair
from spingate.gate import GateConfig

MAX_RECYCLES = 50
CHECK_PASSES = 3
HALF = math.sqrt(0.5)
# (cooperativity, kappa_ratio, gamma, detuning): the C = 1 cavity of the
# factory, and a strongly coupled cavity for the chains.  Its 0.915
# success rate keeps the random number of operations per chain steady
# enough to time, while failures still leave stale spins behind.
CAVITY_C1 = (1.0, 13.0, 0.1, 0.0)
CAVITY_C10 = (10.0, 50.0, 0.1, 0.0)


def library_api():
    """The entry points the benchmark calls, looked up through one object."""
    return types.SimpleNamespace(
        main=cli.main, simulate_factory=cluster.simulate_factory,
        new_chain=cluster.new_chain, add_fresh=cluster.add_fresh,
        grow_chain=cluster.grow_chain, connect_chains=cluster.connect_chains,
        chain_fidelity=cluster.chain_fidelity, split=qstate.split)


@dataclass(frozen=True)
class Job:
    kind: str                 # "sweep", "factory" or "chain"
    params: dict              # JSON-serialisable description of the input
    args: tuple = ()          # library objects built from params at set-up


@dataclass
class Outcome:
    error: Optional[str]      # the job raised or exited nonzero
    output: object            # compared across passes
    facts: collections.Counter = field(default_factory=collections.Counter)


# --- sweeps ---------------------------------------------------------------------

_BASELINE = {"cooperativity": 0.25, "kappa_ratio": 13.0, "gamma": 0.1, "detuning": 0.0,
             "eta_in": 1.0, "detector_efficiency": 1.0, "dephasing": 0.0,
             "max_recycles": MAX_RECYCLES, "bandwidth": 0.1, "trials": 10_000}
_FLAGS = {"cooperativity": "--c", "kappa_ratio": "--kappa-ratio", "gamma": "--gamma",
          "detuning": "--detuning", "eta_in": "--eta-in",
          "detector_efficiency": "--detector-eff", "dephasing": "--dephasing",
          "max_recycles": "--max-recycles", "trials": "--trials"}
MC_OUTPUTS = "eta_S,mc_eta_S,mean_attempts"
PULSE_OUTPUTS = "eta_H,eta_V,eta_S,pulse_eta_S"


def _sweep_job(axis, grid, outputs, seed, **fixed):
    params = dict(_BASELINE, axis=axis, grid=[float(g) for g in grid],
                  outputs=outputs, seed=seed)
    params.update(fixed)
    argv = ["--axis", axis, "--grid", ",".join(repr(float(g)) for g in grid),
            "--outputs", outputs, "--seed", str(seed), "--format", "csv", "--out", "-"]
    for key, flag in _FLAGS.items():
        argv += [flag, repr(params[key])]
    params["argv"] = argv
    return Job("sweep", params)


def build_sweep_mc(seed, tiny=False):
    trials = 20 if tiny else 1200
    configs = [
        # detuning 0-4 at C = 1; from detuning 2 up, max_recycles = 50
        # truncates the recycling that the analytic eta_S assumes
        ("detuning", (0.0, 0.5, 1.0, 1.5), {"cooperativity": 1.0}),
        ("detuning", (2.0, 2.5, 3.0, 3.5, 4.0), {"cooperativity": 1.0}),
        ("cooperativity", (0.1, 0.25, 0.5), {}),
        ("cooperativity", (1.0, 2.0, 4.0), {}),
        ("kappa_ratio", (5.0, 13.0, 30.0), {"detector_efficiency": 0.8}),
        ("cooperativity", (0.25, 1.0, 4.0), {"dephasing": 0.05}),
        ("detuning", (0.25, 0.75), {"cooperativity": 1.0, "detector_efficiency": 0.9,
                                    "dephasing": 0.02}),
        ("eta_in", (0.6, 0.8, 1.0), {"cooperativity": 1.0}),
        # reproduces a ModelDomainError that exits 2: a known defect that
        # must stay visible as a failed job
        ("eta_in", (0.5, 0.9, 1.0), {"cooperativity": 1.0, "detuning": 3.0}),
    ]
    if tiny:
        configs = configs[:1] + configs[-1:]
    return [_sweep_job(axis, grid, MC_OUTPUTS, (seed * 7919 + j) % 2 ** 31,
                       trials=trials, **fixed)
            for j, (axis, grid, fixed) in enumerate(configs)]


def _log_uniform_grid(rng, lo, hi, count):
    while True:
        grid = sorted(float(f"{10 ** rng.uniform(math.log10(lo), math.log10(hi)):.4g}")
                      for _ in range(count))
        if len(set(grid)) == count:
            return grid


def build_sweep_pulse(seed, tiny=False):
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for c in (0.25, 1.0):
        for detuning in (0.0, 0.1):
            jobs.append((c, detuning, _log_uniform_grid(rng, 0.01, 0.1, 2)))
            jobs.append((c, detuning, _log_uniform_grid(rng, 0.1, 1.0, 3)))
    jobs.append((1.0, 0.1, _log_uniform_grid(rng, 0.01, 1.0, 4)))
    if tiny:
        jobs = jobs[:2]
    return [_sweep_job("bandwidth", grid, PULSE_OUTPUTS, seed, cooperativity=c,
                       detuning=detuning)
            for c, detuning, grid in jobs]


def _run_sweep(job, api, pass_index):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.main(job.params["argv"])
    text = out.getvalue()
    facts = collections.Counter(bytes_out=len(text.encode()))
    if code != 0:
        return Outcome(f"exit {code}: {err.getvalue().strip()}", (code, text), facts)
    rows = text.count("\n") - 1
    facts["rows"] = rows
    if "mc_eta_S" in job.params["outputs"]:
        facts["gate_runs"] = rows * job.params["trials"]
    return Outcome(None, text, facts)


def _parse_rows(text):
    lines = [line.split(",") for line in text.splitlines()]
    header = lines[0]
    return [dict(zip(header, cells)) for cells in lines[1:]]


def check_sweep(params, text):
    """(problems, cap-biased row count, Monte Carlo counts) for one sweep's
    CSV output; each count is also checked on its own."""
    problems, cap_biased, counts = [], 0, []
    for row in _parse_rows(text):
        found, biased, row_counts = _check_row(params, row)
        found += [oracles.check_counts([count]) for count in row_counts]
        problems += [f"{row['axis']}={row['value']}: {x}" for x in found if x]
        cap_biased += biased
        counts += row_counts
    return problems, cap_biased, counts


def _check_row(params, row):
    p = dict(params)
    p[row["axis"]] = float(row["value"])
    physics = (p["cooperativity"], p["kappa_ratio"], p["gamma"], p["detuning"])
    found, biased, counted = [], False, []    # counted: (Count or None, problem)
    trials, cap = p["trials"], p["max_recycles"]
    if row.get("mc_eta_S") or row.get("mean_attempts"):
        try:
            p_success, p_recycle = oracles.single_shot(
                *physics, p["eta_in"], p["detector_efficiency"])
        except ValueError:
            return ["Monte Carlo printed outside the model's domain"], False, []
        if row.get("mc_eta_S"):
            reference = oracles.capped_success(p_success, p_recycle, cap)
            counted.append(oracles.success_count(float(row["mc_eta_S"]), trials, reference))
            if row.get("eta_S"):
                # the analytic column assumes unbounded recycling
                error = abs(float(row["mc_eta_S"]) - float(row["eta_S"]))
                biased = error > 3 * float(row["mc_stderr"])
        if row.get("mean_attempts"):
            counted.append(oracles.attempts_count(float(row["mean_attempts"]), trials,
                                                  p_recycle, cap))
    if row.get("pulse_eta_S"):
        reference = oracles.pulse_eta_s(*physics, p["bandwidth"])
        found.append(oracles.check_close(
            float(row["pulse_eta_S"]), reference, oracles.PULSE_ATOL, "pulse_eta_S"))
    found += [problem for _, problem in counted]
    return found, biased, [count for count, _ in counted if count]


# --- factory --------------------------------------------------------------------

def _pair(name):
    if name == "half":      # eta_H = eta_S = 1/2 exactly, no recycling
        return -HALF, HALF
    if name in ("cavity_c1", "cavity_c10"):
        physics = CAVITY_C1 if name == "cavity_c1" else CAVITY_C10
        return tuple(complex(oracles.reflection(*physics, 0.0, coupled))
                     for coupled in (False, True))
    if name == "ideal":
        return -1.0, 1.0
    raise ValueError(name)


def _config(pair_name):
    r0, r1 = _pair(pair_name)
    return GateConfig(pair=ReflectionPair.from_coefficients(r0, r1),
                      max_recycles=MAX_RECYCLES)


def build_factory(seed, tiny=False):
    targets = (4,) if tiny else (4, 5, 6, 7, 8)
    trials = 2 if tiny else 32
    jobs = []
    for pair_name in ("half", "cavity_c1", "ideal"):
        config = _config(pair_name)
        for strategy in cluster.GrowthStrategy:
            for target in targets:
                rng_key = [seed, len(jobs)]
                params = {"pair": pair_name, "strategy": strategy.value, "target": target,
                          "trials": trials, "rng": rng_key}
                jobs.append(Job("factory", params, (config, strategy)))
    return jobs


def _run_factory(job, api, pass_index):
    config, strategy = job.args
    p = job.params
    stats = api.simulate_factory(p["target"], config, strategy,
                                 np.random.default_rng(p["rng"] + [pass_index]), p["trials"])
    facts = collections.Counter(trials=stats.trials, gate_runs=int(stats.gate_ops.sum()),
                                useful_ops=stats.trials * (p["target"] - 1))
    return Outcome(None, (stats.gate_ops.tolist(), stats.photons.tolist()), facts)


def check_factory_counts(params, gate_ops, photons):
    """Per-trial bounds: a chain of L spins takes at least L - 1 gate
    operations and each operation at least one photon."""
    problems = []
    if len(gate_ops) != params["trials"] or len(photons) != params["trials"]:
        problems.append(f"{len(gate_ops)} trials reported, {params['trials']} asked for")
    if min(gate_ops) < params["target"] - 1:
        problems.append(f"a trial used {min(gate_ops)} gate ops for length {params['target']}")
    if any(ph < ops for ops, ph in zip(gate_ops, photons)):
        problems.append("a trial used fewer photons than gate operations")
    return problems


def check_factory(params, gate_ops, photons):
    """(problems, counts): pooled gate operations and photons, each against
    its exact law, whose mean is the copied oracle's."""
    r0, r1 = _pair(params["pair"])
    target, strategy = params["target"], params["strategy"]
    p_op, attempts_per_op = oracles.gate_op_moments(r0, r1, MAX_RECYCLES)
    pairwise = strategy == cluster.GrowthStrategy.PAIRWISE.value
    expected = (oracles.pairwise_expected_ops if pairwise
                else oracles.sequential_expected_ops)(target, p_op)
    counts = [
        oracles.Count(f"{strategy} {what}", int(sum(observed)),
                      oracles.factory_pgf(target, pairwise, *oracles.op_reward_pmfs(
                          r0, r1, MAX_RECYCLES, photons_counted)),
                      len(observed), mean)
        for what, observed, mean, photons_counted in (
            ("gate ops", gate_ops, expected, False),
            ("photons", photons, expected * attempts_per_op, True))]
    problems = [oracles.check_counts([count]) for count in counts]
    return [x for x in problems if x], counts


# --- cluster chains -------------------------------------------------------------

def build_cluster_verify(seed, tiny=False):
    config = _config("cavity_c10")
    lengths = (5, 6) if tiny else (10, 11, 12, 13, 14)
    jobs = []
    for length in lengths:
        for end in ("m1", "1n"):
            params = {"length": length, "end": end, "rng": [seed, len(jobs)]}
            jobs.append(Job("chain", params, (config,)))
    return jobs


def _compact(api, chain):
    """Drop measured and stale spins: the register keeps only the chain."""
    sub, _ = api.split(chain.register, chain.labels)
    return cluster.ChainState(sub, tuple(range(chain.length)))


def _grow(api, chain, length, config, rng, facts):
    while chain.length < length:
        if chain.length == 0:
            chain = api.new_chain()
            continue
        if chain.register.n == qstate.MAX_QUBITS:
            chain = _compact(api, chain)
        extended, fresh = api.add_fresh(chain)
        chain = api.grow_chain(extended, fresh, config, rng).chain
        facts["gate_runs"] += 1
    return chain


def _run_chain(job, api, pass_index):
    """Grow a chain to length - 1 with sampled outcomes, then join one spin
    at an end: (m, 1) appends it, (1, n) prepends it.  A failed join damages
    the chain, which is regrown before the next try."""
    (config,) = job.args
    p = job.params
    rng = np.random.default_rng(p["rng"] + [pass_index])
    facts = collections.Counter(chains=1, useful_ops=p["length"] - 1)
    verified = []
    chain = _grow(api, api.new_chain(), p["length"] - 1, config, rng, facts)
    verified.append((chain.length, api.chain_fidelity(chain)))
    while True:
        if chain.register.n == qstate.MAX_QUBITS:
            chain = _compact(api, chain)
        single = api.new_chain()
        pair = (chain, single) if p["end"] == "m1" else (single, chain)
        joined = api.connect_chains(*pair, config, rng)
        facts["gate_runs"] += 1
        if joined.chain is not None:
            break
        damaged = joined.parts[0] if p["end"] == "m1" else joined.parts[1]
        chain = _grow(api, damaged, p["length"] - 1, config, rng, facts)
    verified.append((joined.chain.length, api.chain_fidelity(joined.chain)))
    return Outcome(None, verified, facts)


def check_chain(params, verified):
    problems = [oracles.check_fidelity(f, f"length-{n} chain") for n, f in verified]
    if verified[-1][0] != params["length"]:
        problems.append(f"final chain has length {verified[-1][0]}, not {params['length']}")
    return [x for x in problems if x]


# --- dispatch -------------------------------------------------------------------

_RUNNERS = {"sweep": _run_sweep, "factory": _run_factory, "chain": _run_chain}


def run_job(job, api, pass_index):
    """Run one job; an exception is the job's failure, not the benchmark's."""
    try:
        return _RUNNERS[job.kind](job, api, pass_index)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        return Outcome(f"{type(exc).__name__}: {exc}", None)


def check_each(job, output, first_output):
    """Exact checks on one output; ``first_output`` is the same job's
    output in the first pass."""
    if job.kind == "sweep":
        return [] if output == first_output else ["output differs from the first pass"]
    if job.kind == "factory":
        return check_factory_counts(job.params, *output)
    return check_chain(job.params, output)


def check_pooled(job, outputs):
    """(problems, cap-biased rows, counts) over the first passes' outputs
    of a job; ``check_workload`` checks the counts of all jobs together."""
    if job.kind == "sweep":
        return check_sweep(job.params, outputs[0])
    if job.kind == "factory":
        gate_ops = [n for ops, _ in outputs for n in ops]
        photons = [n for _, ph in outputs for n in ph]
        problems, counts = check_factory(job.params, gate_ops, photons)
        return problems, 0, counts
    return [], 0, []


def check_workload(counts_by_job):
    """[(job indexes, problem)]: the counts of each kind, summed over all
    jobs of a run, against the sum of their laws.  A bias too small to
    show in one job adds up over many."""
    groups = collections.defaultdict(list)
    for index, counts in enumerate(counts_by_job):
        for count in counts:
            groups[count.what].append((index, count))
    found = []
    for members in groups.values():
        problem = len(members) > 1 and oracles.check_counts([c for _, c in members])
        if problem:
            found.append((sorted({index for index, _ in members}), f"all jobs: {problem}"))
    return found


WORKLOADS = {
    "sweep_mc": build_sweep_mc,
    "sweep_pulse": build_sweep_pulse,
    "factory": build_factory,
    "cluster_verify": build_cluster_verify,
}
