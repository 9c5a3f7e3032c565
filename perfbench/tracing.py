"""Layer spans recorded from outside the library.

The library binds names with from-imports, so each module that calls into
another layer holds its own reference: ``spingate.sweep.run_gate`` and
``spingate.cluster.run_gate`` are separate lookup sites.  ``Tracer``
replaces the reference at every site in ``SITES`` with a wrapper that
records a span (name, start, end, parent, job id) and updates the site's
counters, and puts the originals back on ``remove``.  Spans stay in
memory until the pass ends; ``drain`` folds them into per-layer totals and
hands back the raw arrays for writing out.

Self time is a span's duration minus the time its direct children cover.
A layer's ``calls`` are its spans whose parent belongs to another layer.
"""

from __future__ import annotations

import collections
import importlib
import time

import numpy as np

LAYERS = ("bench", "cli", "sweep", "pulse", "cluster", "gate", "qstate", "cavity")


def _register_qubits(values):
    n = 0
    for v in values:
        if isinstance(v, tuple):
            n = max(n, _register_qubits(v))
        elif hasattr(v, "amps") and hasattr(v, "n"):
            n = max(n, v.n)
    return n


def _count_qstate(counts, args, result):
    # tensor's result is larger than either input; split's input is larger
    # than either output, so take the largest register on either side
    n = max(_register_qubits(args), _register_qubits((result,)))
    counts["qstate.amps"] += 2 ** n
    counts["qstate.max_qubits"] = max(counts["qstate.max_qubits"], n)


def _count_gate_run(counts, args, result):
    config = args[0]
    counts["gate.attempts"] += result.attempts
    if result.outcome.value == "failure":
        counts["gate.failures"] += 1
        # a loss on the last allowed attempt also ends at R + 1 photons
        counts["gate.failures_at_cap"] += result.attempts == config.max_recycles + 1
    else:
        counts["gate.successes"] += 1


def _count_cluster_gate_run(counts, args, result):
    _count_gate_run(counts, args, result)
    counts["cluster.gate_ops"] += 1
    counts["cluster.photons"] += result.attempts


def _count_row(counts, args, result):
    spec = args[0]
    counts["sweep.rows"] += 1
    if {"mc_eta_S", "mean_attempts"} & set(spec.outputs):
        counts["sweep.mc_trials"] += spec.fixed.trials
    counts["sweep.flagged_rows"] += bool(result["flag"])


def _count_pulse(counts, args, result):
    spec = args[1]
    counts["pulse.grid_points"] += spec.n_points + spec.n_points // 2


def _count_pair_points(counts, args, result):
    counts["cavity.points"] += 2


def _count_spectrum_points(counts, args, result):
    counts["cavity.points"] += np.size(args[1])


def _count_exit(counts, args, result):
    counts["cli.nonzero_exits"] += result != 0


# (lookup site, attribute, layer, counter).  "bench" is the benchmark's own
# namespace of library entry points; every other site is a library module.
SITES = (
    ("bench", "main", "cli", _count_exit),
    ("bench", "simulate_factory", "cluster", None),
    ("bench", "new_chain", "cluster", None),
    ("bench", "add_fresh", "cluster", None),
    ("bench", "grow_chain", "cluster", None),
    ("bench", "connect_chains", "cluster", None),
    ("bench", "chain_fidelity", "cluster", None),
    ("bench", "split", "qstate", _count_qstate),
    ("spingate.cli", "run_sweep", "sweep", None),
    ("spingate.cli", "emit", "sweep", None),
    ("spingate.sweep", "compute_row", "sweep", _count_row),
    ("spingate.sweep", "reflection_pair", "cavity", _count_pair_points),
    ("spingate.sweep", "analytic_etas", "gate", None),
    ("spingate.sweep", "run_gate", "gate", _count_gate_run),
    ("spingate.sweep", "pulse_etas", "pulse", _count_pulse),
    ("spingate.sweep", "tensor", "qstate", _count_qstate),
    ("spingate.pulse", "reflection_spectrum", "cavity", _count_spectrum_points),
    ("spingate.gate", "apply_1q", "qstate", _count_qstate),
    ("spingate.gate", "parity_weights", "qstate", _count_qstate),
    ("spingate.gate", "project_parity", "qstate", _count_qstate),
    ("spingate.cluster", "run_gate", "gate", _count_cluster_gate_run),
    ("spingate.cluster", "apply_1q", "qstate", _count_qstate),
    ("spingate.cluster", "collapse_z", "qstate", _count_qstate),
    ("spingate.cluster", "measure_z", "qstate", _count_qstate),
    ("spingate.cluster", "permute", "qstate", _count_qstate),
    ("spingate.cluster", "split", "qstate", _count_qstate),
    ("spingate.cluster", "subsystem_fidelity", "qstate", _count_qstate),
    ("spingate.cluster", "tensor", "qstate", _count_qstate),
)


class Tracer:
    """Wraps the lookup sites and records spans until removed."""

    def __init__(self, bench_namespace):
        self.job = -1
        self.counts = collections.Counter()
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._spans = ([], [], [], [], [])  # name, start, end, parent, job
        self._stack = [-1]
        self._patched = []
        for site, attr, layer, counter in SITES:
            holder = bench_namespace if site == "bench" else importlib.import_module(site)
            original = getattr(holder, attr)
            setattr(holder, attr, self._wrap(original, f"{site}:{attr}", layer, counter))
            self._patched.append((holder, attr, original))
        self._job = self._wrap(lambda fn, *args: fn(*args), "bench:job", "bench", None)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, name, layer, counter):
        name_id = self._name_id(name, layer)
        names, starts, ends, parents, jobs = self._spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job: int, fn, *args):
        """Run one job under a root span that tags every span inside it."""
        self.job = job
        try:
            return self._job(fn, *args)
        finally:
            self.job = -1

    def drain(self) -> tuple[dict, dict]:
        """Per-layer totals of the spans so far, plus the raw span arrays.

        Clears the spans; counters keep accumulating.
        """
        name, start, end, parent, job = (np.array(a) for a in self._spans)
        for a in self._spans:
            a.clear()
        arrays = {"name": name.astype(np.int32), "start": start.astype(float),
                  "end": end.astype(float), "parent": parent.astype(np.int64),
                  "job": job.astype(np.int32), "names": np.array(self.names),
                  "layers": np.array(LAYERS)}
        if name.size == 0:
            return {}, arrays
        duration = arrays["end"] - arrays["start"]
        parent = arrays["parent"]
        has_parent = parent >= 0
        covered = np.zeros(name.size)
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        layer = np.asarray(self.name_layer)[arrays["name"]]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        totals = {"spans": float(name.size)}
        for i, layer_name in enumerate(LAYERS):
            mine = layer == i
            totals[f"{layer_name}.self_s"] = float(self_time[mine].sum())
            totals[f"{layer_name}.calls"] = float(np.count_nonzero(mine & (parent_layer != i)))
        for i, span_name in enumerate(self.names):
            mine = arrays["name"] == i
            totals[f"{span_name}.n"] = float(np.count_nonzero(mine))
            totals[f"{span_name}.s"] = float(duration[mine].sum())
        return totals, arrays

