"""spingate benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload sweep_mc --seed 1 --seconds 20 --trace 0

Run from the repository root (any working directory works; paths are
resolved from this file).  The library is imported from ``src/`` next to
this directory, never from an installed copy.

A run measures set-up time in fresh interpreters, runs one untimed
warm-up pass, then repeats passes over the workload's jobs until
``--seconds`` have elapsed.  Every time is reported twice: as measured
(``*_raw_s``) and scaled to a reference machine speed (the metrics
``BENCHMARK.json`` names), see ``calibrate``.  Every job of every pass is checked (see
``workloads``); a job that raises, exits nonzero or fails a check counts
as failed.  With ``--trace 0`` no pass is wrapped and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced passes
alternate, the per-layer metrics come from the traced ones and the
tracing overhead is the difference of the two median pass times.

Every metric is printed as ``name value unit`` with a note; the last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A manifest (seed, commit, versions, machine,
inputs, every metric) and the spans of the last traced pass are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
TAIL_BEYOND = 10
# the two halves of calibrate() take this long at the reference speed,
# about the faster of the speeds the development machine switches between
CAL_REF_S = (0.0045, 0.0052)
CAL_EVERY_S = 0.1

# (name, unit, better) -- BENCHMARK.json lists the same metrics
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("cavity.calls", "count", "lower"),
    ("cavity.self_s", "s", "lower"),
    ("cavity.points", "count", "lower"),
    ("qstate.calls", "count", "lower"),
    ("qstate.self_s", "s", "lower"),
    ("qstate.us_per_call", "us", "lower"),
    ("qstate.amps_touched", "amp_computed", "lower"),
    ("qstate.bytes_computed", "B_computed", "lower"),
    ("qstate.max_qubits", "qubits", "lower"),
    ("gate.run_calls", "count", "lower"),
    ("gate.self_s", "s", "lower"),
    ("gate.us_per_run", "us", "lower"),
    ("gate.attempts", "count", "lower"),
    ("gate.success_ratio", "ratio", "higher"),
    ("gate.failures", "count", "lower"),
    ("gate.failures_at_cap", "count", "lower"),
    ("pulse.calls", "count", "lower"),
    ("pulse.self_s", "s", "lower"),
    ("pulse.grid_points", "count", "lower"),
    ("pulse.ms_per_call", "ms", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("cluster.gate_ops", "count", "lower"),
    ("cluster.photons", "count", "lower"),
    ("cluster.useful_ratio", "ratio", "higher"),
    ("cluster.fidelity_s", "s", "lower"),
    ("sweep.rows", "count", "higher"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.row_ms", "ms", "lower"),
    ("sweep.mc_trials", "count", "higher"),
    ("sweep.flagged_rows", "count", "higher"),
    ("sweep.cap_biased_rows", "count", "lower"),
    ("cli.invocations", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("cli.bytes_out", "B", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_mc", "sweep_pulse", "factory", "cluster_verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the inputs, print 'ready', exit")
    return parser.parse_args(argv)


def _child_args(args):
    return (["--workload", args.workload, "--seed", str(args.seed)]
            + (["--tiny"] if args.tiny else []))


def calibrate():
    """How much slower the machine runs now than at the reference speed.

    The machine this benchmark was developed on switches, for seconds at a
    time, between speeds up to 1.7x apart, and interpreter-bound code
    slows more than vector arithmetic does.  That moved the median pass
    time of identical work by 30 % between runs.  This times two fixed
    computations that never touch spingate, one interpreter-bound
    (small-array calls) and one vector-bound (a 2 MiB array), and returns
    the mean of their slowdowns.  Times measured between two calibrations
    are divided by the mean of the two slowdowns.
    """
    small = np.arange(16.0)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(6000):
        acc += float(np.dot(small, small))
    middle = time.perf_counter()
    big = np.linspace(0.0, 1.0, 1 << 17) + 0j
    for _ in range(8):
        acc += float(np.abs(big * (1 + 1j) - 0.5).sum())
    end = time.perf_counter()
    return ((middle - start) / CAL_REF_S[0] + (end - middle) / CAL_REF_S[1]) / 2


def _speed(before, after):
    return 2.0 / (before + after)


def measure_setup(args):
    """Seconds from launching a fresh interpreter until it has imported
    spingate and built the inputs: (scaled median, raw median, raw times)."""
    raw, scaled = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    for _ in range(SETUP_RUNS):
        before = calibrate()
        start = time.perf_counter()
        with subprocess.Popen(command + _child_args(args), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        raw.append(elapsed)
        scaled.append(elapsed * _speed(before, calibrate()))
    return statistics.median(scaled), statistics.median(raw), raw


def run_pass(jobs, api, run_job, pass_index, tracer=None):
    """(raw job times, scaled job times, outcomes) of one pass.

    A calibration runs before the first job and after any job that ends
    CAL_EVERY_S or more after the last one; the jobs in between are scaled
    by the mean of the two calibrations around them.
    """
    clock = time.perf_counter
    raw, scaled, outcomes = [], [], []
    before, since = calibrate(), clock()
    for index, job in enumerate(jobs):
        t0 = clock()
        if tracer is None:
            outcome = run_job(job, api, pass_index)
        else:
            outcome = tracer.run_job(index, run_job, job, api, pass_index)
        raw.append(clock() - t0)
        outcomes.append(outcome)
        if clock() - since >= CAL_EVERY_S or index == len(jobs) - 1:
            after = calibrate()
            speed = _speed(before, after)
            scaled += [t * speed for t in raw[len(scaled):]]
            before, since = after, clock()
    return raw, scaled, outcomes


def tail(times):
    """(value, percentile, jobs beyond): the job time with exactly
    TAIL_BEYOND slower jobs, i.e. the highest percentile that has at least
    that many jobs beyond it; never below the median in short runs."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


class Run:
    """The passes of one run, their checks, and everything measured."""

    def __init__(self, jobs, api):
        import workloads
        from tracing import Tracer
        self.jobs, self.api = jobs, api
        self._workloads, self._tracer_cls = workloads, Tracer
        self.passes = 0
        self.first = None                           # outcomes of the warm-up pass
        self.samples = [[] for _ in jobs]           # outputs for the pooled checks
        self.attempted = [0] * len(jobs)
        self.failed_runs = [0] * len(jobs)
        self.pooled_failed = set()
        self.problems = {}                          # job index -> check failures
        self.errors = {}                            # job index -> first error
        self.cap_biased_rows = 0
        self.walls = {False: [], True: []}         # scaled pass times
        self.raw_walls = []                         # untraced, as measured
        self.job_times, self.raw_job_times = [], []
        self.times_by_job = [[] for _ in jobs]
        self.facts = {}
        self.totals, self.counts = {}, {}
        self.peak_rss_mb = None                     # read before the pooled checks

    @property
    def failed(self):
        return sum(self.attempted[i] if i in self.pooled_failed else self.failed_runs[i]
                   for i in range(len(self.jobs)))

    def _pass(self, tracer=None):
        result = run_pass(self.jobs, self.api, self._workloads.run_job, self.passes, tracer)
        self._check(result[2])
        self.passes += 1
        return result

    def _note(self, index, problems):
        known = self.problems.setdefault(index, [])
        known += [p for p in problems if p not in known][:5 - len(known)]

    def _check(self, outcomes):
        if self.first is None:
            self.first = outcomes
        for index, (job, outcome) in enumerate(zip(self.jobs, outcomes)):
            self.attempted[index] += 1
            if outcome.error is not None:
                self.errors.setdefault(index, outcome.error)
                self.failed_runs[index] += 1
                continue
            problems = self._workloads.check_each(job, outcome.output,
                                                  self.first[index].output)
            if problems:
                self._note(index, problems)
                self.failed_runs[index] += 1
            if self.passes < self._workloads.CHECK_PASSES:
                self.samples[index].append(outcome.output)

    def finish_checks(self):
        """Run the pooled checks once, on the first passes' outputs.  They
        run after the peak memory is read (see ``measure``): their
        transforms are the benchmark's work, not the library's."""
        counts = [[] for _ in self.jobs]
        for index, job in enumerate(self.jobs):
            if self.samples[index]:
                problems, biased, counts[index] = self._workloads.check_pooled(
                    job, self.samples[index])
                self.cap_biased_rows += biased
                if problems:
                    self._note(index, problems)
                    self.pooled_failed.add(index)
        for indexes, problem in self._workloads.check_workload(counts):
            self._note(indexes[0], [problem])
            self.pooled_failed.update(indexes)

    def warm_up(self):
        self._pass()

    def measure(self, seconds, trace, spans_path):
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(self.walls[False]) > len(self.walls[True])
            tracer = self._tracer_cls(self.api) if traced else None
            try:
                raw, times, outcomes = self._pass(tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
            self.walls[traced].append(sum(times))
            if traced:
                self._fold_trace(tracer, outcomes, spans_path, sum(times) / sum(raw))
            else:
                self.raw_walls.append(sum(raw))
                self.job_times += times
                self.raw_job_times += raw
                for index, elapsed in enumerate(times):
                    self.times_by_job[index].append(elapsed)
                for outcome in outcomes:
                    for key, value in outcome.facts.items():
                        self.facts[key] = self.facts.get(key, 0) + value
            if time.perf_counter() >= deadline and (not trace or self.walls[True]):
                break
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.finish_checks()

    def _fold_trace(self, tracer, outcomes, spans_path, speed):
        totals, arrays = tracer.drain()
        np.savez(spans_path, **arrays)
        for key, value in totals.items():
            if key.endswith((".self_s", ".s")):     # the times among the totals
                value *= speed
            self.totals[key] = self.totals.get(key, 0.0) + value
        for key, value in tracer.counts.items():
            if key == "qstate.max_qubits":
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value
        for outcome in outcomes:
            for key in ("bytes_out", "useful_ops"):
                self.counts[key] = self.counts.get(key, 0) + outcome.facts.get(key, 0)

    # --- metrics ---------------------------------------------------------------

    def end_to_end(self, setup_s, setup_raw_s):
        walls = self.walls[False]
        value, p, beyond = tail(self.job_times)
        busy = sum(self.raw_walls)
        rates = {name: self.facts.get(key, 0) / busy for name, key in (
            ("rows_per_s", "rows"), ("gate_runs_per_s", "gate_runs"),
            ("trials_per_s", "trials"), ("chains_per_s", "chains"))}
        metrics = {
            "setup_s": (setup_s, f"median of {SETUP_RUNS} fresh interpreters"),
            "wall_s": (statistics.median(walls), f"median of {len(walls)} untraced passes "
                       f"of {len(self.jobs)} jobs"),
            "job_p50_s": (statistics.median(self.job_times),
                          f"median of {len(self.job_times)} jobs"),
            "job_tail_s": (value, f"p{p:.4g} of {len(self.job_times)} jobs, "
                           f"{beyond} beyond it"),
            "peak_rss_mb": (self.peak_rss_mb, "peak resident set of this process "
                            "before the pooled checks"),
        }
        extra = {name: (rate, "1/s", "per measured second of untraced passes")
                 for name, rate in rates.items() if rate}
        extra.update({
            "setup_raw_s": (setup_raw_s, "s", "setup_s as measured"),
            "wall_raw_s": (statistics.median(self.raw_walls), "s", "wall_s as measured"),
            "job_p50_raw_s": (statistics.median(self.raw_job_times), "s",
                              "job_p50_s as measured"),
            "job_tail_raw_s": (tail(self.raw_job_times)[0], "s", "job_tail_s as measured"),
            "speed": (busy and sum(self.job_times) / busy, "ratio",
                      "scaled / measured time of untraced passes"),
        })
        attempted = sum(self.attempted)
        extra["failed_frac"] = (self.failed / attempted, "ratio",
                                f"{self.failed} of {attempted} jobs failed")
        return metrics, extra

    def per_layer(self):
        t, c, passes = self.totals, self.counts, len(self.walls[True])

        def total(*names, suffix):
            return sum(t.get(f"{name}.{suffix}", 0.0) for name in names)

        def ratio(num, den):
            return num / den if den else 0.0

        runs = ("spingate.sweep:run_gate", "spingate.cluster:run_gate")
        run_calls = total(*runs, suffix="n")
        pulse_calls = total("spingate.sweep:pulse_etas", suffix="n")
        rows = c.get("sweep.rows", 0)
        amps = c.get("qstate.amps", 0)
        per_pass = {
            "cavity.calls": t.get("cavity.calls", 0.0),
            "cavity.self_s": t.get("cavity.self_s", 0.0),
            "cavity.points": c.get("cavity.points", 0),
            "qstate.calls": t.get("qstate.calls", 0.0),
            "qstate.self_s": t.get("qstate.self_s", 0.0),
            "qstate.amps_touched": amps,
            "qstate.bytes_computed": amps * 16,        # complex128 amplitudes
            "gate.run_calls": run_calls,
            "gate.self_s": t.get("gate.self_s", 0.0),
            "gate.attempts": c.get("gate.attempts", 0),
            "gate.failures": c.get("gate.failures", 0),
            "gate.failures_at_cap": c.get("gate.failures_at_cap", 0),
            "pulse.calls": t.get("pulse.calls", 0.0),
            "pulse.self_s": t.get("pulse.self_s", 0.0),
            "pulse.grid_points": c.get("pulse.grid_points", 0),
            "cluster.self_s": t.get("cluster.self_s", 0.0),
            "cluster.gate_ops": c.get("cluster.gate_ops", 0),
            "cluster.photons": c.get("cluster.photons", 0),
            "cluster.fidelity_s": total("bench:chain_fidelity", suffix="s"),
            "sweep.rows": rows,
            "sweep.self_s": t.get("sweep.self_s", 0.0),
            "sweep.mc_trials": c.get("sweep.mc_trials", 0),
            "sweep.flagged_rows": c.get("sweep.flagged_rows", 0),
            "cli.invocations": t.get("cli.calls", 0.0),
            "cli.self_s": t.get("cli.self_s", 0.0),
            "cli.nonzero_exits": c.get("cli.nonzero_exits", 0),
            "cli.bytes_out": c.get("bytes_out", 0),
            "trace.spans": t.get("spans", 0.0),
        }
        metrics = {name: (value / passes, "per traced pass") for name, value in per_pass.items()}
        metrics.update({
            "qstate.us_per_call": (1e6 * ratio(t.get("qstate.self_s", 0.0),
                                               t.get("qstate.calls", 0.0)),
                                   "qstate self time / qstate.calls"),
            "qstate.max_qubits": (c.get("qstate.max_qubits", 0), "largest register touched"),
            "gate.us_per_run": (1e6 * ratio(total(*runs, suffix="s"), run_calls),
                                "run_gate time incl. children / gate.run_calls"),
            "gate.success_ratio": (ratio(c.get("gate.successes", 0), run_calls),
                                   "heralded successes / gate.run_calls"),
            "pulse.ms_per_call": (1e3 * ratio(total("spingate.sweep:pulse_etas", suffix="s"),
                                              pulse_calls),
                                  "pulse_etas time incl. children / pulse.calls"),
            "cluster.useful_ratio": (ratio(c.get("useful_ops", 0), c.get("cluster.gate_ops", 0)),
                                     "sum(target - 1) / cluster.gate_ops"),
            "sweep.row_ms": (1e3 * ratio(total("spingate.sweep:compute_row", suffix="s"), rows),
                             "compute_row time incl. children / sweep.rows"),
            "sweep.cap_biased_rows": (self.cap_biased_rows,
                                      "rows > 3 sigma from the uncapped eta_S, per pass"),
            "trace.overhead_s": (self.tracing_overhead(),
                                 "median traced pass - median untraced pass"),
        })
        return metrics

    def tracing_overhead(self):
        if not self.walls[True]:
            return None
        return statistics.median(self.walls[True]) - statistics.median(self.walls[False])


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spingate" / "__init__.py").is_file():
        print(f"perfbench: no spingate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spingate
    if Path(spingate.__file__).resolve().parent != SRC / "spingate":
        print(f"perfbench: imported spingate from {spingate.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, library_api

    jobs = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_s, setup_raw_s, setup_times = measure_setup(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    run = Run(jobs, library_api())
    run.warm_up()
    run.measure(args.seconds, bool(args.trace), OUT / f"spans-{stem}.npz")

    end_to_end, extra = run.end_to_end(setup_s, setup_raw_s)
    per_layer = run.per_layer() if args.trace else {}
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.walls[False])}+{len(run.walls[True])} traced")
    for name, (value, note) in list(end_to_end.items()) + list(per_layer.items()):
        print(f"{name:<24} {value if value is not None else float('nan'):>14.6g} "
              f"{units[name]:<13} {note}")
    for name, (value, unit, note) in extra.items():
        print(f"{name:<24} {value:>14.6g} {unit:<13} {note}")
    for index, message in sorted(run.errors.items()):
        print(f"# job {index} failed: {message}")
    for index, problems in sorted(run.problems.items()):
        for problem in problems:
            print(f"# job {index} check failed: {problem}")

    reported = per_layer if args.trace else end_to_end
    result = {
        "correct": not run.problems,
        "attempted": sum(run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": reported[name][0], "unit": units[name]}
                    for name in reported},
    }
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "git_commit": git_commit(), "python": sys.version.split()[0],
        "numpy": np.__version__, "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "tracing_overhead_s": run.tracing_overhead(),
        "setup_times_s": setup_times,
        "pass_walls_s": {"untraced": run.walls[False], "traced": run.walls[True],
                         "untraced_raw": run.raw_walls},
        "job_median_s": [statistics.median(t) for t in run.times_by_job],
        "metrics": {name: {"value": v, "unit": units[name], "note": note}
                    for name, (v, note) in {**end_to_end, **per_layer}.items()},
        "derived": {name: {"value": v, "unit": unit, "note": note}
                    for name, (v, unit, note) in extra.items()},
        "errors": run.errors, "problems": run.problems,
        "inputs": [{"kind": job.kind, **job.params} for job in jobs],
        "result": result,
    }
    (OUT / f"manifest-{stem}-trace{args.trace}.json").write_text(
        json.dumps(manifest, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
