"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
and that each output check rejects an output measured against a
deliberately wrong reference.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

API = workloads.library_api()


def _output(job):
    outcome = workloads.run_job(job, API, 0)
    assert outcome.error is None, outcome.error
    return outcome.output


def test_benchmark_json_names_every_printed_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _ in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    table = {line.split()[0]: line.split()[2] for line in lines[:-1]
             if not line.startswith("#")}
    assert {name: table[name] for name, _, _ in expected} == \
        {name: unit for name, unit, _ in expected}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload == "sweep_mc":      # the eta_in sweep exits 2 in every pass
        assert result["failed"] >= 1
    else:
        assert result["failed"] == 0
    if trace and workload == "sweep_pulse":
        assert result["metrics"]["gate.run_calls"]["value"] == 0
        assert result["metrics"]["qstate.calls"]["value"] == 0


def _check(counted):
    """Check a (Count or None, problem) pair on its own."""
    count, problem = counted
    return problem or oracles.check_counts([count])


def _rate(rate, trials, reference):
    return _check(oracles.success_count(rate, trials, reference))


def _attempts(mean_attempts, trials, p_recycle, max_recycles):
    return _check(oracles.attempts_count(mean_attempts, trials, p_recycle, max_recycles))


def test_monte_carlo_checks_reject_a_wrong_reference():
    job = workloads._sweep_job("detuning", (0.0, 1.0), workloads.MC_OUTPUTS, 11,
                               cooperativity=1.0, trials=400)
    text = _output(job)
    assert workloads.check_sweep(job.params, text)[:2] == ([], 0)
    row = workloads._parse_rows(text)[0]
    p_success, p_recycle = oracles.single_shot(1.0, 13.0, 0.1, 0.0)
    capped = oracles.capped_success(p_success, p_recycle, workloads.MAX_RECYCLES)
    rate, attempts = float(row["mc_eta_S"]), float(row["mean_attempts"])
    assert _rate(rate, 400, capped) is None
    assert _rate(rate, 400, capped * 0.8) is not None
    assert _attempts(attempts, 400, p_recycle, workloads.MAX_RECYCLES) is None
    assert _attempts(attempts, 400, 0.1, workloads.MAX_RECYCLES) is not None
    wrong = dict(job.params, detector_efficiency=0.7)
    assert workloads.check_sweep(wrong, text)[0]


def test_count_checks_handle_rare_events():
    # with 0.1 successes expected, 1 is common and 5 is rarer than ALPHA
    assert _rate(1 / 1000, 1000, 1e-4) is None
    assert _rate(5 / 1000, 1000, 1e-4) is not None
    assert _rate(0.0, 1000, 0.0) is None
    assert _rate(1 / 1000, 1000, 0.0) is not None
    # 3 recycles where 0.34 are expected: rare, but not rarer than ALPHA
    assert _attempts(1 + 3 / 1200, 1200, 2.8255e-4, 50) is None
    assert _attempts(1 + 15 / 1200, 1200, 2.8255e-4, 50) is not None
    assert _attempts(1.5004, 1200, 0.9, 50) == \
        "mean_attempts 1.5004 is not a count over 1200 trials"


def test_exact_tails_match_the_binomial():
    def coins(heads, flips):
        return oracles.Count("heads", heads, lambda z: (1 + z) / 2, flips, 0.5)
    # Binomial(8, 1/2): P(K >= 7) = 9 / 256, two-sided twice that
    assert oracles.sum_tail([coins(7, 8)]) == pytest.approx(18 / 256)
    assert oracles.sum_tail([coins(4, 8)]) == 1.0
    assert oracles.sum_tail([coins(0, 8)]) == pytest.approx(2 / 256)
    # two counts together: 7 heads of 8 flips is what 3 of 4 and 4 of 4 give
    assert oracles.sum_tail([coins(3, 4), coins(4, 4)]) == pytest.approx(18 / 256)
    # far from its mean a count has no tail, wherever its window lies
    assert oracles.sum_tail([coins(0, 100_000)]) == 0.0
    assert oracles.sum_tail([coins(50_000, 100_000)]) == 1.0


def test_capped_attempts_are_checked_against_their_distribution():
    pmf = oracles.attempts_pmf(0.9, 50)
    k = np.arange(len(pmf))
    mean, sd = float(k @ pmf), math.sqrt(float(k * k @ pmf) - float(k @ pmf) ** 2)
    assert pmf.sum() == pytest.approx(1.0)
    assert mean == pytest.approx((1 - 0.9 ** 51) / (1 - 0.9))
    total = round(1000 * mean)
    assert _attempts(total / 1000, 1000, 0.9, 50) is None
    assert _attempts((total + round(6 * sd * math.sqrt(1000))) / 1000,
                     1000, 0.9, 50) is not None


def test_pulse_check_rejects_a_wrong_reference():
    job = workloads._sweep_job("bandwidth", (0.05,), workloads.PULSE_OUTPUTS, 1,
                               cooperativity=1.0, detuning=0.1)
    text = _output(job)
    assert workloads.check_sweep(job.params, text)[:2] == ([], 0)
    value = float(workloads._parse_rows(text)[0]["pulse_eta_S"])
    reference = oracles.pulse_eta_s(1.0, 13.0, 0.1, 0.1, 0.05)
    assert oracles.check_close(value, reference + 2e-6, oracles.PULSE_ATOL, "x") is not None
    assert workloads.check_sweep(dict(job.params, cooperativity=0.99), text)[0]


def test_sweep_repeat_check_rejects_a_changed_output():
    job = workloads.build_sweep_pulse(1, tiny=True)[0]
    assert workloads.check_each(job, "a,b\n1,2\n", "a,b\n1,2\n") == []
    assert workloads.check_each(job, "a,b\n1,2\n", "a,b\n1,3\n")


def test_cap_biased_rows_are_counted():
    job = workloads._sweep_job("detuning", (3.0, 4.0), workloads.MC_OUTPUTS, 2,
                               cooperativity=1.0, trials=200)
    problems, biased, _ = workloads.check_sweep(job.params, _output(job))
    assert problems == []
    assert biased == 2      # no successes, a zero error bar, eta_S > 0


def test_factory_checks_reject_a_wrong_reference():
    config = workloads._config("half")
    strategy = workloads.cluster.GrowthStrategy.SEQUENTIAL
    params = {"pair": "half", "strategy": strategy.value, "target": 4, "trials": 64,
              "rng": [5, 0]}
    job = workloads.Job("factory", params, (config, strategy))
    output = _output(job)
    assert workloads.check_each(job, output, output) == []
    assert workloads.check_pooled(job, [output])[:2] == ([], 0)
    wrong = workloads.Job("factory", dict(params, target=5), job.args)
    assert workloads.check_pooled(wrong, [output])[0]
    assert workloads.check_each(workloads.Job("factory", dict(params, target=9), job.args),
                                output, output)


def test_factory_distributions_reproduce_the_copied_mean_oracles():
    for name in ("half", "cavity_c1", "ideal"):
        r0, r1 = workloads._pair(name)
        p, attempts = oracles.gate_op_moments(r0, r1, workloads.MAX_RECYCLES)
        for photons in (False, True):
            rewards = oracles.op_reward_pmfs(r0, r1, workloads.MAX_RECYCLES, photons)
            for target in range(1, 9):
                for pairwise, expected in ((False, oracles.sequential_expected_ops),
                                           (True, oracles.pairwise_expected_ops)):
                    pmf = oracles.grid_pmf(oracles.factory_pgf(target, pairwise, *rewards),
                                           1 << 12)
                    assert pmf.sum() == pytest.approx(1.0)
                    assert np.arange(len(pmf)) @ pmf == pytest.approx(
                        expected(target, p) * (attempts if photons else 1.0))
    # one operation at even odds: ops to length 2 are Geometric(1/2)
    rewards = oracles.op_reward_pmfs(*workloads._pair("half"), 50, False)
    pmf = oracles.grid_pmf(oracles.factory_pgf(2, False, *rewards), 1 << 8)
    assert pmf[:4] == pytest.approx([0.0, 0.5, 0.25, 0.125])


def test_workload_check_finds_a_bias_no_single_job_shows():
    # 540 heads of 1000 fair flips is 2.5 sigma; twenty such jobs are 11
    biased = oracles.Count("successes", 540, lambda z: (1 + z) / 2, 1000, 0.5)
    assert oracles.check_counts([biased]) is None
    [(indexes, problem)] = workloads.check_workload([[biased]] * 20)
    assert indexes == list(range(20))
    assert problem.startswith("all jobs: successes 10800 over 20000 trials")
    fair = oracles.Count("successes", 500, lambda z: (1 + z) / 2, 1000, 0.5)
    assert workloads.check_workload([[fair]] * 20) == []


def test_statistical_checks_per_run_stay_within_the_budget():
    # two counts per Monte Carlo row or factory job, each checked alone,
    # and one workload check per kind of count
    mc_rows = sum(len(job.params["grid"]) for job in workloads.build_sweep_mc(1)
                  if job.params["axis"] != "eta_in" or job.params["detuning"] == 0.0)
    assert 2 * mc_rows + 2 <= oracles.MAX_CHECKS
    assert 2 * len(workloads.build_factory(1)) + 2 * 2 <= oracles.MAX_CHECKS


def test_chain_checks_reject_a_wrong_reference():
    job = workloads.build_cluster_verify(4, tiny=True)[1]
    verified = _output(job)
    assert verified[-1][0] == job.params["length"]
    assert workloads.check_chain(job.params, verified) == []
    assert workloads.check_chain(dict(job.params, length=job.params["length"] + 1),
                                 verified)
    degraded = verified[:-1] + [(verified[-1][0], 1.0 - 1e-9)]
    assert workloads.check_chain(job.params, degraded)


def test_chain_registers_reach_sixteen_qubits():
    jobs = workloads.build_cluster_verify(7)
    tracer = tracing.Tracer(API)
    try:
        for index, job in enumerate(jobs):
            tracer.run_job(index, workloads.run_job, job, API, 0)
    finally:
        tracer.remove()
    assert tracer.counts["qstate.max_qubits"] == 16
    spans = tracer.drain()[1]
    assert set(spans["job"]) == set(range(len(jobs)))
