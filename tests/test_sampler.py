"""Whole gate runs drawn from the per-attempt law, without a register.

Each statistical check compares a count over a large number of runs with
its exact truncated law (``perfbench/oracles.py``, read through ``laws``),
within 5 standard deviations, at a fixed seed; one more compares the
success count with its exact two-sided tail.
The sampler also reads the same uniforms as ``run_gate``, so it must agree
with a loop of ``run_gate`` calls run for run.
"""

import itertools
import math

import numpy as np
import pytest
from laws import assert_counts, attempts_pmf, capped_success, oracles

from spingate.cavity import CavityParams, ReflectionPair, reflection_pair
from spingate.gate import (_ONE_BLOCK, GateConfig, GateOutcome, ModelDomainError,
                           RunOutcome, analytic_etas, run_gate, run_moments, sample_runs)
from spingate.qstate import StateVector, tensor
from spingate.sweep import SweepAxis, SweepBaseline, SweepSpec, run_sweep

RUNS = 400_000
# eta_H = 0.09, eta_V = 0.36, loss 0.55: every outcome and the cap are common
MIXED = ReflectionPair.from_coefficients(0.3, 0.9)


def detuned_cavity():
    """C = 1 probed two linewidths off resonance: eta_V = 0.981, so the
    default cap of 50 recycles ends 38 % of the runs."""
    return reflection_pair(CavityParams.from_cooperativity(
        1.0, kappa_ratio=13.0, gamma=0.1, probe_detuning=2.0))


def assert_count(observed, runs, p):
    sigma = math.sqrt(runs * p * (1.0 - p))
    assert abs(observed - runs * p) <= 5 * sigma + 1e-9, (observed, runs * p, sigma)


CASES = [(MIXED, 3), (MIXED, 0), (detuned_cavity(), 50)]


class TestSampleRunsLaw:
    @pytest.mark.parametrize("pair, cap", CASES)
    def test_success_rate_is_the_capped_efficiency(self, pair, cap):
        etas = analytic_etas(pair)
        outcome, _ = sample_runs(GateConfig(pair=pair, max_recycles=cap), RUNS,
                                 np.random.default_rng(101))
        capped = capped_success(etas.eta_h, etas.eta_v, cap)
        assert_count(np.count_nonzero(outcome == RunOutcome.SUCCESS), RUNS, capped)

    @pytest.mark.parametrize("pair, cap", CASES)
    def test_attempts_follow_the_truncated_geometric_law(self, pair, cap):
        v = analytic_etas(pair).eta_v
        _, attempts = sample_runs(GateConfig(pair=pair, max_recycles=cap), RUNS,
                                  np.random.default_rng(202))
        assert attempts.min() >= 1 and attempts.max() <= cap + 1
        histogram = np.bincount(attempts, minlength=cap + 2)
        pmf = attempts_pmf(v, cap)
        for k in range(1, cap + 2):
            assert_count(histogram[k], RUNS, pmf[k])

    @pytest.mark.parametrize("pair, cap", CASES)
    def test_cap_share_is_eta_v_to_the_cap(self, pair, cap):
        v = analytic_etas(pair).eta_v
        outcome, attempts = sample_runs(GateConfig(pair=pair, max_recycles=cap), RUNS,
                                        np.random.default_rng(303))
        at_cap = outcome == RunOutcome.CAP
        assert_count(np.count_nonzero(at_cap), RUNS, v ** (cap + 1))
        assert np.all(attempts[at_cap] == cap + 1)

    def test_mode_mismatch_and_detector_enter_the_law(self):
        pair = ReflectionPair.from_coefficients(-0.9, -0.3)
        config = GateConfig(pair=pair, eta_in=0.95, detector_efficiency=0.9,
                            max_recycles=1)
        p_unit = 0.9 * 0.95 ** 2 * abs(pair.d) ** 2
        v = 0.9 * abs(0.95 * pair.s + math.sqrt(1 - 0.95 ** 2)) ** 2
        p_success, mean_attempts = run_moments(config)
        assert p_success == pytest.approx(p_unit * (1 + v), rel=1e-12)
        assert mean_attempts == pytest.approx(1 + v, rel=1e-12)
        outcome, _ = sample_runs(config, RUNS, np.random.default_rng(404))
        assert_count(np.count_nonzero(outcome == RunOutcome.SUCCESS), RUNS, p_success)
        assert_count(np.count_nonzero(outcome == RunOutcome.CAP), RUNS, v ** 2)


def successes(observed, p):
    """The success count of RUNS runs that each succeed with probability p."""
    return oracles.Count("successes", observed, lambda z: 1.0 - p + p * z, RUNS, p)


# the chance that a correct sampler fails the one exact check below
EXACT_LEVEL = 1e-6


class TestSuccessCountExactTail:
    """The detuned cavity's success count against its exact law, where the
    recycle cap ends 38 % of the runs and the capped success probability
    is 0.62 of the uncapped eta_S."""

    @pytest.fixture(scope="class")
    def etas(self):
        pair = detuned_cavity()
        return oracles.pair_etas(pair.r0, pair.r1)

    @pytest.fixture(scope="class")
    def observed(self):
        outcome, _ = sample_runs(GateConfig(pair=detuned_cavity()), RUNS,
                                 np.random.default_rng(505))
        return np.count_nonzero(outcome == RunOutcome.SUCCESS)

    def test_passes_against_the_capped_success(self, etas, observed):
        assert_counts([successes(observed, capped_success(*etas, 50))], EXACT_LEVEL)

    def test_fails_against_the_uncapped_eta_s(self, etas, observed):
        eta_h, eta_v = etas
        with pytest.raises(AssertionError, match="two-sided tail"):
            assert_counts([successes(observed, eta_h / (1.0 - eta_v))], EXACT_LEVEL)

    def test_fails_for_a_sampler_that_succeeds_with_p_unit(self, etas):
        # the mutation: a whole run succeeds with one attempt's success
        # probability, p_unit = eta_H here
        mutant = np.count_nonzero(np.random.default_rng(505).random(RUNS) < etas[0])
        with pytest.raises(AssertionError, match="two-sided tail"):
            assert_counts([successes(mutant, capped_success(*etas, 50))], EXACT_LEVEL)


class TestSampleRunsExact:
    def test_ideal_pair_always_succeeds_at_once(self):
        outcome, attempts = sample_runs(GateConfig(pair=ReflectionPair.ideal()), 10_000,
                                        np.random.default_rng(1))
        assert np.all(outcome == RunOutcome.SUCCESS)
        assert np.all(attempts == 1)

    def test_no_recycles_means_one_attempt(self):
        outcome, attempts = sample_runs(GateConfig(pair=MIXED, max_recycles=0), 10_000,
                                        np.random.default_rng(2))
        assert np.all(attempts == 1)
        assert set(np.unique(outcome)) == set(RunOutcome)

    def test_certain_recycle_caps_every_run(self):
        for config in (GateConfig(pair=detuned_cavity(), eta_in=0.0, max_recycles=7),
                       GateConfig(pair=ReflectionPair.from_coefficients(1.0, 1.0),
                                  max_recycles=7)):
            outcome, attempts = sample_runs(config, 1000, np.random.default_rng(3))
            assert np.all(outcome == RunOutcome.CAP)
            assert np.all(attempts == 8)
            assert run_moments(config) == (0.0, 8.0)

    def test_out_of_domain_configuration_raises(self):
        config = GateConfig(pair=ReflectionPair.from_coefficients(0.99, 0.99), eta_in=0.7)
        with pytest.raises(ModelDomainError):
            sample_runs(config, 10, np.random.default_rng(4))
        with pytest.raises(ModelDomainError):
            run_moments(config)

    def test_same_seed_same_arrays(self):
        config = GateConfig(pair=detuned_cavity())

        def draw(seed):
            return sample_runs(config, 5000, np.random.default_rng(seed))

        first, again, other = draw(5), draw(5), draw(6)
        assert np.array_equal(first.outcome, again.outcome)
        assert np.array_equal(first.attempts, again.attempts)
        assert not np.array_equal(first.attempts, other.attempts)

    def test_dephasing_changes_no_draw(self):
        clean = GateConfig(pair=MIXED, max_recycles=3)
        noisy = GateConfig(pair=MIXED, max_recycles=3, dephasing_per_attempt=0.5)
        a = sample_runs(clean, 5000, np.random.default_rng(7))
        b = sample_runs(noisy, 5000, np.random.default_rng(7))
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.attempts, b.attempts)


class TestSampleRunsIsRunGate:
    CONFIGS = [GateConfig(pair=MIXED, max_recycles=3), GateConfig(pair=MIXED, max_recycles=0),
               GateConfig(pair=detuned_cavity()),
               GateConfig(pair=reflection_pair(CavityParams.from_cooperativity(
                   1.0, kappa_ratio=13.0, gamma=0.1)),
                   eta_in=0.9, detector_efficiency=0.8, max_recycles=2),
               GateConfig(pair=ReflectionPair.ideal()),
               GateConfig(pair=ReflectionPair.from_coefficients(0.5, 0.5)),
               GateConfig(pair=ReflectionPair.from_coefficients(1.0, 1.0), max_recycles=7)]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_same_runs_and_generator_state(self, config):
        register = tensor(StateVector.plus(), StateVector.plus())
        for seed in range(4):
            for n in (0, 1, 7, 300):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                outcome, attempts = sample_runs(config, n, ours)
                reference = [run_gate(config, register, 0, 1, theirs) for _ in range(n)]
                assert (outcome == RunOutcome.SUCCESS).tolist() == \
                    [r.outcome is not GateOutcome.FAILURE for r in reference]
                assert attempts.tolist() == [r.attempts for r in reference]
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_sweep_columns_are_those_of_run_gate(self):
        base = SweepBaseline(cooperativity=1.0, trials=400)
        spec = SweepSpec(SweepAxis.DETUNING, (0.0, 1.0, 2.0, 4.0), base,
                         outputs=("mc_eta_S", "mean_attempts"), seed=11)
        register = tensor(StateVector.plus(), StateVector.plus())
        for index, row in enumerate(run_sweep(spec).rows):
            config = GateConfig(pair=reflection_pair(CavityParams.from_cooperativity(
                1.0, kappa_ratio=13.0, gamma=0.1, probe_detuning=spec.grid[index])))
            rng = np.random.default_rng(spec.seed ^ index)
            runs = [run_gate(config, register, 0, 1, rng) for _ in range(base.trials)]
            successes = sum(r.outcome is not GateOutcome.FAILURE for r in runs)
            assert row["mc_eta_S"] == float(format(successes / base.trials, ".9g"))
            assert row["mean_attempts"] == \
                float(format(sum(r.attempts for r in runs) / base.trials, ".9g"))


class RecordingGenerator:
    """A ``Generator`` stand-in that records the size of every draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def run_gate_loop(config, n, rng):
    register = tensor(StateVector.plus(), StateVector.plus())
    return [run_gate(config, register, 0, 1, rng) for _ in range(n)]


def assert_same_runs(runs, reference):
    outcome, attempts = runs
    assert (outcome == RunOutcome.SUCCESS).tolist() == \
        [r.outcome is not GateOutcome.FAILURE for r in reference]
    assert attempts.tolist() == [r.attempts for r in reference]


def straddles_a_block_boundary(runs, sizes):
    """Whether a CAP run begins in one drawn block and ends in a later one.

    The block boundaries are the running totals of every draw but the last,
    which is either the last block or the replay of its used part.
    """
    ends = np.cumsum(runs.attempts)
    for boundary in np.cumsum(sizes[:-1]):
        j = int(np.searchsorted(ends, boundary))
        if j < ends.size and ends[j] != boundary and runs.outcome[j] == RunOutcome.CAP:
            return True
    return False


class TestSampleRunsBlocksAreRunGate:
    """Long rows span several drawn blocks; the sampler must still equal a
    ``run_gate`` loop run for run and leave the generator where it does."""

    @pytest.mark.parametrize("n", [1200, 5000])
    @pytest.mark.parametrize("config", [
        GateConfig(pair=detuned_cavity()),
        GateConfig(pair=MIXED, max_recycles=0),
    ], ids=["detuned", "no-recycles"])
    def test_long_rows(self, config, n):
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        assert_same_runs(sample_runs(config, n, ours), run_gate_loop(config, n, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_cap_runs_that_straddle_a_block_boundary(self):
        # eta_V = 0.98 and a cap of 8 photons: most photons belong to CAP runs
        config = GateConfig(pair=ReflectionPair.from_coefficients(1.0, 0.98),
                            max_recycles=7)
        straddled = []
        for n in (1200, 5000):
            for seed in (0, 1):
                ours = RecordingGenerator(np.random.default_rng(seed))
                theirs = np.random.default_rng(seed)
                runs = sample_runs(config, n, ours)
                assert_same_runs(runs, run_gate_loop(config, n, theirs))
                assert ours.bit_generator.state == theirs.bit_generator.state
                straddled.append(straddles_a_block_boundary(runs, ours.sizes))
        assert any(straddled)  # the case this test is about did occur

    def test_any_bit_generator(self):
        config = GateConfig(pair=detuned_cavity())
        ours = np.random.Generator(np.random.MT19937(5))
        theirs = np.random.Generator(np.random.MT19937(5))
        assert_same_runs(sample_runs(config, 1200, ours), run_gate_loop(config, 1200, theirs))
        assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)
        assert ours.random() == theirs.random()


def one_block_limit(config):
    """The largest n whose n + 3 sqrt(n) runs ``sample_runs`` expects to fit
    in ``_ONE_BLOCK`` uniforms, so that it draws them in one block."""
    _, mean_attempts = run_moments(config)
    n = int(_ONE_BLOCK / mean_attempts)
    while (n + 3.0 * math.sqrt(n)) * mean_attempts > _ONE_BLOCK:
        n -= 1
    return n


class TestOneBlockRequests:
    """A small request costs one block and the replay of its used part."""

    CONFIG = GateConfig(pair=MIXED, max_recycles=3)

    def test_draw_counts_on_both_sides_of_the_limit(self):
        limit = one_block_limit(self.CONFIG)
        for n, seed in itertools.product((1, 40, 550, limit, limit + 1, 2 * limit), (0, 1)):
            ours = RecordingGenerator(np.random.default_rng(seed))
            sample_runs(self.CONFIG, n, ours)
            if n <= limit:
                assert len(ours.sizes) == 2, (n, ours.sizes)  # the block, then its replay
                assert ours.sizes[1] < ours.sizes[0]
            else:
                assert len(ours.sizes) >= 3, (n, ours.sizes)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_runs_and_state_are_those_of_run_gate(self, bit_generator):
        limit = one_block_limit(self.CONFIG)
        for n in (limit, limit + 1):
            ours = np.random.Generator(bit_generator(n))
            theirs = np.random.Generator(bit_generator(n))
            assert_same_runs(sample_runs(self.CONFIG, n, ours),
                             run_gate_loop(self.CONFIG, n, theirs))
            assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)
