"""Heralded gate: analytic efficiencies, outcome sampling, recycling."""

import dataclasses
import math

import numpy as np
import pytest

import spingate.gate
from spingate.cavity import CavityParams, ReflectionPair, reflection_pair
from spingate.cli import main
from spingate.gate import (DegenerateRecycleError, GateConfig, GateOutcome, GateResult,
                           ModelDomainError, OutcomeDistribution, analytic_etas, run_gate,
                           run_moments, sample_runs, single_shot_distribution)
from spingate.qstate import (StateVector, apply_1q, fidelity, parity_weights, project_parity,
                             tensor)

# eta_S for gamma/kappa = 0.1, kappa/kappa_s = 13, trion on cavity resonance;
# cross-checked against an independent 50-digit evaluation
ETA_S_QUARTER_RESONANT = 0.2549019607843137
ETA_S_UNIT_RESONANT = 0.5591397849462366
ETA_S_QUARTER_DETUNED = 0.1935393702224050
ETA_S_UNIT_DETUNED = 0.5380101647603338

PAPER_POINTS = [
    (0.25, 0.0, ETA_S_QUARTER_RESONANT, 0.255),
    (1.0, 0.0, ETA_S_UNIT_RESONANT, 0.559),
    (0.25, 0.1, ETA_S_QUARTER_DETUNED, 0.194),
    (1.0, 0.1, ETA_S_UNIT_DETUNED, 0.538),
]


def paper_pair(cooperativity, detuning):
    params = CavityParams.from_cooperativity(cooperativity, kappa_ratio=13.0,
                                             gamma=0.1, probe_detuning=detuning)
    return reflection_pair(params)


def plus_plus():
    return tensor(StateVector.plus(), StateVector.plus())


def random_product_state(rng, n=2):
    parts = []
    for _ in range(n):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        parts.append(StateVector(1, amps / np.linalg.norm(amps)))
    state = parts[0]
    for p in parts[1:]:
        state = tensor(state, p)
    return state


def random_pair(rng):
    g = 10.0 ** rng.uniform(-2, 1)
    kappa_s = 10.0 ** rng.uniform(-3, 1)
    gamma = 10.0 ** rng.uniform(-3, 1)
    params = CavityParams(omega_c=rng.uniform(-5, 5), omega_x=rng.uniform(-5, 5),
                          kappa_s=kappa_s, gamma=gamma, g=g)
    return reflection_pair(params)


class TestAnalyticEtas:
    @pytest.mark.parametrize("coop, detuning, frozen, quoted", PAPER_POINTS)
    def test_reference_operating_points(self, coop, detuning, frozen, quoted):
        etas = analytic_etas(paper_pair(coop, detuning))
        assert etas.eta_s == pytest.approx(quoted, abs=1e-3)
        assert etas.eta_s == pytest.approx(frozen, rel=1e-12)

    def test_recycling_identity_over_random_draws(self):
        rng = np.random.default_rng(100)
        for _ in range(10_000):
            pair = random_pair(rng)
            etas = analytic_etas(pair)
            assert etas.eta_s == pytest.approx(etas.eta_h / (1 - etas.eta_v),
                                               abs=1e-12)
            assert etas.eta_h + etas.eta_v <= 1 + 1e-12

    def test_ideal_pair_is_deterministic(self):
        etas = analytic_etas(ReflectionPair.ideal())
        assert etas == pytest.approx((1.0, 0.0, 1.0))

    def test_degenerate_recycle_denominator(self):
        with pytest.raises(DegenerateRecycleError):
            analytic_etas(ReflectionPair.from_coefficients(-1.0, -1.0))


class TestSingleShotDistribution:
    def test_ideal_symmetric_input(self):
        config = GateConfig(pair=ReflectionPair.ideal())
        dist = single_shot_distribution(config, plus_plus(), 0, 1)
        assert dist.p_even == pytest.approx(0.5, abs=1e-12)
        assert dist.p_odd == pytest.approx(0.5, abs=1e-12)
        assert dist.p_recycle == pytest.approx(0.0, abs=1e-12)
        assert dist.p_loss == pytest.approx(0.0, abs=1e-12)

    def test_resonance_scattering_branch_weights(self):
        config = GateConfig(pair=paper_pair(0.25, 0.0))
        dist = single_shot_distribution(config, plus_plus(), 0, 1)
        assert dist.p_success == pytest.approx(0.215561, abs=1e-5)
        assert dist.p_recycle == pytest.approx(0.154337, abs=1e-5)

    def test_fully_mismatched_input_always_recycles(self):
        config = GateConfig(pair=paper_pair(1.0, 0.0), eta_in=0.0)
        dist = single_shot_distribution(config, plus_plus(), 0, 1)
        assert dist.p_recycle == pytest.approx(1.0, abs=1e-12)
        assert dist.p_success == 0.0

    def test_success_weight_is_state_independent(self):
        rng = np.random.default_rng(55)
        config = GateConfig(pair=paper_pair(1.0, 0.1), eta_in=0.9,
                            detector_efficiency=0.8)
        expected = 0.8 * 0.9 ** 2 * abs(config.pair.d) ** 2
        for _ in range(100):
            dist = single_shot_distribution(config, random_product_state(rng), 0, 1)
            assert dist.p_success == pytest.approx(expected, abs=1e-12)

    def test_probability_conservation_random_draws(self):
        rng = np.random.default_rng(60)
        state = plus_plus()
        for _ in range(2_000):
            config = GateConfig(pair=random_pair(rng))
            dist = single_shot_distribution(config, state, 0, 1)
            total = dist.p_even + dist.p_odd + dist.p_recycle + dist.p_loss
            assert total == pytest.approx(1.0, abs=1e-12)
            for p in dist.as_array():
                assert -1e-12 <= p <= 1 + 1e-12

    def test_perfect_coupling_reduces_to_analytic_split(self):
        pair = paper_pair(0.25, 0.1)
        config = GateConfig(pair=pair)
        dist = single_shot_distribution(config, plus_plus(), 0, 1)
        etas = analytic_etas(pair)
        assert dist.p_success == pytest.approx(etas.eta_h, abs=1e-12)
        assert dist.p_recycle == pytest.approx(etas.eta_v, abs=1e-12)

    def test_mode_mismatch_domain_guard(self):
        # strongly reflective pair with aligned recycle amplitude: the
        # coherent mismatch amplitude would push the total above one
        pair = ReflectionPair.from_coefficients(0.99, 0.99)
        config = GateConfig(pair=pair, eta_in=0.7)
        with pytest.raises(ModelDomainError):
            single_shot_distribution(config, plus_plus(), 0, 1)

    def test_rejects_unnormalized_state(self):
        config = GateConfig(pair=ReflectionPair.ideal())
        bad = StateVector(1, np.array([1.0, 1.0], complex))
        with pytest.raises(ValueError):
            single_shot_distribution(config, bad, 0, 1)


    def test_rejects_unnormalized_two_qubit_state(self):
        # valid qubits, so only the normalization check can refuse it
        config = GateConfig(pair=ReflectionPair.ideal())
        bad = StateVector(2, np.full(4, 0.6, complex))
        with pytest.raises(ValueError, match="normalized"):
            single_shot_distribution(config, bad, 0, 1)

    def test_normalized_state_with_a_bad_qubit_raises_index_error(self):
        config = GateConfig(pair=ReflectionPair.ideal())
        with pytest.raises(IndexError):
            single_shot_distribution(config, plus_plus(), 0, 5)

class TestRunGate:
    def test_ideal_gate_succeeds_first_try(self):
        config = GateConfig(pair=ReflectionPair.ideal())
        rng = np.random.default_rng(1)
        for _ in range(50):
            result = run_gate(config, plus_plus(), 0, 1, rng)
            assert result.outcome in (GateOutcome.EVEN, GateOutcome.ODD)
            assert result.attempts == 1

    def test_monte_carlo_matches_analytic_total(self):
        config = GateConfig(pair=paper_pair(1.0, 0.0), max_recycles=200)
        rng = np.random.default_rng(2)
        state = plus_plus()
        trials = 20_000
        wins = sum(run_gate(config, state, 0, 1, rng).outcome is not GateOutcome.FAILURE
                   for _ in range(trials))
        sigma = math.sqrt(ETA_S_UNIT_RESONANT * (1 - ETA_S_UNIT_RESONANT) / trials)
        assert abs(wins / trials - ETA_S_UNIT_RESONANT) < 3 * sigma

    def test_conditional_state_matches_projection(self):
        rng = np.random.default_rng(3)
        config = GateConfig(pair=paper_pair(0.25, 0.0), max_recycles=100)
        state = random_product_state(rng)
        expected = {outcome: project_parity(state, 0, 1, outcome.parity)[0]
                    for outcome in (GateOutcome.EVEN, GateOutcome.ODD)}
        seen = set()
        for _ in range(400):
            result = run_gate(config, state, 0, 1, rng)
            if result.outcome is GateOutcome.FAILURE:
                continue
            seen.add(result.outcome)
            assert fidelity(result.state, expected[result.outcome]) == pytest.approx(
                1.0, abs=1e-10)
        assert seen == {GateOutcome.EVEN, GateOutcome.ODD}

    def test_projected_state_is_project_parity_bit_for_bit(self):
        # run_gate projects with the weight single_shot_distribution found
        rng = np.random.default_rng(7)
        config = GateConfig(pair=paper_pair(1.0, 0.0))
        orders = set()
        for _ in range(200):
            n = int(rng.integers(2, 9))
            q1, q2 = (int(q) for q in rng.choice(n, size=2, replace=False))
            amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            result = run_gate(config, state, q1, q2, rng)
            if result.outcome is GateOutcome.FAILURE:
                continue
            orders.add(q1 < q2)
            expected, _ = project_parity(state, q1, q2, result.outcome.parity)
            assert result.state.amps.tobytes() == expected.amps.tobytes()
        assert orders == {True, False}

    def test_fidelity_independent_of_cavity_parameters(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pair = random_pair(rng)
            config = GateConfig(pair=pair, max_recycles=300)
            state = random_product_state(rng)
            for outcome in (GateOutcome.EVEN, GateOutcome.ODD):
                expected = project_parity(state, 0, 1, outcome.parity)[0]
                result = run_gate(config, state, 0, 1, rng, force=outcome)
                assert fidelity(result.state, expected) == pytest.approx(1.0, abs=1e-10)

    def test_recycle_leaves_register_untouched(self):
        # find a seed whose transcript recycles at least once before success
        config = GateConfig(pair=paper_pair(0.25, 0.1), max_recycles=50)
        state = random_product_state(np.random.default_rng(8))
        expected = {o: project_parity(state, 0, 1, o.parity)[0]
                    for o in (GateOutcome.EVEN, GateOutcome.ODD)}
        checked = 0
        for seed in range(200):
            result = run_gate(config, state, 0, 1, np.random.default_rng(seed))
            if result.outcome is GateOutcome.FAILURE or result.attempts < 2:
                continue
            checked += 1
            assert fidelity(result.state, expected[result.outcome]) == pytest.approx(
                1.0, abs=1e-12)
        assert checked > 10

    def test_loss_returns_unprojected_register(self):
        config = GateConfig(pair=paper_pair(0.25, 0.0))
        state = plus_plus()
        rng = np.random.default_rng(7)
        failures = 0
        for _ in range(200):
            result = run_gate(config, state, 0, 1, rng)
            if result.outcome is GateOutcome.FAILURE:
                failures += 1
                np.testing.assert_array_equal(result.state.amps, state.amps)
        assert failures > 0

    def test_reruns_after_failure_are_statistically_independent(self):
        config = GateConfig(pair=paper_pair(0.25, 0.0), max_recycles=200)
        rng = np.random.default_rng(11)
        state = plus_plus()
        follow_ups = wins = 0
        previous_failed = False
        for _ in range(20_000):
            result = run_gate(config, state, 0, 1, rng)
            if previous_failed:
                follow_ups += 1
                wins += result.outcome is not GateOutcome.FAILURE
            previous_failed = result.outcome is GateOutcome.FAILURE
        rate = wins / follow_ups
        sigma = math.sqrt(ETA_S_QUARTER_RESONANT * (1 - ETA_S_QUARTER_RESONANT)
                          / follow_ups)
        assert abs(rate - ETA_S_QUARTER_RESONANT) < 3 * sigma

    def test_attempt_counts_are_seed_deterministic(self):
        config = GateConfig(pair=paper_pair(0.25, 0.1), max_recycles=50)
        state = plus_plus()

        def transcript(seed):
            rng = np.random.default_rng(seed)
            return [(run_gate(config, state, 0, 1, rng).outcome.value,
                     run_gate(config, state, 0, 1, rng).attempts)
                    for _ in range(50)]

        assert transcript(31) == transcript(31)

    def test_max_recycles_zero_forbids_retries(self):
        config = GateConfig(pair=paper_pair(0.25, 0.1), max_recycles=0)
        rng = np.random.default_rng(13)
        for _ in range(200):
            assert run_gate(config, plus_plus(), 0, 1, rng).attempts == 1

    def test_forced_branches(self):
        config = GateConfig(pair=paper_pair(1.0, 0.0))
        state = random_product_state(np.random.default_rng(17))
        for outcome in (GateOutcome.EVEN, GateOutcome.ODD):
            result = run_gate(config, state, 0, 1, force=outcome)
            assert result.outcome is outcome
            assert result.attempts == 1
            expected = project_parity(state, 0, 1, outcome.parity)[0]
            assert fidelity(result.state, expected) == pytest.approx(1.0, abs=1e-12)
        failed = run_gate(config, state, 0, 1, force=GateOutcome.FAILURE)
        assert failed.outcome is GateOutcome.FAILURE
        np.testing.assert_array_equal(failed.state.amps, state.amps)

    def test_rng_required_when_sampling(self):
        config = GateConfig(pair=ReflectionPair.ideal())
        with pytest.raises(ValueError):
            run_gate(config, plus_plus(), 0, 1)

    def test_forced_dephasing_requires_rng(self):
        config = GateConfig(pair=ReflectionPair.ideal(), dephasing_per_attempt=0.2)
        with pytest.raises(ValueError, match="dephasing requires a random generator"):
            run_gate(config, plus_plus(), 0, 1, force=GateOutcome.EVEN)

    def test_a_failed_gate_has_no_parity(self):
        with pytest.raises(ValueError, match="a failed gate has no parity"):
            GateOutcome.FAILURE.parity


class TestDephasing:
    def test_mean_heralded_fidelity_stays_high(self):
        config = GateConfig(pair=paper_pair(1.0, 0.0), dephasing_per_attempt=1e-3)
        rng = np.random.default_rng(19)
        state = plus_plus()
        expected = {o: project_parity(state, 0, 1, o.parity)[0]
                    for o in (GateOutcome.EVEN, GateOutcome.ODD)}
        fidelities = []
        while len(fidelities) < 2_000:
            result = run_gate(config, state, 0, 1, rng)
            if result.outcome is not GateOutcome.FAILURE:
                fidelities.append(fidelity(result.state, expected[result.outcome]))
        assert np.mean(fidelities) >= 0.99

    def test_disabled_channel_draws_nothing(self):
        clean = GateConfig(pair=paper_pair(1.0, 0.0))
        state = plus_plus()

        def outcomes(config, seed):
            rng = np.random.default_rng(seed)
            return [run_gate(config, state, 0, 1, rng).outcome for _ in range(100)]

        assert outcomes(clean, 5) == outcomes(clean, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GateConfig(pair=ReflectionPair.ideal(), dephasing_per_attempt=1.5)
        with pytest.raises(ValueError):
            GateConfig(pair=ReflectionPair.ideal(), eta_in=-0.1)
        with pytest.raises(ValueError):
            GateConfig(pair=ReflectionPair.ideal(), max_recycles=-1)

    @pytest.mark.parametrize("cap", [2.5, 3.0, True])
    def test_max_recycles_must_be_an_integer(self, cap):
        with pytest.raises(ValueError, match="max_recycles"):
            GateConfig(pair=ReflectionPair.ideal(), max_recycles=cap)
        assert GateConfig(pair=ReflectionPair.ideal(), max_recycles=np.int64(3)).max_recycles == 3

    @pytest.mark.parametrize("cap", [10 ** 400, 10 ** 30, 2 ** 63 - 1, np.int64(2 ** 63 - 1)])
    def test_max_recycles_plus_one_must_fit_int64(self, cap):
        with pytest.raises(ValueError, match="max_recycles"):
            GateConfig(pair=ReflectionPair.ideal(), max_recycles=cap)

    def test_largest_int64_max_recycles_runs_the_gate(self):
        config = GateConfig(pair=ReflectionPair.ideal(), max_recycles=np.int64(2 ** 63 - 2))
        result = run_gate(config, plus_plus(), 0, 1, np.random.default_rng(5))
        assert result.outcome is not GateOutcome.FAILURE and result.attempts == 1

    def test_largest_max_recycles_samples_runs(self):
        config = GateConfig(pair=paper_pair(0.25, 0.1), max_recycles=2 ** 63 - 2)
        outcome, attempts = sample_runs(config, 100, np.random.default_rng(5))
        assert len(outcome) == 100 and attempts.min() >= 1


def reference_run_gate(config, state, q1, q2, rng=None, force=None):
    """``run_gate`` as its loop read with an ``OutcomeDistribution`` rebuilt
    on every call, from the law written out here, and the thresholds summed
    on every attempt."""
    def dephase(state):
        if config.dephasing_per_attempt == 0.0:
            return state
        for q in (q1, q2):
            if rng.random() < config.dephasing_per_attempt / 2:
                state = apply_1q(state, q, "Z")
        return state

    if force is not None:
        if force is GateOutcome.FAILURE:
            return GateResult(GateOutcome.FAILURE, 1, state)
        return GateResult(force, 1, dephase(project_parity(state, q1, q2, force.parity)[0]))
    w_even, w_odd = parity_weights(state, q1, q2)
    eta_det, eta_in, pair = config.detector_efficiency, config.eta_in, config.pair
    p_unit = eta_det * eta_in ** 2 * abs(pair.d) ** 2
    p_recycle = eta_det * abs(eta_in * pair.s + math.sqrt(max(0.0, 1.0 - eta_in ** 2))) ** 2
    p_even, p_odd = p_unit * w_even, p_unit * w_odd
    dist = OutcomeDistribution(p_even, p_odd, p_recycle,
                               max(0.0, 1.0 - (p_even + p_odd + p_recycle)))
    current = state
    attempts = 0
    for _ in range(config.max_recycles + 1):
        attempts += 1
        u = rng.random()
        if u < dist.p_even:
            outcome = GateOutcome.EVEN
        elif u < dist.p_even + dist.p_odd:
            outcome = GateOutcome.ODD
        elif u < dist.p_even + dist.p_odd + dist.p_recycle:
            outcome = None
        else:
            return GateResult(GateOutcome.FAILURE, attempts, current)
        if outcome is not None:
            projected, _ = project_parity(current, q1, q2, outcome.parity)
            return GateResult(outcome, attempts, dephase(projected))
        current = dephase(current)
    return GateResult(GateOutcome.FAILURE, attempts, current)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestRunGateTranscript:
    """``run_gate`` reads the per-attempt law once per config; every
    outcome, attempt count, amplitude and generator state stays that of
    the loop that rebuilt the distribution on every call."""

    @staticmethod
    def transcript(fn, config, state, q1, q2, seed, force):
        rng = np.random.default_rng(seed)
        results = [fn(config, state, q1, q2, rng, force) for _ in range(8)]
        return ([(r.outcome, r.attempts, r.state.n, r.state.amps.tobytes()) for r in results],
                rng.bit_generator.state)

    @pytest.mark.parametrize("dephasing", [0.0, 0.3])
    @pytest.mark.parametrize("max_recycles", range(6))
    def test_matches_the_reference_loop(self, dephasing, max_recycles):
        rng = np.random.default_rng(100 + max_recycles)
        orders = {"q1 < q2": 0, "q1 > q2": 0}
        outcomes = set()
        for trial in range(12):
            pair = random_pair(rng) if trial % 3 else ReflectionPair.from_coefficients(1j, 1.0)
            eta_in = 1.0 if trial % 2 else float(rng.uniform(0.8, 1.0))
            config = GateConfig(pair=pair, eta_in=eta_in,
                                detector_efficiency=float(rng.uniform(0.7, 1.0)),
                                max_recycles=max_recycles, dephasing_per_attempt=dephasing)
            try:
                run_moments(config)
            except ModelDomainError:
                continue
            n = int(rng.integers(2, 6))
            q1, q2 = (int(q) for q in rng.choice(n, size=2, replace=False))
            orders["q1 < q2" if q1 < q2 else "q1 > q2"] += 1
            state = random_state(rng, n)
            for force in (None, GateOutcome.EVEN, GateOutcome.ODD, GateOutcome.FAILURE):
                seed = int(rng.integers(2 ** 32))
                ours = self.transcript(run_gate, config, state, q1, q2, seed, force)
                theirs = self.transcript(reference_run_gate, config, state, q1, q2, seed,
                                         force)
                assert ours == theirs
                outcomes.update(o for o, *_ in ours[0])
        assert min(orders.values()) > 0
        assert outcomes == set(GateOutcome)


def out_of_domain_config():
    """C = 1, detuning 3, eta_in = 0.5: the branches sum past one."""
    params = CavityParams.from_cooperativity(1.0, kappa_ratio=13.0, gamma=0.1,
                                             probe_detuning=3.0)
    return GateConfig(pair=reflection_pair(params), eta_in=0.5)


class TestPerAttemptLaw:
    @pytest.mark.parametrize("call", [
        lambda c: run_gate(c, plus_plus(), 0, 1, np.random.default_rng(1)),
        lambda c: sample_runs(c, 10, np.random.default_rng(1)),
        run_moments,
    ], ids=["run_gate", "sample_runs", "run_moments"])
    def test_domain_error_is_raised_on_every_call(self, call):
        config = out_of_domain_config()
        for _ in range(2):
            with pytest.raises(ModelDomainError, match="branch probabilities sum to"):
                call(config)

    def test_law_is_computed_once_per_config(self, monkeypatch):
        calls = []
        original = spingate.gate._attempt_probabilities
        monkeypatch.setattr(spingate.gate, "_attempt_probabilities",
                            lambda config: calls.append(config) or original(config))
        config = GateConfig(pair=paper_pair(1.0, 0.0))
        rng = np.random.default_rng(3)
        for _ in range(5):
            run_gate(config, plus_plus(), 0, 1, rng)
        sample_runs(config, 5, rng)
        run_moments(config)
        single_shot_distribution(config, plus_plus(), 0, 1)
        assert len(calls) == 1

    def test_replace_gets_a_law_of_its_own(self):
        config = GateConfig(pair=out_of_domain_config().pair)
        p_success, mean_attempts = run_moments(config)
        half = dataclasses.replace(config, detector_efficiency=0.5)
        assert run_moments(half)[0] < p_success
        with pytest.raises(ModelDomainError):
            run_moments(dataclasses.replace(config, eta_in=0.5))
        assert run_moments(config) == (p_success, mean_attempts)
        assert run_moments(dataclasses.replace(half, detector_efficiency=1.0)) == \
            (p_success, mean_attempts)

    def test_analytic_sweep_over_the_domain_edge_still_runs(self, capsys):
        code = main(["--axis", "eta_in", "--grid", "0.5,0.9,1.0", "--c", "1",
                     "--detuning", "3", "--outputs", "eta_S", "--out", "-"])
        assert code == 0
        assert capsys.readouterr().out == (
            "axis,value,eta_S,flag\n"
            "eta_in,0.5,0.000452162198,\n"
            "eta_in,0.9,0.000452162198,\n"
            "eta_in,1,0.000452162198,\n")
