"""Cluster growth and connection against dense-vector oracles.

Two independent oracles are used: ``canonical_cluster`` checks every
linear-cluster postcondition, and an explicit graph-state expansion pins
down the star-junction states that interior connections produce.  The
factory statistics are checked against a small Markov-chain expectation
computed from the exact per-operation success probability.
"""

import itertools
import math

import numpy as np
import pytest

import spingate.cluster
from spingate.cavity import CavityParams, ReflectionPair, reflection_pair
from spingate.cluster import (MAX_FACTORY_TARGET, ChainState, ConnectResult, GrowResult,
                              GrowthStrategy, _drop, _pairwise_plan, _plan, _walk_table,
                              add_fresh, canonical_cluster, chain_fidelity, connect_chains,
                              expected_gate_ops, grow_chain, new_chain, simulate_factory)
from spingate.gate import (GateConfig, GateOutcome, ModelDomainError, RunOutcome,
                           analytic_etas, run_gate, run_moments, sample_runs)
from spingate.qstate import (EntangledCutError, SpinOutcome, StateVector, _apply_xh, apply_1q,
                             collapse_z, fidelity, measure_z, split, subsystem_fidelity,
                             tensor)

IDEAL = GateConfig(pair=ReflectionPair.ideal())
EVEN, ODD, FAILURE = GateOutcome.EVEN, GateOutcome.ODD, GateOutcome.FAILURE


def build_chain(length, branch=EVEN):
    chain = new_chain()
    while chain.length < length:
        extended, fresh = add_fresh(chain)
        chain = grow_chain(extended, fresh, IDEAL, force=branch).chain
    return chain


def graph_state(n, edges):
    """Direct expansion of the graph state for an explicit edge list."""
    amps = np.empty(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        amps[idx] = (-1.0) ** sum(bits[a] & bits[b] for a, b in edges)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestCanonicalCluster:
    def test_single_spin(self):
        np.testing.assert_allclose(canonical_cluster(1).amps,
                                   np.array([1, 1]) / math.sqrt(2), atol=1e-15)

    def test_two_spins(self):
        np.testing.assert_allclose(canonical_cluster(2).amps,
                                   np.array([1, 1, 1, -1]) / 2, atol=1e-15)

    def test_three_spin_stabilizers(self):
        state = canonical_cluster(3)
        stabilizers = [[(0, "X"), (1, "Z")],
                       [(0, "Z"), (1, "X"), (2, "Z")],
                       [(1, "Z"), (2, "X")]]
        for ops in stabilizers:
            acted = state
            for qubit, gate in ops:
                acted = apply_1q(acted, qubit, gate)
            # +1 eigenstate: same vector, not merely the same ray
            assert np.vdot(state.amps, acted.amps) == pytest.approx(1.0, abs=1e-12)

    def test_matches_path_graph_state(self):
        for n in (2, 4, 6):
            path = graph_state(n, [(i, i + 1) for i in range(n - 1)])
            assert fidelity(canonical_cluster(n), path) == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        with pytest.raises(ValueError):
            canonical_cluster(0)
        with pytest.raises(ValueError):
            canonical_cluster(17)


def bit_matrix_cluster(n):
    """The bit-matrix expansion canonical_cluster used before its XOR fold."""
    idx = np.arange(2 ** n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    adjacent = np.sum(bits[:, :-1] & bits[:, 1:], axis=1)
    amps = np.where(adjacent % 2 == 0, 1.0, -1.0) / 2 ** (n / 2)
    return amps.astype(complex)


@pytest.mark.parametrize("n", range(1, 17))
def test_canonical_cluster_matches_bit_matrix_expansion(n):
    assert np.array_equal(canonical_cluster(n).amps, bit_matrix_cluster(n))


class TestGrow:
    @pytest.mark.parametrize("branch", [EVEN, ODD])
    def test_single_step_from_one_spin(self, branch):
        extended, fresh = add_fresh(new_chain())
        result = grow_chain(extended, fresh, IDEAL, force=branch)
        assert result.chain.length == 2
        assert chain_fidelity(result.chain) == pytest.approx(1.0, abs=1e-10)

    def test_odd_branch_from_length_three(self):
        extended, fresh = add_fresh(build_chain(3))
        result = grow_chain(extended, fresh, IDEAL, force=ODD)
        assert chain_fidelity(result.chain) == pytest.approx(1.0, abs=1e-10)
        assert subsystem_fidelity(result.chain.register, result.chain.labels,
                                  canonical_cluster(4)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("length", range(1, 8))
    @pytest.mark.parametrize("branch", [EVEN, ODD])
    def test_every_success_branch_up_to_length_eight(self, length, branch):
        extended, fresh = add_fresh(build_chain(length))
        result = grow_chain(extended, fresh, IDEAL, force=branch)
        assert result.chain.length == length + 1
        assert chain_fidelity(result.chain) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("length", range(2, 8))
    @pytest.mark.parametrize("measured", [SpinOutcome.UP, SpinOutcome.DOWN])
    def test_failure_shrinks_by_one(self, length, measured):
        extended, fresh = add_fresh(build_chain(length))
        result = grow_chain(extended, fresh, IDEAL, force=FAILURE,
                            force_measure=measured)
        assert result.chain.length == length - 1
        assert chain_fidelity(result.chain) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("measured", [SpinOutcome.UP, SpinOutcome.DOWN])
    def test_failure_on_single_spin_empties_the_chain(self, measured):
        extended, fresh = add_fresh(new_chain())
        result = grow_chain(extended, fresh, IDEAL, force=FAILURE,
                            force_measure=measured)
        assert result.chain.length == 0
        assert chain_fidelity(result.chain) == 1.0

    def test_even_and_odd_heralds_agree_after_feedback(self):
        for length in (1, 2, 4):
            extended, fresh = add_fresh(build_chain(length))
            even = grow_chain(extended, fresh, IDEAL, force=EVEN).chain
            odd = grow_chain(extended, fresh, IDEAL, force=ODD).chain
            assert fidelity(even.register, odd.register) == pytest.approx(1.0, abs=1e-10)

    def test_branch_combinations_to_depth_four(self):
        outcomes = [EVEN, ODD, (FAILURE, SpinOutcome.UP), (FAILURE, SpinOutcome.DOWN)]
        for sequence in itertools.product(outcomes, repeat=4):
            chain = build_chain(3)
            register_guard = 0
            for step in sequence:
                if chain.length == 0:
                    chain = new_chain()
                extended, fresh = add_fresh(chain)
                if isinstance(step, tuple):
                    result = grow_chain(extended, fresh, IDEAL, force=step[0],
                                        force_measure=step[1])
                else:
                    result = grow_chain(extended, fresh, IDEAL, force=step)
                chain = result.chain
                register_guard += 1
                assert chain_fidelity(chain) == pytest.approx(1.0, abs=1e-10)
            assert register_guard == 4

    def test_growing_empty_chain_is_an_error(self):
        empty = ChainState(StateVector.plus(), ())
        with pytest.raises(ValueError):
            grow_chain(empty, 0, IDEAL, force=EVEN)

    def test_fresh_must_not_be_a_chain_qubit(self):
        chain = build_chain(2)
        with pytest.raises(ValueError):
            grow_chain(chain, chain.labels[-1], IDEAL, force=EVEN)


class TestFusedOddFeedback:
    """The odd herald's X-then-H feedback runs as one kernel pass."""

    def test_grow_feedback_is_x_then_h_bit_for_bit(self):
        chain = build_chain(4)
        for _ in range(6):
            extended, fresh = add_fresh(chain)
            chain = grow_chain(extended, fresh, IDEAL, force=ODD).chain
            projected = run_gate(IDEAL, extended.register, extended.labels[-1], fresh,
                                 force=ODD).state
            two = apply_1q(apply_1q(projected, fresh, "X"), fresh, "H")
            assert chain.register.amps.tobytes() == two.amps.tobytes()

    def test_forced_odd_growth_keeps_the_cluster(self):
        chain = new_chain()
        while chain.length < 13:
            extended, fresh = add_fresh(chain)
            chain = grow_chain(extended, fresh, IDEAL, force=ODD).chain
            assert chain_fidelity(chain) >= 1.0 - 1e-12

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (6, 1), (1, 6), (9, 1),
                                      (1, 9)])
    def test_forced_odd_end_connections_keep_the_cluster(self, m, n):
        # (1, n) feeds back on qubit 0, whose view has the register's longest trailing axis
        result = connect_chains(build_chain(m, ODD), build_chain(n, ODD), IDEAL, force=ODD)
        assert result.chain.length == m + n
        assert chain_fidelity(result.chain) >= 1.0 - 1e-12


class TestChainLabels:
    def test_first_label_outside_the_register_is_named(self):
        register = tensor(StateVector.plus(), StateVector.plus())
        for labels, bad in [((0, 2), 2), ((3, 1, -1), 3), ((-1, 5), -1)]:
            with pytest.raises(ValueError, match=f"label {bad} outside the register"):
                ChainState(register, labels)

    def test_duplicates_are_reported_first(self):
        with pytest.raises(ValueError, match="distinct"):
            ChainState(StateVector.plus(), (4, 4))

    def test_empty_and_full_label_sets(self):
        register = tensor(StateVector.plus(), StateVector.plus())
        assert ChainState(register, ()).length == 0
        assert ChainState(register, (1, 0)).labels == (1, 0)


class TestConnect:
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (5, 1), (1, 5),
                                      (7, 1), (1, 7)])
    @pytest.mark.parametrize("branch", [EVEN, ODD])
    def test_end_connections_form_linear_clusters(self, m, n, branch):
        result = connect_chains(build_chain(m), build_chain(n, ODD), IDEAL,
                                force=branch)
        assert result.chain is not None
        assert result.chain.length == m + n
        assert chain_fidelity(result.chain) == pytest.approx(1.0, abs=1e-10)

    def test_one_plus_one_yields_two_not_one(self):
        result = connect_chains(new_chain(), new_chain(), IDEAL, force=EVEN)
        assert result.chain.length == 2
        assert fidelity(result.chain.register, canonical_cluster(2)) == pytest.approx(
            1.0, abs=1e-10)

    def test_even_and_odd_heralds_agree_after_feedback(self):
        for m, n in [(1, 1), (3, 1), (1, 4)]:
            a, b = build_chain(m), build_chain(n)
            even = connect_chains(a, b, IDEAL, force=EVEN).chain
            odd = connect_chains(a, b, IDEAL, force=ODD).chain
            assert fidelity(even.register, odd.register) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)])
    def test_interior_connections_form_star_junctions(self, m, n):
        """Fusing two interior chain ends leaves one degree-3 vertex.

        The fused vertex keeps bonds to M_{m-1} and N_2 and gains one to
        its partner, so the result is the star-junction graph state below,
        not a linear cluster; its best fidelity to the length-(m+n) chain
        is 1/4 for any qubit ordering and any local feedback.
        """
        edges = [(i, i + 1) for i in range(m - 2)]          # M_1 .. M_{m-1}
        edges += [(m - 2, m)]                               # M_{m-1} - N_1
        edges += [(m - 1, m)]                               # M_m - N_1
        edges += [(m, m + 1)]                               # N_1 - N_2
        edges += [(m + i, m + i + 1) for i in range(1, n - 1)]
        star = graph_state(m + n, edges)
        even = connect_chains(build_chain(m), build_chain(n), IDEAL, force=EVEN)
        assert even.chain.length == m + n
        assert fidelity(even.chain.register, star) == pytest.approx(1.0, abs=1e-10)
        odd = connect_chains(build_chain(m), build_chain(n), IDEAL, force=ODD)
        twisted = apply_1q(star, m - 2, "Z")
        assert fidelity(odd.chain.register, twisted) == pytest.approx(1.0, abs=1e-10)
        # not a linear cluster: the canonical check caps at 1/4
        assert chain_fidelity(even.chain) == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (2, 4), (4, 3), (1, 3), (3, 1)])
    @pytest.mark.parametrize("measured", list(itertools.product(
        [SpinOutcome.UP, SpinOutcome.DOWN], repeat=2)))
    def test_failure_shrinks_both_ends(self, m, n, measured):
        result = connect_chains(build_chain(m), build_chain(n), IDEAL,
                                force=FAILURE, force_measure=measured)
        assert result.chain is None
        part_m, part_n = result.parts
        assert part_m.length == m - 1
        assert part_n.length == n - 1
        assert chain_fidelity(part_m) == pytest.approx(1.0, abs=1e-10)
        assert chain_fidelity(part_n) == pytest.approx(1.0, abs=1e-10)

    def test_empty_inputs_are_errors(self):
        empty = ChainState(StateVector.plus(), ())
        with pytest.raises(ValueError):
            connect_chains(empty, new_chain(), IDEAL, force=EVEN)
        with pytest.raises(ValueError):
            connect_chains(new_chain(), empty, IDEAL, force=EVEN)


def gate_op_moments(pair, max_recycles):
    """Exact per-operation success probability and expected photon count."""
    etas = analytic_etas(pair)
    s, v = etas.eta_h, etas.eta_v
    loss = 1.0 - s - v
    k = np.arange(max_recycles + 1)
    weights = v ** k
    p_success = float(s * weights.sum())
    expected_attempts = float(((s + loss) * weights * (k + 1)).sum()
                              + v ** (max_recycles + 1) * (max_recycles + 1))
    return p_success, expected_attempts


def sequential_expected_ops(target, p):
    """Markov-chain expectation: ops to walk from length 1 up to target.

    h_j is the expected number of gate operations to go from length j to
    j+1 when failure steps down one (re-preparing at zero).
    """
    h = 1.0 / p
    total = h
    for _ in range(2, target):
        h = (1.0 + (1.0 - p) * h) / p
        total += h
    return total if target > 1 else 0.0


def pairwise_expected_ops(target, p):
    """Same recursion as the pairwise strategy: build halves, connect,
    repair damaged halves by sequential growth on failure."""
    if target == 1:
        return 0.0
    left = (target + 1) // 2
    right = target // 2

    def repair_cost(length):
        if length == 1:
            return 0.0
        return sequential_expected_ops(length, p) - sequential_expected_ops(length - 1, p)

    connect_cost = (1.0 + (1.0 - p) * (repair_cost(left) + repair_cost(right))) / p
    return pairwise_expected_ops(left, p) + pairwise_expected_ops(right, p) + connect_cost


class TestFactory:
    def test_ideal_sequential_build_is_deterministic(self):
        stats = simulate_factory(5, IDEAL, GrowthStrategy.SEQUENTIAL,
                                 np.random.default_rng(0), trials=64)
        assert np.all(stats.gate_ops == 4)
        assert np.all(stats.photons == 4)

    def test_sequential_photon_count_matches_markov_oracle(self):
        pair = reflection_pair(
            CavityParams.from_cooperativity(1.0, kappa_ratio=13.0, gamma=0.1))
        config = GateConfig(pair=pair)
        p_op, attempts_per_op = gate_op_moments(pair, config.max_recycles)
        expected_ops = sequential_expected_ops(4, p_op)
        expected_photons = expected_ops * attempts_per_op
        stats = simulate_factory(4, config, GrowthStrategy.SEQUENTIAL,
                                 np.random.default_rng(1234), trials=10_000)
        stderr = stats.stderr_photons
        assert abs(stats.mean_photons - expected_photons) < 3 * stderr
        ops_stderr = math.sqrt(stats.var_gate_ops / stats.trials)
        assert abs(stats.mean_gate_ops - expected_ops) < 3 * ops_stderr

    def test_pairwise_beats_sequential_at_even_odds(self):
        half = math.sqrt(0.5)
        pair = ReflectionPair.from_coefficients(-half, half)  # eta_S = 1/2 exactly
        config = GateConfig(pair=pair)
        p_op, _ = gate_op_moments(pair, config.max_recycles)
        assert p_op == pytest.approx(0.5, abs=1e-12)
        oracle_seq = sequential_expected_ops(8, p_op)
        oracle_pair = pairwise_expected_ops(8, p_op)
        assert oracle_pair < oracle_seq
        rng = np.random.default_rng(77)
        seq = simulate_factory(8, config, GrowthStrategy.SEQUENTIAL, rng, trials=800)
        par = simulate_factory(8, config, GrowthStrategy.PAIRWISE, rng, trials=800)
        for stats, oracle in ((seq, oracle_seq), (par, oracle_pair)):
            stderr = math.sqrt(stats.var_gate_ops / stats.trials)
            assert abs(stats.mean_gate_ops - oracle) < 3 * stderr
        assert par.mean_gate_ops < seq.mean_gate_ops

    def test_seed_determinism(self):
        pair = reflection_pair(
            CavityParams.from_cooperativity(0.25, kappa_ratio=13.0, gamma=0.1))
        config = GateConfig(pair=pair)

        def run(seed):
            stats = simulate_factory(3, config, GrowthStrategy.PAIRWISE,
                                     np.random.default_rng(seed), trials=50)
            return stats.photons.tolist(), stats.gate_ops.tolist()

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_serializes_to_table(self):
        stats = simulate_factory(3, IDEAL, GrowthStrategy.SEQUENTIAL,
                                 np.random.default_rng(0), trials=16)
        table = stats.to_table()
        assert table.rows[0]["strategy"] == "sequential_growth"
        assert table.rows[0]["mean_photons"] == 2.0
        from spingate.sweep import emit_csv, parse_csv
        assert parse_csv(emit_csv(table)).rows == table.rows

    @pytest.mark.parametrize("target, trials", [(4.0, 2), (True, 2), (4, 3.0), (4, True)])
    def test_counts_must_be_integers(self, target, trials):
        with pytest.raises(ValueError, match="must be an integer"):
            simulate_factory(target, IDEAL, GrowthStrategy.SEQUENTIAL,
                             np.random.default_rng(0), trials=trials)

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            simulate_factory(0, IDEAL, GrowthStrategy.SEQUENTIAL,
                             np.random.default_rng(0), trials=1)
        with pytest.raises(ValueError):
            simulate_factory(11, IDEAL, GrowthStrategy.SEQUENTIAL,
                             np.random.default_rng(0), trials=1)
        with pytest.raises(ValueError):
            simulate_factory(2, IDEAL, GrowthStrategy.SEQUENTIAL,
                             np.random.default_rng(0), trials=0)


class TestExactExpectations:
    """The library's exact resource model against the oracles above."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.0])
    def test_expected_gate_ops_match_the_oracles(self, p):
        for target in range(1, 31):
            assert expected_gate_ops(target, p, GrowthStrategy.SEQUENTIAL) == \
                pytest.approx(sequential_expected_ops(target, p), rel=1e-12, abs=0)
            assert expected_gate_ops(target, p, GrowthStrategy.PAIRWISE) == \
                pytest.approx(pairwise_expected_ops(target, p), rel=1e-12, abs=0)

    def test_run_moments_match_the_oracle(self):
        half = math.sqrt(0.5)
        pairs = [ReflectionPair.ideal(), ReflectionPair.from_coefficients(-half, half),
                 ReflectionPair.from_coefficients(0.3, 0.9)]
        pairs += [reflection_pair(CavityParams.from_cooperativity(
            c, kappa_ratio=13.0, gamma=0.1, probe_detuning=detuning))
            for c, detuning in [(0.25, 0.0), (1.0, 0.0), (1.0, 2.0), (1.0, 4.0)]]
        for pair in pairs:
            for cap in (0, 1, 50, 200):
                moments = run_moments(GateConfig(pair=pair, max_recycles=cap))
                assert moments == pytest.approx(gate_op_moments(pair, cap), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_gate_ops(0, 0.5, GrowthStrategy.SEQUENTIAL)
        with pytest.raises(ValueError):
            expected_gate_ops(4, 0.0, GrowthStrategy.PAIRWISE)
        with pytest.raises(TypeError):
            expected_gate_ops(4, 0.5, "pairwise")


class TestFactoryCountsOnly:
    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_ideal_build_spends_one_photon_per_bond(self, strategy):
        for target in range(1, 11):
            stats = simulate_factory(target, IDEAL, strategy, np.random.default_rng(target),
                                     trials=8)
            assert np.all(stats.gate_ops == target - 1)
            assert np.all(stats.photons == target - 1)

    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_a_gate_that_never_succeeds_exhausts_the_budget(self, strategy):
        # eta_H = 0: every run recycles or loses its photon
        config = GateConfig(pair=ReflectionPair.from_coefficients(0.5, 0.5))
        with pytest.raises(RuntimeError, match="budget"):
            simulate_factory(4, config, strategy, np.random.default_rng(0), trials=1)

    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_builds_no_register(self, strategy, monkeypatch):
        import spingate.cluster
        import spingate.gate

        def forbidden(*args, **kwargs):
            raise AssertionError("the factory touched a register")

        for module, names in ((spingate.cluster, ("run_gate", "apply_1q", "collapse_z",
                                                  "measure_z", "permute", "split",
                                                  "subsystem_fidelity", "tensor")),
                              (spingate.gate, ("apply_1q", "parity_weights",
                                               "project_parity"))):
            for name in names:
                monkeypatch.setattr(module, name, forbidden)
        config = GateConfig(pair=reflection_pair(
            CavityParams.from_cooperativity(1.0, kappa_ratio=13.0, gamma=0.1)))
        stats = simulate_factory(8, config, strategy, np.random.default_rng(5), trials=50)
        assert np.all(stats.gate_ops >= 7)
        assert np.all(stats.photons >= stats.gate_ops)


# --- the batched factory walk against the per-operation walk it replaced ----------

def per_op_runs(config, n, rng):
    """(succeeded, attempts) of n gate runs drawn by one ``sample_runs`` call."""
    outcome, attempts = sample_runs(config, n, rng)
    yield from zip((outcome == RunOutcome.SUCCESS).tolist(), attempts.tolist())
    raise AssertionError("the oracle ran out of runs; draw more")


class PerOpTrial:
    """The gate operations and photons one factory trial spends, one op at a time."""

    def __init__(self, runs):
        self.runs, self.ops, self.photons = runs, 0, 0

    def succeeds(self):
        success, attempts = next(self.runs)
        self.ops += 1
        self.photons += attempts
        return success


def per_op_grow_to(length, target, trial):
    length = max(length, 1)
    while length < target:
        length = length + 1 if trial.succeeds() else max(length - 1, 1)


def per_op_build_pairwise(target, trial):
    if target > 1:
        left, right = (target + 1) // 2, target // 2
        per_op_build_pairwise(left, trial)
        per_op_build_pairwise(right, trial)
        while not trial.succeeds():
            per_op_grow_to(left - 1, left, trial)
            per_op_grow_to(right - 1, right, trial)


def per_op_factory(target, config, strategy, rng, trials):
    """(gate_ops, photons) of the per-operation walk, fed with four times
    the runs the trials are expected to read."""
    p, _ = run_moments(config)
    n = 4 * math.ceil(expected_gate_ops(target, p, strategy) * trials) + 1000
    runs = per_op_runs(config, n, rng)
    counts = np.zeros((2, trials), dtype=np.int64)
    for i in range(trials):
        trial = PerOpTrial(runs)
        if strategy is GrowthStrategy.SEQUENTIAL:
            per_op_grow_to(1, target, trial)
        else:
            per_op_build_pairwise(target, trial)
        counts[:, i] = trial.ops, trial.photons
    return counts


C1_PAIR = reflection_pair(CavityParams.from_cooperativity(1.0, kappa_ratio=13.0, gamma=0.1))
ORACLE_CONFIGS = {
    "ideal": IDEAL,
    "eta_half": GateConfig(pair=ReflectionPair.from_coefficients(-math.sqrt(0.5),
                                                                 math.sqrt(0.5))),
    "cavity_c1": GateConfig(pair=C1_PAIR),
    # per attempt: success 1/2, recycle 1/2; a run hits the cap 1/16 of the time
    "recycling_cap3": GateConfig(pair=ReflectionPair.from_coefficients(1j, 1.0),
                                 max_recycles=3),
    "eta_in_detector": GateConfig(pair=C1_PAIR, eta_in=0.9, detector_efficiency=0.8),
}


class TestBatchedWalk:
    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_counts_equal_the_per_op_walk(self, name, strategy):
        config = ORACLE_CONFIGS[name]
        for target, seed in itertools.product(range(1, 11), (3, 8, 19)):
            stats = simulate_factory(target, config, strategy, np.random.default_rng(seed),
                                     trials=16)
            gate_ops, photons = per_op_factory(target, config, strategy,
                                               np.random.default_rng(seed), 16)
            assert stats.gate_ops.dtype == stats.photons.dtype == np.int64
            np.testing.assert_array_equal(stats.gate_ops, gate_ops)
            np.testing.assert_array_equal(stats.photons, photons)

    @pytest.mark.parametrize("batch", [None, 1, 5])
    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_budget_is_exact(self, strategy, batch, monkeypatch):
        import spingate.cluster
        if batch is not None:  # refill many times within a trial
            monkeypatch.setattr(spingate.cluster, "_MAX_BATCH", batch)
        config = ORACLE_CONFIGS["eta_in_detector"]

        def run():
            return simulate_factory(6, config, strategy, np.random.default_rng(2), trials=20)

        stats = run()
        largest = int(stats.gate_ops.max())
        assert largest > int(np.median(stats.gate_ops))  # one trial stands out
        monkeypatch.setattr(spingate.cluster, "_MAX_OPS_PER_TRIAL", largest)
        np.testing.assert_array_equal(run().gate_ops, stats.gate_ops)
        monkeypatch.setattr(spingate.cluster, "_MAX_OPS_PER_TRIAL", largest - 1)
        with pytest.raises(RuntimeError, match="budget"):
            run()


def recursive_connections(target, made):
    """The connections a recursive PAIRWISE build makes, in the order it makes them."""
    if target > 1:
        left, right = (target + 1) // 2, target // 2
        recursive_connections(left, made)
        recursive_connections(right, made)
        made.append((left, right))
    return made


class TestPairwisePlan:
    def test_plan_is_the_recursive_build_flattened(self):
        for target in range(1, MAX_FACTORY_TARGET + 1):
            plan = _pairwise_plan(target)
            assert plan == recursive_connections(target, [])
            assert len(plan) == target - 1
            if target > 1:
                assert plan[-1] == (math.ceil(target / 2), target // 2)

    def test_strategy_is_checked_before_any_draw(self):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match="strategy"):
            simulate_factory(4, IDEAL, "pairwise_doubling", rng, trials=2)
        assert rng.bit_generator.state == before

    def test_plan_refuses_a_strategy_it_has_no_branch_for(self):
        with pytest.raises(TypeError, match="unknown strategy 'pairwise_doubling'"):
            _plan(4, "pairwise_doubling")

    def test_strategy_is_checked_before_any_draw_when_no_run_succeeds(self):
        # p = 0 sets no expected count, so the walk table is the first to read the plan
        config = GateConfig(pair=ReflectionPair.from_coefficients(0.5, 0.5))
        assert run_moments(config)[0] == 0.0
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match="unknown strategy 'pairwise_doubling'"):
            simulate_factory(4, config, "pairwise_doubling", rng, trials=2)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_out_of_domain_gate_raises_at_every_target(self, strategy):
        # eta_in < 1 on a strongly reflective pair: the branches sum past one
        config = GateConfig(pair=ReflectionPair.from_coefficients(1.0, 1.0), eta_in=0.5)
        for target in (1, 4):
            with pytest.raises(ModelDomainError):
                simulate_factory(target, config, strategy, np.random.default_rng(0), trials=1)


def expected_steps(table, law):
    """Expected runs from state 1 of a walk table to its end state 0, when a
    run ends with ``code`` at probability ``law[code]``.

    This solves (I - Q) t = 1 by state reduction (Grassmann, Taksar &
    Heyman): each state in turn, from the last, is folded into the states
    that lead to it, with its escape probability summed from its exits
    rather than taken as 1 - (its self-loop).  Every step adds positive
    terms, so the result keeps ~1e-15 relative even where a trial's mean
    reaches 5e8 runs (SEQUENTIAL, target 10, p = 0.1); an LU solve of the
    same system cancels there and is off by ~4e-9.
    """
    n = len(table)
    move = np.zeros((n, n))  # move[s, u]: one run from s leads to u; column 0 ends
    for state in range(1, n):
        for code, prob in law.items():
            move[state, table[state][code]] += prob
    runs = np.ones(n)  # expected runs a visit to a state spends before it moves on
    for k in range(n - 1, 1, -1):
        escape = move[k, :k].sum()  # the states past k are folded in already
        weight = move[1:k, k] / escape
        move[1:k, :k] += np.outer(weight, move[k, :k])
        runs[1:k] += weight * runs[k]
        move[1:k, k] = 0.0
    return runs[1] / move[1, 0]


class TestPlanTable:
    """The factory walk's transition table, built from the strategy's plan."""

    def test_a_sequential_grow_joins_a_single_spin(self):
        for target in range(1, MAX_FACTORY_TARGET + 1):
            assert _plan(target, GrowthStrategy.SEQUENTIAL) == [(k, 1) for k in range(1, target)]
            assert _plan(target, GrowthStrategy.PAIRWISE) == _pairwise_plan(target)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_expected_steps_to_the_end_are_the_mean(self, strategy, p):
        # LOSS and CAP split the failures unevenly: the table must not tell them apart
        law = {RunOutcome.SUCCESS: p, RunOutcome.LOSS: 0.7 * (1.0 - p),
               RunOutcome.CAP: 0.3 * (1.0 - p)}
        for target in range(1, MAX_FACTORY_TARGET + 1):
            table = _walk_table(target, strategy)
            mean = expected_steps(table, law) if target > 1 else 0.0  # one spin: no run
            assert mean == pytest.approx(expected_gate_ops(target, p, strategy),
                                         rel=1e-12, abs=0)
            if 0.0 < p < 1.0:  # every state reaches the end
                reached, grew = {0}, True
                while grew:
                    more = {s for s, row in enumerate(table) if reached & set(row)}
                    grew, reached = more > reached, reached | more
                assert reached == set(range(len(table)))

    @pytest.mark.parametrize("strategy", list(GrowthStrategy))
    def test_a_one_spin_build_reads_no_run(self, strategy):
        # the start state is the end state, so no batch is drawn
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        stats = simulate_factory(1, ORACLE_CONFIGS["cavity_c1"], strategy, rng, trials=7)
        assert stats.gate_ops.tolist() == stats.photons.tolist() == [0] * 7
        assert rng.bit_generator.state == before


# --- failures split off the spins they leave behind ------------------------------

# per run: success 0.62, loss 0.38
LOSSY = ReflectionPair.from_coefficients(-0.6, 0.95)
# per attempt: success 0.12, recycle 0.30, loss 0.58
RECYCLING = ReflectionPair.from_coefficients(0.2, 0.9)


def assert_only_chain(chain):
    """The register is the chain, labelled in order; an emptied chain keeps
    one spin, the one measured last, in a Z eigenstate."""
    assert chain.labels == tuple(range(chain.length))
    assert chain.register.n == max(chain.length, 1)
    if chain.length == 0:
        assert max(abs(chain.register.amps)) == pytest.approx(1.0, abs=1e-12)


class TestRegisterHoldsOnlyTheChain:
    @pytest.mark.parametrize("dephasing", [0.0, 0.2])
    def test_sampled_growth_to_fourteen_spins(self, dephasing):
        config = GateConfig(pair=LOSSY, dephasing_per_attempt=dephasing)
        rng = np.random.default_rng(0)  # empties the chain at least once either way
        chain, failures, emptied = new_chain(), 0, 0
        while chain.length < 14:
            extended, fresh = add_fresh(chain)
            result = grow_chain(extended, fresh, config, rng)
            failures += result.gate.outcome is FAILURE
            chain = result.chain
            assert_only_chain(chain)
            if chain.length == 0:
                chain, emptied = new_chain(), emptied + 1
            assert chain.register.n == chain.length
            if dephasing == 0.0:
                assert chain_fidelity(chain) == pytest.approx(1.0, abs=1e-10)
        assert failures >= 10 and emptied >= 1

    @pytest.mark.parametrize("length", range(1, 8))
    @pytest.mark.parametrize("measured", [SpinOutcome.UP, SpinOutcome.DOWN])
    def test_forced_grow_failure(self, length, measured):
        extended, fresh = add_fresh(build_chain(length))
        chain = grow_chain(extended, fresh, IDEAL, force=FAILURE,
                           force_measure=measured).chain
        assert_only_chain(chain)
        assert chain.length == length - 1
        if length == 1:
            assert abs(chain.register.amps[measured]) == pytest.approx(1.0, abs=1e-12)
        else:
            assert chain_fidelity(chain) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3)])
    @pytest.mark.parametrize("measured", list(itertools.product(
        [SpinOutcome.UP, SpinOutcome.DOWN], repeat=2)))
    def test_forced_connect_failure(self, m, n, measured):
        parts = connect_chains(build_chain(m), build_chain(n), IDEAL,
                               force=FAILURE, force_measure=measured).parts
        for part, length in zip(parts, (m - 1, n - 1)):
            assert_only_chain(part)
            assert part.length == length
            assert chain_fidelity(part) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("measured", [SpinOutcome.UP, SpinOutcome.DOWN])
    def test_a_callers_extra_qubit_survives_a_failed_grow(self, measured):
        extra = StateVector.single(0.6, 0.8j)
        chain = build_chain(3)
        chain = ChainState(tensor(extra, chain.register), (1, 2, 3))
        extended, fresh = add_fresh(chain)
        shrunk = grow_chain(extended, fresh, IDEAL, force=FAILURE,
                            force_measure=measured).chain
        assert shrunk.register.n == 3
        assert shrunk.labels == (1, 2)
        assert chain_fidelity(shrunk) == pytest.approx(1.0, abs=1e-10)
        assert subsystem_fidelity(shrunk.register, (0,), extra) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("measured", [SpinOutcome.UP, SpinOutcome.DOWN])
    def test_a_failed_grow_rejects_an_entangled_fresh_qubit(self, measured):
        bell = StateVector.from_amplitudes([math.sqrt(0.5), 0, 0, math.sqrt(0.5)])
        chain = build_chain(3)
        chain = ChainState(tensor(bell, chain.register), (2, 3, 4))
        with pytest.raises(EntangledCutError):
            grow_chain(chain, 0, IDEAL, force=FAILURE, force_measure=measured)

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    @pytest.mark.parametrize("measured", [SpinOutcome.UP, SpinOutcome.DOWN])
    def test_a_fresh_spin_off_the_equator_goes_to_split(self, length, measured,
                                                          monkeypatch):
        # no exact comparison shows cos|up> + sin|down> a product, so
        # _factor_out leaves it and split certifies the cut
        spin = StateVector.single(math.cos(0.3), math.sin(0.3))
        cuts = []

        def recording_split(state, part):
            cuts.append(list(part))
            sub, rest = split(state, part)
            assert fidelity(sub, spin) == pytest.approx(1.0, abs=1e-12)
            return sub, rest

        monkeypatch.setattr(spingate.cluster, "split", recording_split)
        chain = build_chain(length)
        extended = ChainState(tensor(chain.register, spin), chain.labels)
        shrunk = grow_chain(extended, length, IDEAL, force=FAILURE,
                            force_measure=measured).chain
        assert_only_chain(shrunk)
        assert shrunk.length == length - 1
        assert chain_fidelity(shrunk) == 1.0
        # the fresh qubit, one lower once the measured spin has left; a
        # length-1 chain keeps its measured spin, as nothing else would stay
        assert cuts == [[max(length - 1, 1)]]

    def test_a_failed_grow_draws_attempts_plus_one_uniforms(self):
        config = GateConfig(pair=RECYCLING)
        extended, fresh = add_fresh(build_chain(3))
        seen = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            result = grow_chain(extended, fresh, config, rng)
            if result.gate.outcome is not FAILURE:
                continue
            reference = np.random.default_rng(seed)
            reference.random(result.gate.attempts + 1)  # the runs, then the measurement
            assert rng.bit_generator.state == reference.bit_generator.state
            seen.add(min(result.gate.attempts, 2))
        assert seen == {1, 2}


class TestSharedReadOnlyStates:
    @pytest.mark.parametrize("state", [StateVector.plus(), StateVector.minus(),
                                       canonical_cluster(1), canonical_cluster(3)])
    def test_amplitudes_reject_writes(self, state):
        assert not state.amps.flags.writeable
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_each_is_built_once(self):
        assert StateVector.plus() is StateVector.plus()
        assert StateVector.minus() is StateVector.minus()
        assert canonical_cluster(5) is canonical_cluster(5)

    def test_kernels_accept_them(self):
        plus, minus = StateVector.plus(), StateVector.minus()
        np.testing.assert_allclose(tensor(plus, minus).amps,
                                   np.array([1, -1, 1, -1]) / 2, atol=1e-15)
        np.testing.assert_allclose(apply_1q(plus, 0, "H").amps, [1, 0], atol=1e-15)
        np.testing.assert_allclose(apply_1q(minus, 0, "X").amps, -minus.amps, atol=1e-15)
        np.testing.assert_allclose(apply_1q(plus, 0, "Z").amps, minus.amps, atol=1e-15)
        cluster = canonical_cluster(3)
        # X on the middle spin times Z on its neighbours stabilizes the chain
        acted = apply_1q(apply_1q(apply_1q(cluster, 0, "Z"), 1, "X"), 2, "Z")
        np.testing.assert_allclose(acted.amps, cluster.amps, atol=1e-15)
        np.testing.assert_allclose(tensor(cluster, minus).amps,
                                   np.multiply.outer(cluster.amps, minus.amps).ravel(),
                                   atol=1e-15)


# --- one chain step against a transcript of the step it was written as ------------

def transcript_measure(state, qubit, rng, forced):
    if forced is not None:
        collapsed, _ = collapse_z(state, qubit, forced)
        return forced, collapsed
    if rng is None:
        raise ValueError("rng is required unless the measurement outcome is forced")
    return measure_z(state, qubit, rng)


def transcript_grow_chain(chain, fresh, config, rng=None, *, force=None, force_measure=None):
    """``grow_chain`` with each rule written out in place, over the library kernels."""
    if chain.length == 0:
        raise ValueError("cannot grow an empty chain")
    if not 0 <= fresh < chain.register.n or fresh in chain.labels:
        raise ValueError("fresh qubit must be a non-chain register qubit")
    last = chain.labels[-1]
    result = run_gate(config, chain.register, last, fresh, rng, force=force)
    if result.outcome is GateOutcome.EVEN:
        state = apply_1q(result.state, fresh, "H")
        return GrowResult(ChainState(state, chain.labels + (fresh,)), result)
    if result.outcome is GateOutcome.ODD:
        state = _apply_xh(result.state, fresh)
        return GrowResult(ChainState(state, chain.labels + (fresh,)), result)
    outcome, state = transcript_measure(result.state, last, rng, force_measure)
    labels = chain.labels[:-1]
    if outcome is SpinOutcome.DOWN and labels:
        state = apply_1q(state, labels[-1], "Z")
    return GrowResult(_drop(state, labels, (last, fresh)), result)


def transcript_connect_chains(m_chain, n_chain, config, rng=None, *, force=None,
                              force_measure=(None, None)):
    """``connect_chains`` with each rule written out in place, over the library kernels."""
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
        target = n_first if n_chain.length == 1 else m_last
        if result.outcome is GateOutcome.ODD:
            state = _apply_xh(result.state, target)
        else:
            state = apply_1q(result.state, target, "H")
        return ConnectResult(ChainState(state, m_labels + n_labels), None, result)
    forced_m, forced_n = force_measure
    out_m, state = transcript_measure(result.state, m_last, rng, forced_m)
    if out_m is SpinOutcome.DOWN and len(m_labels) >= 2:
        state = apply_1q(state, m_labels[-2], "Z")
    out_n, state = transcript_measure(state, n_first, rng, forced_n)
    if out_n is SpinOutcome.DOWN and len(n_labels) >= 2:
        state = apply_1q(state, n_labels[1], "Z")
    m_register, n_register = split(state, tuple(range(offset)))
    part_m = _drop(m_register, m_labels[:-1], (m_last,))
    part_n = _drop(n_register, n_chain.labels[1:], (n_chain.labels[0],))
    return ConnectResult(None, (part_m, part_n), result)


def transcript_expected_gate_ops(target, p, strategy):
    """``expected_gate_ops`` with PAIRWISE as a recursion over the two halves."""
    h = [0.0]
    for _ in range(1, target):
        h.append((1.0 + (1.0 - p) * h[-1]) / p)
    if strategy is GrowthStrategy.SEQUENTIAL:
        return sum(h)

    def pairwise(n):
        if n == 1:
            return 0.0
        left, right = (n + 1) // 2, n // 2
        connect = (1.0 + (1.0 - p) * (h[left - 1] + h[right - 1])) / p
        return pairwise(left) + pairwise(right) + connect

    return pairwise(target)


def assert_same_step(result, transcript):
    assert result.gate.outcome is transcript.gate.outcome
    assert result.gate.attempts == transcript.gate.attempts
    chains = [(r.chain,) if r.chain is not None else r.parts for r in (result, transcript)]
    assert len(chains[0]) == len(chains[1])
    for got, want in zip(*chains):
        assert got.labels == want.labels
        assert got.register.n == want.register.n
        assert got.register.amps.tobytes() == want.register.amps.tobytes()


STEP_FORCES = [(EVEN, None), (ODD, None)] + [(FAILURE, m) for m in SpinOutcome]


class TestChainStepTranscript:
    @pytest.mark.parametrize("length", range(1, 9))
    @pytest.mark.parametrize("force, measured", STEP_FORCES)
    def test_forced_growth(self, length, force, measured):
        extended, fresh = add_fresh(build_chain(length, ODD))
        assert_same_step(
            grow_chain(extended, fresh, IDEAL, force=force, force_measure=measured),
            transcript_grow_chain(extended, fresh, IDEAL, force=force,
                                  force_measure=measured))

    @pytest.mark.parametrize("length", range(1, 9))
    @pytest.mark.parametrize("force, measured", STEP_FORCES)
    def test_forced_connections_at_both_ends(self, length, force, measured):
        chain = build_chain(length)
        for pair in ((chain, new_chain()), (new_chain(), chain), (chain, build_chain(3))):
            for n_measured in SpinOutcome:
                forced = (measured, n_measured)
                assert_same_step(
                    connect_chains(*pair, IDEAL, force=force, force_measure=forced),
                    transcript_connect_chains(*pair, IDEAL, force=force,
                                              force_measure=forced))

    def test_unforced_failures_without_rng_raise_the_same_error(self):
        extended, fresh = add_fresh(build_chain(3))
        message = "rng is required unless the measurement outcome is forced"
        for step in (grow_chain, transcript_grow_chain):
            with pytest.raises(ValueError, match=message):
                step(extended, fresh, IDEAL, force=FAILURE)
        for step in (connect_chains, transcript_connect_chains):
            with pytest.raises(ValueError, match=message):
                step(build_chain(2), build_chain(2), IDEAL, force=FAILURE,
                     force_measure=(SpinOutcome.DOWN, None))

    @pytest.mark.parametrize("dephasing", [0.0, 0.3])
    def test_sampled_steps_draw_the_same_numbers(self, dephasing):
        config = GateConfig(pair=LOSSY, dephasing_per_attempt=dephasing)
        rng, transcript_rng = np.random.default_rng(11), np.random.default_rng(11)
        chain, outcomes = new_chain(), set()
        for _ in range(60):
            extended, fresh = add_fresh(chain)
            result = grow_chain(extended, fresh, config, rng)
            assert_same_step(result, transcript_grow_chain(extended, fresh, config,
                                                           transcript_rng))
            outcomes.add(result.gate.outcome)
            pairs = ((result.chain, new_chain()), (new_chain(), result.chain),
                     (result.chain, result.chain))
            for pair in pairs if result.chain.length else ():
                joined = connect_chains(*pair, config, rng)
                assert_same_step(joined, transcript_connect_chains(*pair, config,
                                                                   transcript_rng))
                outcomes.add(joined.gate.outcome)
            assert rng.bit_generator.state == transcript_rng.bit_generator.state
            chain = result.chain if 0 < result.chain.length < 8 else new_chain()
        assert outcomes == {EVEN, ODD, FAILURE}

    def test_expected_gate_ops_match_the_recursion(self):
        for p in np.linspace(0.05, 1.0, 32).tolist():
            for target in range(1, 201):
                assert expected_gate_ops(target, p, GrowthStrategy.SEQUENTIAL) == \
                    transcript_expected_gate_ops(target, p, GrowthStrategy.SEQUENTIAL)
                assert expected_gate_ops(target, p, GrowthStrategy.PAIRWISE) == \
                    pytest.approx(transcript_expected_gate_ops(
                        target, p, GrowthStrategy.PAIRWISE), rel=1e-14, abs=0)


# --- failed steps slice out the spins known to be product --------------------------

def split_drop(state, labels, dead):
    """A failure's drop as ``split`` alone computes it: the reference for ``_drop``."""
    if len(dead) == state.n:
        dead = dead[1:]
    if not dead:
        return ChainState(state, labels)
    _, rest = split(state, dead)
    kept = [q for q in range(state.n) if q not in dead]
    return ChainState(rest, tuple(kept.index(q) for q in labels))


def split_grow_failure(chain, fresh, gate_state, rng, forced):
    """A failed grow's recovery over the full register, dropping by ``split``;
    also returns the measurement outcome."""
    last = chain.labels[-1]
    outcome, state = transcript_measure(gate_state, last, rng, forced)
    labels = chain.labels[:-1]
    if outcome is SpinOutcome.DOWN and labels:
        state = apply_1q(state, labels[-1], "Z")
    return split_drop(state, labels, (last, fresh)), outcome


def clone(rng):
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def assert_dropped_like_split(chain, reference, dephasing):
    assert_only_chain(chain)
    assert chain.labels == reference.labels
    assert chain.register.n == reference.register.n
    assert fidelity(chain.register, reference.register) >= 1 - 1e-14
    if dephasing == 0.0 and chain.length:
        assert chain_fidelity(chain) >= 1 - 1e-12


class TestFailuresSliceOutProductSpins:
    """A failed grow drops its measured and fresh spins without ``split``."""

    @pytest.fixture
    def no_split(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("split called for a spin known to be product")

        monkeypatch.setattr("spingate.cluster.split", refuse)

    @pytest.fixture
    def cuts(self, monkeypatch):
        """The parts ``cluster`` asks ``split`` to cut off, in order."""
        seen = []

        def counting(state, part):
            seen.append(tuple(part))
            return split(state, part)

        monkeypatch.setattr("spingate.cluster.split", counting)
        return seen

    @pytest.mark.parametrize("dephasing", [0.0, 0.3])
    def test_forced_failures_at_every_length(self, no_split, dephasing):
        # the ideal pair always succeeds, so a sampled grow adds one spin and
        # its dephasing flips
        config = GateConfig(pair=IDEAL.pair, dephasing_per_attempt=dephasing)
        rng = np.random.default_rng(17)
        chain = new_chain()
        for length in range(1, 14):
            extended, fresh = add_fresh(chain)
            for measured in SpinOutcome:
                result = grow_chain(extended, fresh, config, rng, force=FAILURE,
                                    force_measure=measured)
                reference, _ = split_grow_failure(extended, fresh, extended.register,
                                                  None, measured)
                assert result.chain.length == length - 1
                assert_dropped_like_split(result.chain, reference, dephasing)
            chain = grow_chain(extended, fresh, config, rng).chain
            assert chain.length == length + 1

    @pytest.mark.parametrize("dephasing", [0.0, 0.3])
    def test_sampled_failures_at_every_length(self, no_split, dephasing):
        # per run: success 0.81, loss 0.19
        config = GateConfig(pair=ReflectionPair.from_coefficients(-0.9, 0.9),
                            dephasing_per_attempt=dephasing)
        rng = np.random.default_rng(19)
        chain, seen = new_chain(), set()
        for _ in range(3000):
            extended, fresh = add_fresh(chain)
            twin = clone(rng)
            result = grow_chain(extended, fresh, config, rng)
            if result.gate.outcome is FAILURE:
                gate = run_gate(config, extended.register, extended.labels[-1], fresh, twin)
                assert gate.outcome is FAILURE and gate.attempts == result.gate.attempts
                reference, outcome = split_grow_failure(extended, fresh, gate.state, twin,
                                                        None)
                assert twin.bit_generator.state == rng.bit_generator.state
                assert_dropped_like_split(result.chain, reference, dephasing)
                seen.add((extended.length, outcome))
            else:
                assert_only_chain(result.chain)
            chain = result.chain
            if chain.length in (0, 14):
                chain = new_chain()
        assert seen == set(itertools.product(range(1, 14), SpinOutcome))

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (5, 1), (3, 4), (7, 7)])
    def test_a_failed_connection_splits_only_the_cut(self, m, n, cuts):
        m_chain, n_chain = build_chain(m), build_chain(n)
        for measured in itertools.product(SpinOutcome, repeat=2):
            cuts.clear()
            parts = connect_chains(m_chain, n_chain, IDEAL, force=FAILURE,
                                   force_measure=measured).parts
            assert cuts == [tuple(range(m))]
            # the same boundary measurements, dropped by split alone
            offset = m_chain.register.n
            joined = apply_1q(tensor(m_chain.register, n_chain.register), m - 1, "Z")
            _, state = transcript_measure(joined, m - 1, None, measured[0])
            if measured[0] is SpinOutcome.DOWN and m > 1:
                state = apply_1q(state, m - 2, "Z")
            _, state = transcript_measure(state, offset, None, measured[1])
            if measured[1] is SpinOutcome.DOWN and n > 1:
                state = apply_1q(state, offset + 1, "Z")
            m_register, n_register = split(state, tuple(range(offset)))
            references = (split_drop(m_register, tuple(range(m - 1)), (m - 1,)),
                          split_drop(n_register, tuple(range(1, n)), (0,)))
            for part, reference in zip(parts, references):
                assert_dropped_like_split(part, reference, 0.0)

    def test_an_entangled_fresh_qubit_still_reaches_split(self, cuts):
        bell = StateVector.from_amplitudes([math.sqrt(0.5), 0, 0, math.sqrt(0.5)])
        chain = ChainState(tensor(bell, build_chain(3).register), (2, 3, 4))
        with pytest.raises(EntangledCutError):
            grow_chain(chain, 0, IDEAL, force=FAILURE, force_measure=SpinOutcome.UP)
        assert cuts == [(0,)]


class TestFlipBeforeTheJoin:
    """``connect_chains`` applies Z to M_m before the tensor product."""

    @pytest.mark.parametrize("branch", [EVEN, ODD])
    def test_connections_equal_tensor_then_z(self, branch):
        chains = [build_chain(length, branch) for length in range(1, 8)]
        for m_chain, n_chain in itertools.product(chains, repeat=2):
            for force, measured in STEP_FORCES:
                forced = (measured, measured)
                assert_same_step(
                    connect_chains(m_chain, n_chain, IDEAL, force=force,
                                   force_measure=forced),
                    transcript_connect_chains(m_chain, n_chain, IDEAL, force=force,
                                              force_measure=forced))

    def test_the_joined_register_has_the_same_values(self):
        # negation commutes with a product up to the sign of a zero: the
        # joined amplitudes are equal, and their bits differ only where a
        # real or imaginary part is zero
        rng = np.random.default_rng(29)
        parts = np.array([0.0, -0.0, 0.5, -0.5, 0.25])
        for _ in range(300):
            registers = []
            for n in rng.integers(1, 5, size=2):
                amps = np.empty(2 ** n, dtype=complex)
                amps.real = parts[rng.integers(0, 5, size=2 ** n)]
                amps.imag = parts[rng.integers(0, 5, size=2 ** n)]
                registers.append(StateVector(int(n), amps))
            m_register, n_register = registers
            q = int(rng.integers(m_register.n))
            first = tensor(apply_1q(m_register, q, "Z"), n_register).amps.view(float)
            after = apply_1q(tensor(m_register, n_register), q, "Z").amps.view(float)
            assert np.array_equal(first, after)
            differ = np.signbit(first) != np.signbit(after)
            assert not first[differ].any()
