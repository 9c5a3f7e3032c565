"""State-vector engine: gates, signed parity projectors, measurement."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spingate.qstate import (EntangledCutError, Parity, SpinOutcome, StateVector,
                             ZeroProbabilityError, _apply_xh, _as_matrix, _axes,
                             _factor_out, _measure_out, _project_parity, apply_1q, collapse_z,
                             fidelity, measure_z, parity_weights, permute, project_parity,
                             split, subsystem_fidelity, tensor)

SQRT_HALF = 1 / math.sqrt(2)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / np.linalg.norm(amps))


def dense_parity_matrix(n, q1, q2, outcome):
    """Brute-force signed projector as an explicit 2**n x 2**n matrix."""
    dim = 2 ** n
    mat = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        b1 = (idx >> (n - 1 - q1)) & 1
        b2 = (idx >> (n - 1 - q2)) & 1
        if outcome is Parity.EVEN and b1 == 0 and b2 == 0:
            mat[idx, idx] = 1.0
        elif outcome is Parity.EVEN and b1 == 1 and b2 == 1:
            mat[idx, idx] = -1.0
        elif outcome is Parity.ODD and b1 == 0 and b2 == 1:
            mat[idx, idx] = 1.0
        elif outcome is Parity.ODD and b1 == 1 and b2 == 0:
            mat[idx, idx] = -1.0
    return mat


class TestSingleQubitGates:
    def test_hadamard_on_up(self):
        out = apply_1q(StateVector.basis(1, 0), 0, "H")
        np.testing.assert_allclose(out.amps, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_hadamard_on_down(self):
        out = apply_1q(StateVector.basis(1, 1), 0, "H")
        np.testing.assert_allclose(out.amps, [SQRT_HALF, -SQRT_HALF], atol=1e-15)

    def test_x_flips(self):
        out = apply_1q(StateVector.basis(1, 0), 0, "X")
        np.testing.assert_allclose(out.amps, [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("gate", ["H", "X", "Z"])
    def test_involutions_on_random_states(self, gate):
        rng = np.random.default_rng(3)
        for n in (1, 3, 5):
            state = random_state(rng, n)
            q = int(rng.integers(n))
            twice = apply_1q(apply_1q(state, q, gate), q, gate)
            assert fidelity(twice, state) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 4)
        for gate in ("H", "X", "Z"):
            assert apply_1q(state, 2, gate).norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gate", ["H", "X", "Z"])
    def test_against_dense_kron_oracle(self, gate):
        mats = {"H": np.array([[1, 1], [1, -1]]) * SQRT_HALF,
                "X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1])}
        n = 4
        state = random_state(np.random.default_rng(5), n)
        for q in range(n):
            dense = np.kron(np.kron(np.eye(2 ** q), mats[gate]), np.eye(2 ** (n - q - 1)))
            np.testing.assert_allclose(apply_1q(state, q, gate).amps, dense @ state.amps,
                                       atol=1e-12)

    def test_rejects_unknown_gate_and_bad_index(self):
        state = StateVector.plus()
        with pytest.raises(ValueError):
            apply_1q(state, 0, "T")
        with pytest.raises(IndexError):
            apply_1q(state, 1, "X")


class TestParityProjection:
    def test_product_state_even_branch(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        state = StateVector(2, np.kron(a, b))
        projected, prob = project_parity(state, 0, 1, Parity.EVEN)
        expected = np.zeros(4, complex)
        expected[0b00] = a[0] * b[0]
        expected[0b11] = -a[1] * b[1]
        expected /= np.linalg.norm(expected)
        assert prob == pytest.approx(abs(a[0] * b[0]) ** 2 + abs(a[1] * b[1]) ** 2,
                                     abs=1e-12)
        assert fidelity(projected, StateVector(2, expected)) == pytest.approx(1.0, abs=1e-12)
        # the relative minus sign is physical, not a global phase
        assert np.vdot(projected.amps, expected) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_branch_is_an_error(self):
        with pytest.raises(ZeroProbabilityError):
            project_parity(StateVector.basis(2, 0b00), 0, 1, Parity.ODD)

    def test_against_dense_matrix_oracle(self):
        rng = np.random.default_rng(21)
        state = random_state(rng, 4)
        # the odd projector's sign depends on the order of the pair
        for q1, q2 in ((1, 3), (3, 1), (0, 1), (2, 0)):
            total = 0.0
            for outcome in (Parity.EVEN, Parity.ODD):
                mat = dense_parity_matrix(4, q1, q2, outcome)
                raw = mat @ state.amps
                prob_expected = float(np.vdot(raw, raw).real)
                projected, prob = project_parity(state, q1, q2, outcome)
                total += prob
                assert prob == pytest.approx(prob_expected, abs=1e-12)
                np.testing.assert_allclose(projected.amps,
                                           raw / math.sqrt(prob_expected), atol=1e-12)
            # the two branches exhaust the full parity weight
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_branches_are_orthogonal(self):
        rng = np.random.default_rng(22)
        state = random_state(rng, 3)
        even = dense_parity_matrix(3, 0, 2, Parity.EVEN) @ state.amps
        odd = dense_parity_matrix(3, 0, 2, Parity.ODD) @ state.amps
        assert abs(np.vdot(even, odd)) < 1e-12

    def test_weights_match_projection_probabilities(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 5)
        for q1, q2 in ((1, 4), (4, 1)):
            w_even, w_odd = parity_weights(state, q1, q2)
            assert w_even + w_odd == pytest.approx(1.0, abs=1e-12)
            for outcome, weight in ((Parity.EVEN, w_even), (Parity.ODD, w_odd)):
                raw = dense_parity_matrix(5, q1, q2, outcome) @ state.amps
                assert weight == pytest.approx(float(np.vdot(raw, raw).real), abs=1e-12)
                assert project_parity(state, q1, q2, outcome)[1] == pytest.approx(weight,
                                                                                  abs=1e-12)

    def test_rejects_repeated_qubit(self):
        with pytest.raises(ValueError):
            project_parity(StateVector.basis(2, 0), 1, 1, Parity.EVEN)


class TestMeasurement:
    def test_down_state_measures_down(self):
        outcome, collapsed = measure_z(StateVector.basis(1, 1), 0,
                                       np.random.default_rng(0))
        assert outcome is SpinOutcome.DOWN
        assert fidelity(collapsed, StateVector.basis(1, 1)) == 1.0

    def test_born_frequencies_on_plus_state(self):
        rng = np.random.default_rng(42)
        n_samples = 100_000
        ups = sum(measure_z(StateVector.plus(), 0, rng)[0] is SpinOutcome.UP
                  for _ in range(n_samples))
        sigma = math.sqrt(0.25 / n_samples)
        assert abs(ups / n_samples - 0.5) < 3 * sigma

    def test_cluster_collapse_leaves_plus_state(self):
        # (uu + ud + du - dd)/2, measure qubit 0 as up -> (u + d)/sqrt(2)
        cluster2 = StateVector(2, np.array([1, 1, 1, -1], complex) / 2)
        collapsed, prob = collapse_z(cluster2, 0, SpinOutcome.UP)
        assert prob == pytest.approx(0.5, abs=1e-12)
        reduced, _ = split(collapsed, [1])
        assert fidelity(reduced, StateVector.plus()) == pytest.approx(1.0, abs=1e-10)

    def test_transcripts_are_seed_deterministic(self):
        def transcript(seed):
            rng = np.random.default_rng(seed)
            state = StateVector(2, np.array([1, 1, 1, -1], complex) / 2)
            outcomes = []
            for _ in range(64):
                out, _ = measure_z(state, 0, rng)
                outcomes.append(int(out))
            return outcomes

        assert transcript(123) == transcript(123)
        assert transcript(123) != transcript(124)

    def test_zero_probability_collapse_errors(self):
        with pytest.raises(ZeroProbabilityError):
            collapse_z(StateVector.basis(1, 0), 0, SpinOutcome.DOWN)


class TestFidelityAndFactoring:
    def test_self_fidelity(self):
        state = random_state(np.random.default_rng(1), 3)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        state = random_state(np.random.default_rng(2), 3)
        rotated = StateVector(3, state.amps * np.exp(1j * 0.7))
        assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(StateVector.basis(1, 0), StateVector.basis(1, 1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(StateVector.plus(), StateVector.basis(2, 0))

    def test_tensor_then_split_roundtrip(self):
        rng = np.random.default_rng(8)
        a = random_state(rng, 2)
        b = random_state(rng, 3)
        joined = tensor(a, b)
        sub, rest = split(joined, [0, 1])
        assert fidelity(sub, a) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rest, b) == pytest.approx(1.0, abs=1e-12)

    def test_split_out_of_order_part(self):
        rng = np.random.default_rng(18)
        a = random_state(rng, 2)
        b = random_state(rng, 1)
        joined = tensor(a, b)
        sub, rest = split(joined, [2])
        assert fidelity(sub, b) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rest, a) == pytest.approx(1.0, abs=1e-12)

    def test_split_rejects_entangled_cut(self):
        bell = StateVector(2, np.array([1, 0, 0, 1], complex) / math.sqrt(2))
        with pytest.raises(EntangledCutError):
            split(bell, [0])

    def test_permute_reorders_qubits(self):
        rng = np.random.default_rng(31)
        a = random_state(rng, 1)
        b = random_state(rng, 1)
        swapped = permute(tensor(a, b), [1, 0])
        assert fidelity(swapped, tensor(b, a)) == pytest.approx(1.0, abs=1e-12)

    def test_subsystem_fidelity_on_product_register(self):
        rng = np.random.default_rng(12)
        a = random_state(rng, 2)
        junk = random_state(rng, 2)
        state = tensor(a, junk)
        assert subsystem_fidelity(state, [0, 1], a) == pytest.approx(1.0, abs=1e-12)
        assert subsystem_fidelity(state, [1, 0], a) == pytest.approx(
            fidelity(permute(a, [1, 0]), a), abs=1e-12)


class TestValidation:
    def test_kernels_leave_input_untouched(self):
        rng = np.random.default_rng(14)
        state = tensor(random_state(rng, 3), random_state(rng, 1))
        before = state.amps.copy()
        apply_1q(state, 2, "H")
        project_parity(state, 3, 1, Parity.ODD)
        collapse_z(state, 1, SpinOutcome.DOWN)
        measure_z(state, 0, rng)
        permute(state, [2, 0, 3, 1])
        split(state, [3])
        assert np.array_equal(state.amps, before)


    def test_from_amplitudes_normalization_check(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([1.0, 1.0])

    def test_from_amplitudes_size_check(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([1.0, 0.0, 0.0])

    def test_register_cap(self):
        with pytest.raises(ValueError):
            StateVector(17, np.zeros(2 ** 17, complex))


GATE_MATRICES = {"H": np.array([[1, 1], [1, -1]]) * SQRT_HALF,
                 "X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1])}


def product_state(rng, part, n):
    """(input, a, b): a random product of `a` on qubits `part` (in that
    order) and `b` on the remaining qubits (ascending)."""
    a = random_state(rng, len(part))
    b = random_state(rng, n - len(part))
    rest = [q for q in range(n) if q not in part]
    # tensor(a, b) holds qubit part[k] at position k; put it back at part[k]
    return permute(tensor(a, b), np.argsort(list(part) + rest)), a, b


def forbid_svd(monkeypatch):
    def svd(*args, **kwargs):
        raise AssertionError("split fell back to the SVD on a product cut")
    monkeypatch.setattr(np.linalg, "svd", svd)


class TestWideRegisters:
    N = 10

    @pytest.mark.parametrize("gate", ["H", "X", "Z"])
    def test_apply_1q_on_every_qubit_against_dense_kron(self, gate):
        # qubits 0-3 leave a trailing axis of >= 64 amplitudes, 4-9 a shorter one
        state = random_state(np.random.default_rng(41), self.N)
        for q in range(self.N):
            dense = np.kron(np.kron(np.eye(2 ** q), GATE_MATRICES[gate]),
                            np.eye(2 ** (self.N - q - 1)))
            np.testing.assert_allclose(apply_1q(state, q, gate).amps, dense @ state.amps,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("q1, q2", [(0, 9), (8, 9), (9, 8), (3, 7)])
    @pytest.mark.parametrize("outcome", [Parity.EVEN, Parity.ODD])
    def test_project_parity_against_dense_signed_projector(self, q1, q2, outcome):
        state = random_state(np.random.default_rng(43), self.N)
        raw = dense_parity_matrix(self.N, q1, q2, outcome) @ state.amps
        prob_expected = float(np.vdot(raw, raw).real)
        projected, prob = project_parity(state, q1, q2, outcome)
        assert prob == pytest.approx(prob_expected, rel=1e-12)
        np.testing.assert_allclose(projected.amps, raw / math.sqrt(prob_expected),
                                   rtol=0, atol=1e-14)

    def test_tensor_equals_kron_bit_for_bit(self):
        rng = np.random.default_rng(45)
        for na, nb in ((1, 1), (1, 9), (9, 1), (4, 6), (8, 8)):
            a, b = random_state(rng, na), random_state(rng, nb)
            assert np.array_equal(tensor(a, b).amps, np.kron(a.amps, b.amps))

    def test_tensor_and_split_shortcut_leave_inputs_untouched(self, monkeypatch):
        forbid_svd(monkeypatch)
        rng = np.random.default_rng(47)
        a, b = random_state(rng, 3), random_state(rng, 4)
        state, _, _ = product_state(rng, [5, 1, 2], 7)
        before = [x.amps.copy() for x in (a, b, state)]
        tensor(a, b)
        split(state, [5, 1, 2])
        for x, saved in zip((a, b, state), before):
            assert np.array_equal(x.amps, saved)


def schmidt_pair_state(rng, eps, k=3, m=4):
    """sqrt(1 - eps)|a0 b0> + sqrt(eps)|a1 b1> in random local bases, so
    that 1 - sigma_1**2 = eps across the cut (first k qubits | last m)."""
    def basis(dim):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return q[:, 0], q[:, 1]
    a0, a1 = basis(2 ** k)
    b0, b1 = basis(2 ** m)
    amps = math.sqrt(1 - eps) * np.kron(a0, b0) + math.sqrt(eps) * np.kron(a1, b1)
    return StateVector(k + m, amps), a0, b0


class TestOneHadamardKernel:
    def test_h_on_every_qubit_is_the_2x2_matrix_product(self):
        rng = np.random.default_rng(79)
        tails = set()
        for n in range(1, 15):
            state = random_state(rng, n)
            for q in range(n):
                view = state.amps.reshape(2 ** q, 2, -1)
                tails.add(view.shape[2])
                reference = (GATE_MATRICES["H"] @ view).reshape(-1)
                np.testing.assert_allclose(apply_1q(state, q, "H").amps, reference,
                                           rtol=0, atol=1e-15)
        assert min(tails) == 1 and max(tails) == 2 ** 13


class TestSplitShortcut:
    def test_cut_just_above_tolerance_is_entangled(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            state, _, _ = schmidt_pair_state(rng, 1e-9)
            with pytest.raises(EntangledCutError):
                split(state, [0, 1, 2])

    def test_cut_just_below_tolerance_splits(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            state, a0, b0 = schmidt_pair_state(rng, 1e-11)
            sub, rest = split(state, [0, 1, 2])
            assert fidelity(sub, StateVector(3, a0)) == pytest.approx(1.0, abs=1e-10)
            assert fidelity(rest, StateVector(4, b0)) == pytest.approx(1.0, abs=1e-10)

    def test_product_cuts_take_the_shortcut_and_rebuild_the_input(self, monkeypatch):
        forbid_svd(monkeypatch)
        rng = np.random.default_rng(55)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            size = int(rng.integers(1, n))
            part = [int(q) for q in rng.permutation(n)[:size]]
            state, a, b = product_state(rng, part, n)
            sub, rest = split(state, part)
            assert fidelity(sub, a) >= 1 - 1e-12
            assert fidelity(rest, b) >= 1 - 1e-12
            remainder = [q for q in range(n) if q not in part]
            rebuilt = permute(tensor(sub, rest), np.argsort(part + remainder))
            assert fidelity(rebuilt, state) >= 1 - 1e-12


class TestBitIdenticalShortcuts:
    """Faster paths that must give exactly the bits of the plain ones."""

    @pytest.mark.parametrize("outcome", list(Parity))
    def test_projection_given_its_weight_is_project_parity(self, outcome):
        rng = np.random.default_rng(61)
        orders = {"q1 < q2": 0, "q1 > q2": 0}
        for _ in range(60):
            n = int(rng.integers(2, 11))
            q1, q2 = (int(q) for q in rng.choice(n, size=2, replace=False))
            orders["q1 < q2" if q1 < q2 else "q1 > q2"] += 1
            state = random_state(rng, n)
            weight = parity_weights(state, q1, q2)[outcome is Parity.ODD]
            ours, ours_prob = _project_parity(state, q1, q2, outcome, weight)
            theirs, prob = project_parity(state, q1, q2, outcome)
            assert ours_prob == prob
            assert ours.amps.tobytes() == theirs.amps.tobytes()
        assert min(orders.values()) > 0

    def test_projection_given_its_weight_keeps_the_zero_check(self):
        state = StateVector.basis(3, 0b000)
        with pytest.raises(ZeroProbabilityError):
            _project_parity(state, 2, 0, Parity.ODD, parity_weights(state, 2, 0)[1])

    def test_tensor_is_the_outer_product(self):
        rng = np.random.default_rng(67)
        for na in range(1, 8):
            for nb in range(1, 8):
                a, b = random_state(rng, na), random_state(rng, nb)
                joined = tensor(a, b)
                assert joined.n == na + nb
                assert joined.amps.tobytes() == \
                    np.multiply.outer(a.amps, b.amps).reshape(-1).tobytes()

    def test_fused_x_then_h_is_the_two_calls(self):
        # trailing axes from 1 to 2**11 amplitudes long
        rng = np.random.default_rng(71)
        for n in range(1, 13):
            state = random_state(rng, n)
            for q in range(n):
                fused = _apply_xh(state, q)
                two = apply_1q(apply_1q(state, q, "X"), q, "H")
                assert fused.n == n
                assert fused.amps.tobytes() == two.amps.tobytes()

    def test_fused_x_then_h_checks_the_qubit(self):
        with pytest.raises(IndexError, match="qubit 2 out of range"):
            _apply_xh(random_state(np.random.default_rng(0), 2), 2)

    def test_views_are_the_per_qubit_shapes(self):
        rng = np.random.default_rng(73)
        for n in range(1, 9):
            state = random_state(rng, n)
            for q in range(n):
                view = _axes(state, q)
                assert view.shape == (2 ** q, 2, 2 ** (n - q - 1))
                assert np.shares_memory(view, state.amps)
            for q1 in range(n):
                for q2 in range(n):
                    if q1 == q2:
                        continue
                    lo, hi = sorted((q1, q2))
                    view = _axes(state, q1, q2)
                    assert view.shape == (2 ** lo, 2, 2 ** (hi - lo - 1), 2, 2 ** (n - hi - 1))
                    assert np.array_equal(view.reshape(-1), state.amps)

    def test_views_check_range_before_distinctness(self):
        state = random_state(np.random.default_rng(0), 3)
        with pytest.raises(IndexError, match="qubit 3 out of range"):
            _axes(state, 3, 3)
        with pytest.raises(IndexError, match="qubit -1 out of range"):
            _axes(state, -1, 5)
        with pytest.raises(ValueError, match="distinct"):
            _axes(state, 1, 1)


class TestWholeRegisterFidelity:
    """``subsystem_fidelity`` over the whole register, in order, is one dot."""

    @staticmethod
    def matrix_form(state, qubits, target):
        v = target.amps.conj() @ _as_matrix(state, list(qubits))
        return min(1.0, float(np.real(np.vdot(v, v))))

    def test_whole_register_is_the_matrix_form_bit_for_bit(self):
        rng = np.random.default_rng(81)
        for n in range(1, 17):
            for k in range(6):
                state, target = random_state(rng, n), random_state(rng, n)
                if k % 2:  # a close target, as a chain check sees one
                    near = state.amps + 1e-4 * target.amps
                    target = StateVector(n, near / np.linalg.norm(near))
                got = subsystem_fidelity(state, range(n), target)
                assert got == self.matrix_form(state, range(n), target)

    @pytest.mark.parametrize("qubits", [[1, 0, 2, 3], [3, 2, 1, 0], [0, 1], [2], [0, 2, 3]])
    def test_reordered_and_partial_subsystems_keep_the_matrix_form(self, qubits,
                                                                   monkeypatch):
        rng = np.random.default_rng(83)
        state, target = random_state(rng, 4), random_state(rng, len(qubits))
        want = self.matrix_form(state, qubits, target)
        calls = []

        def counting(*args):
            calls.append(args[1])
            return _as_matrix(*args)

        monkeypatch.setattr("spingate.qstate._as_matrix", counting)
        assert subsystem_fidelity(state, qubits, target) == want
        assert calls == [qubits]
        calls.clear()
        subsystem_fidelity(state, range(4), random_state(rng, 4))
        assert calls == []

    def test_whole_register_keeps_the_size_check(self):
        state = random_state(np.random.default_rng(85), 3)
        with pytest.raises(ValueError, match="target size must match the subsystem"):
            subsystem_fidelity(state, range(3), random_state(np.random.default_rng(0), 2))


class TestMeasureOut:
    """``_measure_out`` is ``collapse_z``'s kept slice without the zeroed register."""

    def test_the_kept_slice_bit_for_bit(self):
        rng = np.random.default_rng(87)
        for n in range(2, 13):
            state = random_state(rng, n)
            for q in range(n):
                for outcome in SpinOutcome:
                    got, rest = _measure_out(state, q, None, outcome)
                    collapsed, _ = collapse_z(state, q, outcome)
                    kept = _axes(collapsed, q)[:, outcome].reshape(-1)
                    assert got is outcome
                    assert rest.n == n - 1
                    assert rest.amps.tobytes() == kept.tobytes()

    def test_a_draw_is_measure_z_s_draw(self):
        rng = np.random.default_rng(89)
        for n in range(2, 9):
            state = random_state(rng, n)
            for q in range(n):
                seed = int(rng.integers(1 << 30))
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got, rest = _measure_out(state, q, ours, None)
                outcome, collapsed = measure_z(state, q, theirs)
                assert got is outcome
                kept = _axes(collapsed, q)[:, outcome].reshape(-1)
                assert rest.amps.tobytes() == kept.tobytes()
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_an_empty_branch_raises(self):
        with pytest.raises(ZeroProbabilityError, match="branch DOWN"):
            _measure_out(StateVector.basis(3, 0b000), 1, None, SpinOutcome.DOWN)


class TestFactorOut:
    """``_factor_out`` slices out a qubit its branches show to be product."""

    @staticmethod
    def place(spin, rest, q):
        """``rest`` with the one-qubit ``spin`` inserted at position q."""
        order = list(range(1, q + 1)) + [0] + list(range(q + 1, rest.n + 1))
        return permute(tensor(spin, rest), order)

    @pytest.mark.parametrize("spin", [StateVector.basis(1, 0), StateVector.basis(1, 1),
                                      StateVector.plus(), StateVector.minus()])
    def test_product_spins_at_every_position(self, spin):
        rng = np.random.default_rng(91)
        for n in range(1, 11):
            rest = random_state(rng, n)
            for q in range(n + 1):
                state = self.place(spin, rest, q)
                got = _factor_out(state, q)
                _, want = split(state, [q])
                assert got.n == n
                assert fidelity(got, want) >= 1 - 1e-14
                assert got.norm() == pytest.approx(1.0, abs=1e-14)

    def test_branches_that_start_at_zero(self):
        # the first amplitude of each branch is zero: both signs are tried
        for sign in (1, -1):
            amps = np.array([0, 0.6, 0, 0.8j, 0, 0.6 * sign, 0, 0.8j * sign]) / math.sqrt(2)
            state = StateVector.from_amplitudes(amps)
            got = _factor_out(state, 0)
            assert fidelity(got, split(state, [0])[1]) >= 1 - 1e-14

    def test_other_qubits_are_left_to_split(self):
        bell = StateVector.from_amplitudes([SQRT_HALF, 0, 0, SQRT_HALF])
        assert _factor_out(bell, 0) is None
        tilted = tensor(StateVector.single(0.6, 0.8j), StateVector.plus())
        assert _factor_out(tilted, 0) is None
        assert _factor_out(tilted, 1) is not None


# Reductions over a 15-qubit register, printed as hex floats and amplitude
# digests: the same text in any process, whatever BLAS thread count it runs.
_WIDE_PROBE = """
import hashlib, math
import numpy as np
from spingate.qstate import (SpinOutcome, StateVector, collapse_z, fidelity,
                             parity_weights, split, subsystem_fidelity, tensor)

def wide(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / math.sqrt(math.fsum(np.abs(amps) ** 2)))

a, b = wide(1, 15), wide(2, 15)
numbers = [fidelity(a, b), a.norm(), collapse_z(a, 3, SpinOutcome.UP)[1],
           *parity_weights(a, 0, 14), subsystem_fidelity(a, range(14), wide(5, 14)),
           subsystem_fidelity(a, [14], wide(6, 1))]
parts = [*split(tensor(wide(3, 14), wide(4, 1)), range(14)),
         *split(tensor(wide(4, 1), wide(3, 14)), [0])]
lines = [float(x).hex() for x in numbers]
lines += [hashlib.sha256(p.amps.tobytes()).hexdigest() for p in parts]
"""


def test_wide_reductions_do_not_depend_on_the_blas_thread_count():
    probe = {}
    exec(_WIDE_PROBE, probe)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", _WIDE_PROBE + "print('\\n'.join(lines))"],
                            capture_output=True, text=True, env=env, check=True)
    assert result.stdout.split() == probe["lines"]
