"""Reflection-coefficient closed form and its gate combinations.

Frozen expected values were computed with an independent 50-digit mpmath
evaluation of the closed form before this module was written.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from spingate.cavity import (CavityParams, ReflectionPair, reflection,
                             reflection_pair, reflection_spectrum)

# kappa/kappa_s = 13, gamma/kappa = 0.1, resonant probe
R0_RESONANT = -0.857142857142857  # exactly -6/7
R1_QUARTER = 0.0714285714285714   # exactly 1/14, C = 1/4
R1_UNIT = 0.628571428571429       # exactly 22/35, C = 1
R1_UNIT_DETUNED = 0.362075008763 - 0.501226778829j  # C = 1, detuning 0.1

D2_QUARTER = 0.21556122448979592  # |d|^2 at C = 1/4 resonant
S2_QUARTER = 0.15433673469387754  # |s|^2 at C = 1/4 resonant
D2_UNIT = 0.5518367346938776      # |d|^2 at C = 1 resonant


def quarter_params():
    return CavityParams.from_cooperativity(0.25, kappa_ratio=13.0, gamma=0.1)


def unit_params(detuning=0.0):
    return CavityParams.from_cooperativity(1.0, kappa_ratio=13.0, gamma=0.1,
                                            probe_detuning=detuning)


def random_params(rng):
    """Log-uniform rates, uniform detunings in [-5, 5] kappa."""
    g = 10.0 ** rng.uniform(-2, 1)
    kappa_s = 10.0 ** rng.uniform(-3, 1)
    gamma = 10.0 ** rng.uniform(-3, 1)
    dx = rng.uniform(-5, 5)
    dc = rng.uniform(-5, 5)
    return CavityParams(omega_c=dc, omega_x=dx, omega_probe=0.0,
                        kappa=1.0, kappa_s=kappa_s, gamma=gamma, g=g)


class TestReflection:
    def test_resonant_empty_lossless_cavity_reflects_with_pi_phase(self):
        params = CavityParams(kappa_s=0.0, gamma=0.1, g=1.0)
        assert reflection(params, coupled=False) == pytest.approx(-1.0, abs=1e-12)

    def test_strong_coupling_limit_reflects_unchanged(self):
        params = CavityParams(kappa_s=0.0, gamma=0.1, g=1e8)
        assert reflection(params, coupled=True) == pytest.approx(1.0, abs=1e-12)

    def test_resonance_scattering_point(self):
        params = quarter_params()
        assert reflection(params, coupled=True) == pytest.approx(R1_QUARTER, abs=1e-6)
        assert reflection(params, coupled=False) == pytest.approx(R0_RESONANT, abs=1e-6)

    def test_detuned_purcell_point(self):
        r1 = reflection(unit_params(detuning=0.1), coupled=True)
        assert r1 == pytest.approx(R1_UNIT_DETUNED, abs=1e-4)

    def test_resonant_purcell_point(self):
        assert reflection(unit_params(), coupled=True) == pytest.approx(R1_UNIT, abs=1e-9)

    def test_uncoupled_branch_ignores_g(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = random_params(rng)
            bare = CavityParams(omega_c=params.omega_c, omega_x=params.omega_x,
                                kappa_s=params.kappa_s, gamma=params.gamma, g=0.0)
            assert reflection(params, coupled=False) == pytest.approx(
                reflection(bare, coupled=True), abs=1e-14)

    def test_passivity_over_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            params = random_params(rng)
            assert abs(reflection(params, coupled=False)) <= 1 + 1e-12
            assert abs(reflection(params, coupled=True)) <= 1 + 1e-12

    def test_conjugate_symmetry_when_trion_matches_cavity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            delta = rng.uniform(-5, 5)
            for coupled in (False, True):
                plus = reflection(CavityParams(omega_c=delta, omega_x=delta,
                                               kappa_s=0.3, gamma=0.2, g=0.4), coupled)
                minus = reflection(CavityParams(omega_c=-delta, omega_x=-delta,
                                                kappa_s=0.3, gamma=0.2, g=0.4), coupled)
                assert plus == pytest.approx(minus.conjugate(), abs=1e-14)

    def test_spectrum_matches_scalar_calls(self):
        params = unit_params()
        omegas = np.linspace(-2, 2, 7)
        spectrum = reflection_spectrum(params, omegas, coupled=True)
        for w, r in zip(omegas, spectrum):
            # vectorized complex division may differ from the scalar path by 1 ulp
            assert complex(r) == pytest.approx(
                reflection(params.at_probe(w), coupled=True), abs=1e-14)

    def test_scalar_path_gives_the_bits_of_the_spectrum_at_the_probe(self):
        # reflection runs the shared formula in plain complex arithmetic and
        # reflection_spectrum on a numpy array; both round the same way
        rng = np.random.default_rng(19)
        for i in range(400):
            params = replace(random_params(rng), omega_probe=rng.uniform(-5, 5))
            if i % 4 == 0:
                params = replace(params, kappa_s=0.0)
            for coupled in (False, True):
                assert reflection(params, coupled) == complex(
                    reflection_spectrum(params, params.omega_probe, coupled))

    @pytest.mark.parametrize("bad", [
        dict(gamma=0.0), dict(gamma=-1.0), dict(kappa=0.0), dict(kappa=-2.0),
        dict(kappa_s=-0.1), dict(g=-1.0), dict(omega_c=math.nan),
        dict(gamma=math.inf),
    ])
    def test_rejects_nonphysical_parameters(self, bad):
        kwargs = dict(omega_c=0.0, omega_x=0.0, omega_probe=0.0,
                      kappa=1.0, kappa_s=0.1, gamma=0.1, g=0.5)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            CavityParams(**kwargs)

    def test_rejects_nonfinite_probe(self):
        with pytest.raises(ValueError):
            reflection_spectrum(unit_params(), math.inf, coupled=True)


class TestReflectionPair:
    def test_ideal_limit(self):
        pair = ReflectionPair.ideal()
        assert pair.d == pytest.approx(1.0)
        assert pair.s == pytest.approx(0.0)

    def test_combinations_are_half_sum_and_difference(self):
        pair = reflection_pair(unit_params(detuning=0.1))
        assert pair.d == pytest.approx((pair.r1 - pair.r0) / 2, abs=1e-15)
        assert pair.s == pytest.approx((pair.r1 + pair.r0) / 2, abs=1e-15)

    def test_success_and_recycle_weights_at_resonance_scattering(self):
        pair = reflection_pair(quarter_params())
        assert abs(pair.d) ** 2 == pytest.approx(D2_QUARTER, abs=1e-5)
        assert abs(pair.s) ** 2 == pytest.approx(S2_QUARTER, abs=1e-5)

    def test_success_weight_purcell(self):
        pair = reflection_pair(unit_params())
        assert abs(pair.d) ** 2 == pytest.approx(D2_UNIT, abs=1e-5)

    def test_parallelogram_identity(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            pair = reflection_pair(random_params(rng))
            lhs = abs(pair.d) ** 2 + abs(pair.s) ** 2
            rhs = (abs(pair.r0) ** 2 + abs(pair.r1) ** 2) / 2
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert lhs <= 1 + 1e-12

    def test_rejects_unphysical_coefficients(self):
        with pytest.raises(ValueError):
            ReflectionPair.from_coefficients(1.5, 0.0)
        with pytest.raises(ValueError):
            ReflectionPair.from_coefficients(complex(math.nan), 0.5)


class TestCooperativity:
    def test_constructor_solves_for_g(self):
        params = CavityParams.from_cooperativity(0.7, kappa_ratio=5.0, gamma=0.2)
        assert params.cooperativity == pytest.approx(0.7, rel=1e-12)

    def test_leak_free_ratio(self):
        params = CavityParams.from_cooperativity(1.0, kappa_ratio=math.inf, gamma=0.1)
        assert params.kappa_s == 0.0
        assert params.cooperativity == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_cooperativity(self):
        with pytest.raises(ValueError):
            CavityParams.from_cooperativity(-0.5)
        with pytest.raises(ValueError):
            CavityParams.from_cooperativity(math.inf)
        with pytest.raises(ValueError):
            CavityParams.from_cooperativity(1.0, kappa_ratio=0.0)

    @pytest.mark.parametrize("bad, name", [(dict(gamma=-1.0), "gamma"),
                                           (dict(gamma=0.0), "gamma"),
                                           (dict(kappa=-1.0), "kappa")])
    def test_rejects_bad_rates_by_name(self, bad, name):
        # CavityParams' own check names the rate; solving for g must not
        # fail first on the square root of a negative number
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            CavityParams.from_cooperativity(0.25, **bad)
