"""Gaussian-pulse spectral averaging of the gate efficiencies.

The Delta = 0.5 reference value was frozen from an independent adaptive
quadrature (mpmath, 50 digits) of the averaged efficiencies.  The closed
form (``gaussian_etas``) is checked against the quadrature, and its
Faddeeva function against scipy's ``wofz`` when scipy is installed.
"""

import cmath
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spingate.cavity import CavityParams, _reflection
from spingate.gate import Etas, _recycled_etas, analytic_etas
from spingate.cavity import reflection_pair
from spingate.cli import main
from spingate.pulse import (_CONTOUR_NODES, _POLE_GAP_RTOL, PulseSpec, QuadratureError,
                            _faddeeva, _gaussian_average, _mean_inverse, _pole_terms,
                            gaussian_etas, projected_spin_state, pulse_etas, spectral_grid)
from spingate.qstate import Parity, StateVector, ZeroProbabilityError, fidelity, tensor
from spingate.sweep import SweepAxis, SweepBaseline, SweepSpec, run_sweep

ETA_S_UNIT_RESONANT = 0.5591397849462366
ETA_S_UNIT_HALF_KAPPA = 0.461594481367  # Delta = 0.5 kappa, C = 1 resonant
ETA_H_UNIT_HALF_KAPPA = 0.303036620943
ETA_V_UNIT_HALF_KAPPA = 0.343500338121


def unit_params():
    return CavityParams.from_cooperativity(1.0, kappa_ratio=13.0, gamma=0.1)


class TestPulseEtas:
    def test_monochromatic_limit_recovers_analytic_values(self):
        etas = pulse_etas(unit_params(), PulseSpec(delta=1e-4))
        assert etas.eta_s == pytest.approx(0.559, abs=1e-3)
        assert etas.eta_s == pytest.approx(ETA_S_UNIT_RESONANT, abs=1e-6)
        analytic = analytic_etas(reflection_pair(unit_params()))
        assert etas.eta_h == pytest.approx(analytic.eta_h, abs=1e-6)
        assert etas.eta_v == pytest.approx(analytic.eta_v, abs=1e-6)

    def test_half_kappa_bandwidth_reference_point(self):
        etas = pulse_etas(unit_params(), PulseSpec(delta=0.5))
        assert etas.eta_h == pytest.approx(ETA_H_UNIT_HALF_KAPPA, abs=1e-6)
        assert etas.eta_v == pytest.approx(ETA_V_UNIT_HALF_KAPPA, abs=1e-6)
        assert etas.eta_s == pytest.approx(ETA_S_UNIT_HALF_KAPPA, abs=1e-6)
        assert etas.eta_s < ETA_S_UNIT_RESONANT

    def test_error_decreases_monotonically_towards_the_monochromatic_limit(self):
        analytic = analytic_etas(reflection_pair(unit_params())).eta_h
        errors = [abs(pulse_etas(unit_params(), PulseSpec(delta=d)).eta_h - analytic)
                  for d in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_grid_refinement_is_converged_at_default_resolution(self):
        spec = PulseSpec(delta=0.5)
        doubled = PulseSpec(delta=0.5, n_points=2 * spec.n_points)
        a = pulse_etas(unit_params(), spec)
        b = pulse_etas(unit_params(), doubled)
        assert abs(a.eta_h - b.eta_h) < 1e-8
        assert abs(a.eta_v - b.eta_v) < 1e-8
        assert abs(a.eta_s - b.eta_s) < 1e-8

    def test_coarse_grid_is_rejected_with_a_workable_suggestion(self):
        with pytest.raises(QuadratureError) as excinfo:
            pulse_etas(unit_params(), PulseSpec(delta=0.5, n_points=64))
        suggested = excinfo.value.suggested_n_points
        assert suggested > 64
        fine = pulse_etas(unit_params(), PulseSpec(delta=0.5, n_points=suggested))
        assert fine.eta_s == pytest.approx(ETA_S_UNIT_HALF_KAPPA, abs=1e-4)

    def test_weights_are_normalized(self):
        for delta in (1e-3, 0.1, 0.5):
            _, weights = spectral_grid(unit_params(), PulseSpec(delta=delta))
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PulseSpec(delta=0.0)
        with pytest.raises(ValueError):
            PulseSpec(delta=0.1, n_points=8)
        with pytest.raises(ValueError):
            PulseSpec(delta=0.1, span=0.0)

    def test_spec_center_must_be_finite(self):
        with pytest.raises(ValueError, match="center must be finite"):
            PulseSpec(delta=0.1, center=math.inf)


class TestFidelityInvariance:
    def test_projected_state_is_the_same_ray_at_every_frequency(self):
        rng = np.random.default_rng(27)
        params = unit_params()
        spec = PulseSpec(delta=0.5, n_points=1024)
        omegas, _ = spectral_grid(params, spec)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(2, amps / np.linalg.norm(amps))
        for outcome in (Parity.EVEN, Parity.ODD):
            picks = rng.choice(omegas, size=10, replace=False)
            states = [projected_spin_state(params, w, state, 0, 1, outcome)
                      for w in picks]
            for other in states[1:]:
                assert fidelity(states[0], other) == pytest.approx(1.0, abs=1e-12)

    def test_zero_success_amplitude_is_an_error(self):
        # with g = 0 both polarizations see the same cavity, so d(omega) = 0
        params = CavityParams(kappa_s=0.1, gamma=0.1, g=0.0)
        state = tensor(StateVector.plus(), StateVector.plus())
        with pytest.raises(ZeroProbabilityError):
            projected_spin_state(params, 0.0, state, 0, 1, Parity.EVEN)



class TestFaddeeva:
    def test_origin(self):
        assert _faddeeva(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_imaginary_axis_is_scaled_erfc(self):
        for y in np.linspace(0.0, 20.0, 81):
            expected = math.exp(y * y) * math.erfc(y)
            assert _faddeeva(1j * y).real == pytest.approx(expected, rel=1e-13)
            assert abs(_faddeeva(1j * y).imag) <= 1e-13 * expected

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        z = rng.normal(scale=5.0, size=200) + 1j * rng.exponential(2.0, size=200)
        assert np.allclose(_faddeeva(-np.conj(z)), np.conj(_faddeeva(z)),
                           rtol=1e-14, atol=0.0)

    def test_matches_scipy_over_the_upper_half_plane(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(11)
        radius = 10 ** rng.uniform(-3, 4, 700)
        angle = rng.uniform(0.0, math.pi, 700)
        near_axis = np.linspace(-40.0, 40.0, 200) + 1e-4j
        far = rng.uniform(-1e4, 1e4, 60) + 1j * rng.uniform(1e-4, 1e4, 60)
        # Delta = 1e-4 puts the cavity pole near 5e3 i
        narrow = np.array([np.conj(p / 1e-4) for p in (-0.5j - 0.04, 0.1 - 0.03j,
                                                       -0.0385j)])
        z = np.concatenate([radius * np.exp(1j * angle), near_axis, far, narrow])
        assert len(z) >= 960
        reference = special.wofz(z)
        error = np.abs(_faddeeva(z) - reference) / np.abs(reference)
        assert error.max() <= 1e-13


def random_draw(rng):
    kappa_ratio = math.inf if rng.random() < 0.25 else rng.uniform(2.0, 100.0)
    params = CavityParams.from_cooperativity(
        rng.uniform(0.05, 10.0), kappa_ratio=kappa_ratio,
        gamma=rng.uniform(0.01, 1.0), probe_detuning=rng.uniform(-1.0, 1.0),
        trion_offset=rng.uniform(-1.0, 1.0))
    spec = PulseSpec(delta=10 ** rng.uniform(-2.0, 0.0), center=rng.uniform(-1.0, 1.0))
    return params, spec


def exceptional_point_sweep(kappa_ratio, offsets, detuning=0.1):
    """Cooperativity sweep whose g values sit the given offsets from the
    exceptional point g = (kappa + kappa_s - gamma) / 4 at omega_x = omega_c."""
    gamma = 0.1
    total = 1.0 + (0.0 if math.isinf(kappa_ratio) else 1.0 / kappa_ratio)
    g_ep = (total - gamma) / 4
    grid = tuple((g_ep + eps) ** 2 / (gamma * total) for eps in offsets)
    fixed = SweepBaseline(kappa_ratio=kappa_ratio, gamma=gamma, detuning=detuning)
    return SweepSpec(axis=SweepAxis.COOPERATIVITY, grid=grid, fixed=fixed,
                     outputs=("pulse_eta_S",))


# narrow, offset and broad pulses
EP_PULSES = (PulseSpec(delta=0.003), PulseSpec(delta=0.1, center=0.2),
             PulseSpec(delta=1.0, center=-0.5))


def at_pole_gap(kappa_ratio, gap, side):
    """Cavity at omega_x = omega_c = 0.1 whose coupled poles p_+- sit
    gap * (kappa + kappa_s + gamma) apart, on the side of the exceptional
    point that ``side`` (+1 or -1) picks: g**2 = g_EP**2 + side * (gap * width / 2)**2."""
    gamma, detuning = 0.1, 0.1
    kappa_s = 0.0 if math.isinf(kappa_ratio) else 1.0 / kappa_ratio
    g_ep = (1.0 + kappa_s - gamma) / 4
    width = 1.0 + kappa_s + gamma
    g = math.sqrt(g_ep ** 2 + side * (gap * width / 2) ** 2)
    return CavityParams(omega_c=detuning, omega_x=detuning, kappa_s=kappa_s, gamma=gamma, g=g)


def quadrature_must_not_run(*args, **kwargs):
    raise AssertionError("a sweep row ran the quadrature")


class TestGaussianEtas:
    def test_agrees_with_quadrature_on_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            params, spec = random_draw(rng)
            exact = gaussian_etas(params, spec)
            assert exact is not None
            reference = pulse_etas(params, spec)
            for got, want in zip(exact, reference):
                assert abs(got - want) <= 1e-9

    def test_reference_points(self):
        near = gaussian_etas(unit_params(), PulseSpec(delta=1e-4))
        assert near.eta_s == pytest.approx(ETA_S_UNIT_RESONANT, abs=1e-6)
        half = gaussian_etas(unit_params(), PulseSpec(delta=0.5))
        assert half.eta_h == pytest.approx(ETA_H_UNIT_HALF_KAPPA, abs=1e-6)
        assert half.eta_v == pytest.approx(ETA_V_UNIT_HALF_KAPPA, abs=1e-6)
        assert half.eta_s == pytest.approx(ETA_S_UNIT_HALF_KAPPA, abs=1e-6)

    def test_ignores_the_quadrature_grid(self):
        exact = gaussian_etas(unit_params(), PulseSpec(delta=0.5))
        assert gaussian_etas(unit_params(), PulseSpec(delta=0.5, n_points=64)) == exact

    @pytest.mark.parametrize("kappa_ratio", [math.inf, 13.0])
    def test_sweep_matches_quadrature_at_the_exceptional_point(self, kappa_ratio, monkeypatch):
        offsets = (-1e-2, -1e-4, -1e-6, -1e-8, 0.0, 1e-8, 1e-6, 1e-4, 1e-2)
        spec = exceptional_point_sweep(kappa_ratio, offsets)
        for name in ("spingate.pulse.pulse_etas", "spingate.sweep.pulse_etas"):
            monkeypatch.setattr(name, quadrature_must_not_run)
        closed_form = []
        for row in run_sweep(spec).rows:
            params = CavityParams.from_cooperativity(
                row["value"], kappa_ratio=kappa_ratio, gamma=0.1, probe_detuning=0.1)
            pulse = PulseSpec(delta=0.1)
            assert abs(row["pulse_eta_S"] - pulse_etas(params, pulse).eta_s) <= 1e-9
            closed_form.append(isinstance(gaussian_etas(params, pulse), Etas))
        # every row, the merged poles included, came from the closed form
        assert len(closed_form) == len(offsets) and all(closed_form)

    @pytest.mark.parametrize("kappa_ratio", [13.0, math.inf])
    def test_agrees_with_fine_quadrature_at_every_pole_gap(self, kappa_ratio):
        cases = [(0.0, 1)] + [(gap, side) for gap in (1e-8, 1e-4, 1e-2, 1e-1)
                              for side in (1, -1)]
        for i, (gap, side) in enumerate(cases):
            params = at_pole_gap(kappa_ratio, gap, side)
            pulse = EP_PULSES[i % len(EP_PULSES)]
            reference = pulse_etas(params, replace(pulse, n_points=2 ** 20))
            for got, want in zip(gaussian_etas(params, pulse), reference):
                assert abs(got - want) <= 1e-9, (gap, side, pulse)

    @pytest.mark.parametrize("gap", [0.02, 0.1])
    def test_contour_and_pole_branches_agree_where_both_apply(self, gap, monkeypatch):
        cases = [(at_pole_gap(kappa_ratio, gap, side), pulse)
                 for kappa_ratio in (13.0, math.inf) for side in (1, -1) for pulse in EP_PULSES]
        poles = [gaussian_etas(params, pulse) for params, pulse in cases]
        # every gap below the threshold takes the contour
        monkeypatch.setattr("spingate.pulse._POLE_GAP_RTOL", 1.0)
        contour = [gaussian_etas(params, pulse) for params, pulse in cases]
        for a, b in zip(poles, contour):
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-11


def one_loop_gaussian_etas(params, spec):
    """``gaussian_etas`` as one loop over the poles, each pole's closed forms
    and Gaussian average together: the reference for the split form."""
    p_a = params.omega_x - 0.5j * params.gamma
    p_b = params.omega_c - 0.5j * (params.kappa + params.kappa_s)
    width = params.kappa + params.kappa_s + params.gamma
    mid = (p_a + p_b) / 2
    root = cmath.sqrt(((p_a - p_b) / 2) ** 2 + params.g ** 2)
    if 2.0 * abs(root) < _POLE_GAP_RTOL * width:
        circle = [width / 8 * cmath.exp(2j * math.pi * k / _CONTOUR_NODES)
                  for k in range(_CONTOUR_NODES)]
        nodes = [mid + r for r in circle]
        weights = [(z - p_a) * r / (r * r - root * root) / _CONTOUR_NODES
                   for z, r in zip(nodes, circle)]
    else:
        nodes = [mid + root, mid - root]
        c_plus = (nodes[0] - p_a) / (2.0 * root)
        weights = [c_plus, 1.0 - c_plus]
    gain = 0.5j * params.kappa
    mu = params.omega_c + spec.center
    sum_d = sum_s = 0j
    for p, e, c in zip([p_b] + nodes, [1.0] + [0.0] * len(nodes), [0.0] + weights):
        r0 = _reflection(params, p.conjugate(), coupled=False)
        r1 = _reflection(params, p.conjugate(), coupled=True)
        mean = _mean_inverse(p, mu, spec.delta)
        sum_d += gain * (e - c) * ((r1 - r0) / 2).conjugate() * mean
        sum_s += -gain * (e + c) * ((r1 + r0) / 2).conjugate() * mean
    return _recycled_etas(2.0 * sum_d.real, 1.0 + 2.0 * sum_s.real, "averaged eta_V")


class TestSplitForm:
    """``gaussian_etas`` is the pole terms of the cavity, then one Faddeeva
    sum per pulse; both give the bits of the one-loop form."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(2024)
        draws = [random_draw(rng) for _ in range(40)]
        gaps = [(at_pole_gap(kappa_ratio, gap, side), pulse)
                for kappa_ratio in (13.0, math.inf)
                for gap, side in [(0.0, 1)] + [(g, s) for g in (1e-8, 1e-4, 1e-2, 2e-2, 1e-1)
                                               for s in (1, -1)]
                for pulse in EP_PULSES]
        return draws + gaps

    def test_cases_reach_the_contour_window(self):
        windows = {len(_pole_terms(params)) for params, _ in self.cases()}
        assert windows == {3, 1 + _CONTOUR_NODES}

    def test_bit_for_bit_the_one_loop_form(self):
        for params, spec in self.cases():
            assert gaussian_etas(params, spec) == one_loop_gaussian_etas(params, spec)

    def test_terms_serve_every_pulse(self):
        pulses = [PulseSpec(delta=d, center=c) for d in (1e-3, 0.1, 1.0) for c in (0.0, 0.3)]
        for params, _ in self.cases():
            terms = _pole_terms(params)
            for pulse in pulses:
                assert _gaussian_average(params, terms, pulse) == \
                    one_loop_gaussian_etas(params, pulse)


def run_cli(args):
    """The CLI in a child process, so that stderr holds every warning."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "spingate.cli", *args],
                          capture_output=True, text=True, env=env)


class TestScalarPaths:
    def test_scalar_faddeeva_matches_the_array_kernel(self):
        rng = np.random.default_rng(41)
        z = 10 ** rng.uniform(-3, 6, 300) * np.exp(1j * rng.uniform(0.0, math.pi, 300))
        array = _faddeeva(z)
        for zk, wk in zip(z, array):
            scalar = _faddeeva(complex(zk))
            assert type(scalar) is complex
            assert abs(scalar - wk) <= 1e-15 * abs(wk)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_projected_state_rejects_a_nonfinite_frequency(self, omega):
        state = tensor(StateVector.plus(), StateVector.plus())
        with pytest.raises(ValueError):
            projected_spin_state(unit_params(), omega, state, 0, 1, Parity.EVEN)

    @pytest.mark.parametrize("delta", [1e-310, 1e-300, 1e-200, 1e-160, 1e-9])
    def test_tiny_bandwidths_give_the_monochromatic_limit(self, delta):
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                params, spec = random_draw(rng)
                center = params.omega_c + spec.center
                got = gaussian_etas(params, replace(spec, delta=delta))
                want = analytic_etas(reflection_pair(params.at_probe(center)))
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12

    def test_cli_prints_the_limit_at_tiny_bandwidths_and_no_warning(self):
        result = run_cli(["--axis", "bandwidth", "--grid", "1e-310,1e-300,1e-200,1e-160",
                          "--outputs", "eta_S,pulse_eta_S", "--out", "-"])
        assert (result.returncode, result.stderr) == (0, "")
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert [row[1] for row in rows] == ["1e-310", "1e-300", "1e-200", "1e-160"]
        # the pulse is centred on the resonant probe, so its limit is eta_S
        assert all(row[2] == row[3] == "0.254901961" for row in rows)


# CSV rows (bandwidth, eta_H, eta_V, eta_S, pulse_eta_S) of bandwidth sweeps
# over 0.01, 0.1 and 1, keyed by (--kappa-ratio, --c, --detuning), as the
# numpy-array closed forms printed them.  None of these cavities is near
# the exceptional point, so every row takes the two-pole branch.
PINNED_BANDWIDTH_ROWS = {
    ("3", "0.25", "0"): (
        "0.01,0.140625,0.015625,0.142857143,0.142350591",
        "0.1,0.140625,0.015625,0.142857143,0.115442479",
        "1,0.140625,0.015625,0.142857143,0.0391147307",
    ),
    ("3", "0.25", "0.1"): (
        "0.01,0.0732275873,0.110772999,0.0823497118,0.142350591",
        "0.1,0.0732275873,0.110772999,0.0823497118,0.115442479",
        "1,0.0732275873,0.110772999,0.0823497118,0.0391147307",
    ),
    ("3", "1", "0"): (
        "0.01,0.36,0.01,0.363636364,0.363471082",
        "0.1,0.36,0.01,0.363636364,0.348487653",
        "1,0.36,0.01,0.363636364,0.183452412",
    ),
    ("3", "1", "0.1"): (
        "0.01,0.329507009,0.00893902175,0.332479047,0.363471082",
        "0.1,0.329507009,0.00893902175,0.332479047,0.348487653",
        "1,0.329507009,0.00893902175,0.332479047,0.183452412",
    ),
    ("13", "0.25", "0"): (
        "0.01,0.215561224,0.154336735,0.254901961,0.25451533",
        "0.1,0.215561224,0.154336735,0.254901961,0.231322741",
        "1,0.215561224,0.154336735,0.254901961,0.12638663",
    ),
    ("13", "0.25", "0.1"): (
        "0.01,0.112186207,0.420344257,0.19353937,0.25451533",
        "0.1,0.112186207,0.420344257,0.19353937,0.231322741",
        "1,0.112186207,0.420344257,0.19353937,0.12638663",
    ),
    ("13", "1", "0"): (
        "0.01,0.551836735,0.0130612245,0.559139785,0.559034174",
        "0.1,0.551836735,0.0130612245,0.559139785,0.549072117",
        "1,0.551836735,0.0130612245,0.559139785,0.411757527",
    ),
    ("13", "1", "0.1"): (
        "0.01,0.508986425,0.053946453,0.538010165,0.559034174",
        "0.1,0.508986425,0.053946453,0.538010165,0.549072117",
        "1,0.508986425,0.053946453,0.538010165,0.411757527",
    ),
    ("inf", "0.25", "0"): (
        "0.01,0.25,0.25,0.333333333,0.333289266",
        "0.1,0.25,0.25,0.333333333,0.330512154",
        "1,0.25,0.25,0.333333333,0.316261326",
    ),
    ("inf", "0.25", "0.1"): (
        "0.01,0.12993763,0.5997921,0.324675325,0.333289266",
        "0.1,0.12993763,0.5997921,0.324675325,0.330512154",
        "1,0.12993763,0.5997921,0.324675325,0.316261326",
    ),
    ("inf", "1", "0"): (
        "0.01,0.64,0.04,0.666666667,0.666622258",
        "0.1,0.64,0.04,0.666666667,0.662596907",
        "1,0.64,0.04,0.666666667,0.625440498",
    ),
    ("inf", "1", "0.1"): (
        "0.01,0.591715976,0.100591716,0.657894737,0.666622258",
        "0.1,0.591715976,0.100591716,0.657894737,0.662596907",
        "1,0.591715976,0.100591716,0.657894737,0.625440498",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_BANDWIDTH_ROWS))
def test_bandwidth_sweep_bytes_are_pinned(case, capsys):
    kappa_ratio, cooperativity, detuning = case
    code = main(["--axis", "bandwidth", "--grid", "0.01,0.1,1", "--kappa-ratio", kappa_ratio,
                 "--c", cooperativity, "--detuning", detuning,
                 "--outputs", "eta_H,eta_V,eta_S,pulse_eta_S", "--out", "-"])
    assert code == 0
    expected = ["axis,value,eta_H,eta_V,eta_S,pulse_eta_S,flag"] + [
        f"bandwidth,{row}," for row in PINNED_BANDWIDTH_ROWS[case]]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_import_pulls_in_numpy_only():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run(
        [sys.executable, "-c", "import spingate, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
