"""Finite-bandwidth probe pulses: frequency-averaged gate efficiencies.

A probe photon of bandwidth ``Delta`` carries the intensity spectrum

    |f(omega)|**2 = exp(-((omega - mu) / Delta)**2) / (sqrt(pi) * Delta),

a unit-mass Gaussian of standard deviation Delta/sqrt(2) whose center mu
sits ``center`` away from the cavity resonance.  The efficiencies become
spectral averages,

    eta_H(Delta) = integral |r1(w) - r0(w)|**2 / 4 * |f(w)|**2 dw
    eta_V(Delta) = integral |r1(w) + r0(w)|**2 / 4 * |f(w)|**2 dw
    eta_S(Delta) = eta_H(Delta) / (1 - eta_V(Delta)),

computed exactly (up to rounding) by ``gaussian_etas``.  Writing
A = -i (omega - p_A) and B = -i (omega - p_B) with the poles
p_A = omega_x - i gamma/2 and p_B = omega_c - i (kappa + kappa_s)/2, the
coupled denominator AB + g**2 vanishes at the two roots p_+- of
(omega - p_A)(omega - p_B) = g**2, so d = (r1 - r0)/2 and s = (r1 + r0)/2
are rational functions with simple poles p_B, p_+, p_-, all in the lower
half plane:

    d(omega) = sum_k a_k / (omega - p_k),    s(omega) = 1 + sum_k b_k / (omega - p_k).

For real omega, |f|**2 with f = c + sum_k a_k / (omega - p_k) has the
partial fractions |c|**2 + 2 Re sum_k a_k f*(p_k) / (omega - p_k), where
f*(z) = conj(f(conj z)) is the reflected function, read off the cavity
closed forms at conj(p_k), and each term averages against the Gaussian
through the Faddeeva function,

    <1 / (omega - p)> = -i sqrt(pi) conj(w(conj((p - mu) / Delta))) / Delta,

evaluated with Weideman's rational approximation (J. A. C. Weideman,
SIAM J. Numer. Anal. 31, 1497 (1994)).  Where |p - mu| > 1e8 Delta,
w(z) = i / (sqrt(pi) z) to rounding and the average is 1 / (mu - p), the
Delta -> 0 limit; the argument (p - mu) / Delta is never formed there, so
bandwidths down to the smallest subnormal stay finite.  At the
exceptional point omega_x = omega_c, (kappa + kappa_s - gamma)/2 = 2g the
two roots p_+- merge and their partial-fraction weights blow up; near it
the trapezoid rule on a circle about both (Trefethen & Weideman, SIAM
Review 56, 385 (2014)) turns the Cauchy integral of their term into nodes
with bounded weights, used in the same sums.  The closed form averages
over the whole line, so it ignores the grid fields ``n_points`` and
``span`` of the spec.  It runs in plain Python complex arithmetic, with no
numpy array: a call takes ~17 us for the three poles of most cavities and
~0.36 ms for the 65 of a cavity inside the contour window (one core of a
2-vCPU Xeon).  Of that, the cavity's pole terms a_k f_d*(p_k) and
b_k f_s*(p_k) take ~6 us (~0.14 ms) and do not depend on the pulse; the
Faddeeva sums take the rest.  ``_pole_terms`` and ``_gaussian_average``
are the two halves, so a caller that averages one cavity over many pulses
computes the terms once.

``pulse_etas`` is the quadrature path, kept as the cross-check oracle: a
midpoint rule on [mu - span*Delta, mu + span*Delta] with
the weights renormalized to unit mass.  Its quadrature error is estimated
by Richardson comparison against the half-resolution grid and the call is
rejected when the estimate exceeds 1e-6.

The conditional post-success spin state is frequency independent: the
reflection coefficients enter the success branch only as a global
amplitude, so a finite linewidth costs efficiency but never fidelity.
``projected_spin_state`` exposes the frequency-resolved state so that
invariance can be checked rather than assumed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, _reflection, reflection_spectrum
from .gate import Etas, _recycled_etas
from .qstate import Parity, StateVector, ZeroProbabilityError, project_parity

QUADRATURE_TOL = 1e-6
# below this |p_+ - p_-| / (kappa + kappa_s + gamma), gaussian_etas swaps p_+-
# for contour nodes: their partial-fraction weights grow as 1 / gap, and so
# does the rounding error of the averages (1.5e-14 at a gap of 1e-2, kappa = 1,
# against a 50-digit evaluation).  The contour, of radius width/8, encloses
# both poles with margin only for gaps well below 1/4
_POLE_GAP_RTOL = 1e-2
_CONTOUR_NODES = 64  # trapezoid nodes on that contour; error ~2**-64 at real omega
# beyond this |p - mu| / Delta, a pole's Gaussian average is its value at mu
_ASYMPTOTIC_RATIO = 1e8


def _weideman(n: int) -> tuple[float, tuple[float, ...]]:
    """Scale L and the n polynomial coefficients (highest power first) of
    Weideman's rational approximation of the Faddeeva function."""
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = (scale * math.tan(k * math.pi / (2 * m)) for k in range(1, m))
    f = [math.exp(-x * x) * (scale ** 2 + x * x) for x in t]
    # Weideman takes these from an FFT of f(k), k = -m+1 .. m-1; f is even,
    # so that is a cosine series.  Summing it in plain floats keeps numpy.fft
    # and numpy's tan/exp/cos kernels out of the import, which measured
    # ~1 MB more resident memory in every process, pulse user or not.
    return scale, tuple(
        (scale ** 2 + 2.0 * sum(fk * math.cos(math.pi * k * j / m)
                                for k, fk in enumerate(f, 1))) / (2 * m)
        for j in range(n, 0, -1))


_W_SCALE, _W_COEFFS = _weideman(40)
_SQRT_PI = math.sqrt(math.pi)


def _faddeeva(z):
    """w(z) = exp(-z**2) erfc(-iz) for Im z >= 0, to ~2e-14 relative.

    Weideman, SIAM J. Numer. Anal. 31, 1497 (1994), with N = 40 terms.  The
    same Horner loop serves a complex number (plain complex arithmetic) and
    a numpy array (elementwise).
    """
    denom = _W_SCALE - 1j * z
    ratio = (_W_SCALE + 1j * z) / denom
    poly = 0.0
    for c in _W_COEFFS:
        poly = poly * ratio + c
    # two divisions, not denom**2, which overflows once |z| passes ~1e154
    return 2.0 * poly / denom / denom + 1.0 / (_SQRT_PI * denom)


def _mean_inverse(p: complex, mu: float, delta: float) -> complex:
    """<1 / (omega - p)> over the Gaussian spectrum of center mu and
    bandwidth delta, for a pole p below the real axis."""
    gap = p - mu
    if abs(gap) > _ASYMPTOTIC_RATIO * delta:
        # w(z) = i / (sqrt(pi) z) to rounding: the next term is 1/(2 z**2)
        # relative.  (p - mu) / delta itself may overflow here
        return 1.0 / (mu - p)
    return -1j * _SQRT_PI * _faddeeva((gap / delta).conjugate()).conjugate() / delta


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian wavepacket plus the quadrature grid of ``pulse_etas``.

    ``delta`` is the bandwidth and ``center`` the pulse-center offset from
    the cavity resonance, both in units of kappa.  ``span`` is the
    integration half-width in units of delta; the default 5 truncates less
    than 1e-12 of the spectral mass.
    """

    delta: float
    center: float = 0.0
    n_points: int = 1 << 17
    span: float = 5.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta (the pulse bandwidth) must be positive")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        if self.n_points < 16:
            raise ValueError("n_points must be at least 16")
        if not (math.isfinite(self.span) and self.span > 0):
            raise ValueError("span must be positive")


class QuadratureError(ValueError):
    """Grid too coarse for the requested accuracy."""

    def __init__(self, estimate: float, suggested_n_points: int):
        self.estimate = estimate
        self.suggested_n_points = suggested_n_points
        super().__init__(
            f"estimated quadrature error {estimate:.2e} exceeds {QUADRATURE_TOL:.0e}; "
            f"retry with n_points >= {suggested_n_points}")


def spectral_grid(params: CavityParams, spec: PulseSpec,
                  n_points: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint probe frequencies (absolute) and unit-sum spectral weights."""
    n = spec.n_points if n_points is None else n_points
    half = spec.span * spec.delta
    h = 2.0 * half / n
    offsets = spec.center - half + (np.arange(n) + 0.5) * h
    weights = np.exp(-(((offsets - spec.center) / spec.delta) ** 2))
    weights /= weights.sum()
    return params.omega_c + offsets, weights


def _averaged_pair(params: CavityParams, spec: PulseSpec, n: int) -> tuple[float, float]:
    omegas, weights = spectral_grid(params, spec, n)
    r0 = reflection_spectrum(params, omegas, coupled=False)
    r1 = reflection_spectrum(params, omegas, coupled=True)
    eta_h = float(weights @ (np.abs(r1 - r0) ** 2 / 4))
    eta_v = float(weights @ (np.abs(r1 + r0) ** 2 / 4))
    return eta_h, eta_v


def gaussian_etas(params: CavityParams, spec: PulseSpec) -> Etas:
    """Exact frequency-averaged efficiencies of the gate for a Gaussian pulse.

    Evaluates the spectral averages in closed form (see the module
    docstring) at every cavity, the exceptional point included; agrees
    with ``pulse_etas`` to ~1e-12, the quadrature's own accuracy.  The grid
    fields ``n_points`` and ``span`` of the spec serve only ``pulse_etas``
    and are ignored here.  ~17 us for most cavities; the module docstring
    splits that between the pole terms and the Faddeeva sums.
    Raises DegenerateRecycleError when the averaged eta_V reaches one.
    """
    return _gaussian_average(params, _pole_terms(params), spec)


def _pole_terms(params: CavityParams) -> tuple[tuple[complex, complex, complex], ...]:
    """(p_k, a_k f_d*(p_k), b_k f_s*(p_k)) for p_B and each coupled pole or
    contour node p_k: the part of ``gaussian_etas`` that no pulse changes."""
    p_a = params.omega_x - 0.5j * params.gamma
    p_b = params.omega_c - 0.5j * (params.kappa + params.kappa_s)
    width = params.kappa + params.kappa_s + params.gamma
    mid = (p_a + p_b) / 2
    root = cmath.sqrt(((p_a - p_b) / 2) ** 2 + params.g ** 2)
    # r0 = 1 - i kappa / (omega - p_B); r1 = 1 - i kappa sum_k c_k / (omega - p_k)
    if 2.0 * abs(root) < _POLE_GAP_RTOL * width:
        # over trapezoid nodes on |z - mid| = width/8 (|Im mid| = width/4):
        # Cauchy's integral of c(z) = (z - p_A) / ((z - mid)**2 - root**2)
        circle = [width / 8 * cmath.exp(2j * math.pi * k / _CONTOUR_NODES)
                  for k in range(_CONTOUR_NODES)]
        nodes = [mid + r for r in circle]
        weights = [(z - p_a) * r / (r * r - root * root) / _CONTOUR_NODES
                   for z, r in zip(nodes, circle)]
    else:
        # over p_+-, with c_+ + c_- = 1
        nodes = [mid + root, mid - root]
        c_plus = (nodes[0] - p_a) / (2.0 * root)
        weights = [c_plus, 1.0 - c_plus]
    # d = sum_k a_k / (omega - p_k) and s = 1 + sum_k b_k / (omega - p_k) over
    # p_B and the nodes, with a = gain (e - c), b = -gain (e + c): e picks p_B
    gain = 0.5j * params.kappa
    poles = [p_b] + nodes
    empty = [1.0] + [0.0] * len(nodes)
    coupled = [0.0] + weights
    terms = []
    for p, e, c in zip(poles, empty, coupled):
        # f*(p) = conj(f(conj p)): one pair of closed forms at conj p serves
        # the d and the s term
        r0 = _reflection(params, p.conjugate(), coupled=False)
        r1 = _reflection(params, p.conjugate(), coupled=True)
        terms.append((p, gain * (e - c) * ((r1 - r0) / 2).conjugate(),
                      -gain * (e + c) * ((r1 + r0) / 2).conjugate()))
    return tuple(terms)


def _gaussian_average(params: CavityParams, terms, spec: PulseSpec) -> Etas:
    """``gaussian_etas`` from the cavity's ``_pole_terms``: one Faddeeva
    evaluation per term."""
    mu = params.omega_c + spec.center
    sum_d = sum_s = 0j
    for p, d_term, s_term in terms:
        mean = _mean_inverse(p, mu, spec.delta)
        sum_d += d_term * mean
        sum_s += s_term * mean
    # <|f|**2> = |f(inf)|**2 + 2 Re sum_k a_k f*(p_k) <1 / (omega - p_k)>
    return _recycled_etas(2.0 * sum_d.real, 1.0 + 2.0 * sum_s.real, "averaged eta_V")


def pulse_etas(params: CavityParams, spec: PulseSpec) -> Etas:
    """Frequency-averaged efficiencies of the gate for a Gaussian pulse.

    The Delta -> 0 limit reproduces the monochromatic values at the pulse
    center.  Raises QuadratureError (with a workable n_points suggestion)
    when the self-estimated quadrature error exceeds 1e-6, and
    DegenerateRecycleError when the averaged eta_V reaches one.
    """
    eta_h, eta_v = _averaged_pair(params, spec, spec.n_points)
    coarse_h, coarse_v = _averaged_pair(params, spec, spec.n_points // 2)
    # midpoint rule converges as h**2, so the Richardson error of the fine
    # grid is one third of the grid-to-grid difference
    estimate = max(abs(eta_h - coarse_h), abs(eta_v - coarse_v)) / 3.0
    if estimate > QUADRATURE_TOL:
        factor = math.sqrt(estimate / (QUADRATURE_TOL / 10.0))
        suggested = 1 << math.ceil(math.log2(spec.n_points * factor))
        raise QuadratureError(estimate, suggested)
    return _recycled_etas(eta_h, eta_v, "averaged eta_V")


def projected_spin_state(params: CavityParams, omega: float, state: StateVector,
                         q1: int, q2: int, outcome: Parity) -> StateVector:
    """Post-success spin state conditioned on detection at one frequency.

    The unnormalized branch is d(omega) times the signed parity projection
    of the register; the returned ray is its normalization.  Raises
    ZeroProbabilityError when d(omega) vanishes (no success amplitude at
    that frequency).
    """
    r0 = complex(reflection_spectrum(params, omega, coupled=False))
    r1 = complex(reflection_spectrum(params, omega, coupled=True))
    d = (r1 - r0) / 2
    if abs(d) ** 2 < 1e-24:
        raise ZeroProbabilityError("success amplitude vanishes at this frequency")
    projected, prob = project_parity(state, q1, q2, outcome)
    branch = d * math.sqrt(prob) * projected.amps
    return StateVector(state.n, branch / np.linalg.norm(branch))
