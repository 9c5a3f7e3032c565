"""Steady-state reflection of a single-sided cavity with an embedded emitter.

A probe photon entering the lone input/output port of a cavity (coupling
rate ``kappa``, side leakage ``kappa_s``) that may host a two-level emitter
(coupling ``g``, linewidth ``gamma``) is reflected with the complex
coefficient

    r_j(omega) = 1 - kappa * A / (A * B + j * g**2)

    A = i * (omega_x - omega) + gamma / 2
    B = i * (omega_c - omega) + (kappa + kappa_s) / 2

where ``j = 1`` if the photon polarization drives the emitter transition
and ``j = 0`` if it sees an empty cavity.  Everything in this module is an
exact evaluation of that closed form; there is no time integration.

Conventions:

* All rates and frequencies are quoted in units of ``kappa`` (leave
  ``kappa = 1``).  Only frequency *differences* enter the formula, so
  ``omega_c``, ``omega_x`` and ``omega_probe`` are offsets from an
  arbitrary common origin; the usual choice is ``omega_probe = 0``.
* The cooperativity is ``C = g**2 / (gamma * (kappa + kappa_s))``.
  ``C = 1/4`` is the resonance-scattering point; larger is the Purcell
  regime.
* ``d = (r1 - r0)/2`` and ``s = (r1 + r0)/2`` are the amplitude factors of
  the heralded-success and recycle branches of the entangling gate built
  on two such cavities.

The closed form assumes the emitter stays near its ground state (weak
excitation); that regime is assumed, not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class CavityParams:
    """Physical rates and frequencies of one cavity-emitter system."""

    omega_c: float = 0.0
    omega_x: float = 0.0
    omega_probe: float = 0.0
    kappa: float = 1.0
    kappa_s: float = 0.0
    gamma: float = 0.1
    g: float = 0.0

    def __post_init__(self) -> None:
        fields = (self.omega_c, self.omega_x, self.omega_probe,
                  self.kappa, self.kappa_s, self.gamma, self.g)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError("cavity parameters must be finite")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.kappa_s < 0:
            raise ValueError("kappa_s must be non-negative")
        if self.g < 0:
            raise ValueError("g must be non-negative")

    @classmethod
    def from_cooperativity(cls, cooperativity: float, *, kappa_ratio: float = 13.0,
                           gamma: float = 0.1, probe_detuning: float = 0.0,
                           trion_offset: float = 0.0, kappa: float = 1.0) -> "CavityParams":
        """Build parameters with g solved from C = g**2 / (gamma * (kappa + kappa_s)).

        ``kappa_ratio`` is kappa/kappa_s (``math.inf`` for a leak-free
        cavity), ``probe_detuning`` is omega_c - omega_probe and
        ``trion_offset`` is omega_x - omega_c.  The probe sits at frequency
        origin 0.
        """
        if cooperativity < 0 or not math.isfinite(cooperativity):
            raise ValueError("cooperativity must be finite and non-negative")
        if kappa_ratio <= 0:
            raise ValueError("kappa_ratio must be positive")
        kappa_s = 0.0 if math.isinf(kappa_ratio) else kappa / kappa_ratio
        # a radicand below 0 means gamma or kappa <= 0, which __post_init__ names
        g = math.sqrt(max(0.0, cooperativity * gamma * (kappa + kappa_s)))
        return cls(omega_c=probe_detuning, omega_x=probe_detuning + trion_offset,
                   omega_probe=0.0, kappa=kappa, kappa_s=kappa_s, gamma=gamma, g=g)

    @property
    def cooperativity(self) -> float:
        return self.g ** 2 / (self.gamma * (self.kappa + self.kappa_s))

    def at_probe(self, omega_probe: float) -> "CavityParams":
        """Same system probed at a different frequency."""
        return replace(self, omega_probe=omega_probe)


@dataclass(frozen=True)
class ReflectionPair:
    """Both reflection coefficients of one system plus the gate combinations.

    ``d = (r1 - r0)/2`` multiplies the heralded-success branch and
    ``s = (r1 + r0)/2`` the recycle branch.  The parallelogram identity
    ``|d|**2 + |s|**2 = (|r0|**2 + |r1|**2)/2`` holds by construction.
    """

    r0: complex
    r1: complex
    d: complex
    s: complex

    def __post_init__(self) -> None:
        for r in (self.r0, self.r1):
            if not (math.isfinite(r.real) and math.isfinite(r.imag)):
                raise ValueError("reflection coefficients must be finite")
            if abs(r) > 1 + 1e-9:
                raise ValueError("reflection coefficients must satisfy |r| <= 1")

    @classmethod
    def from_coefficients(cls, r0: complex, r1: complex) -> "ReflectionPair":
        r0, r1 = complex(r0), complex(r1)
        return cls(r0=r0, r1=r1, d=(r1 - r0) / 2, s=(r1 + r0) / 2)

    @classmethod
    def ideal(cls) -> "ReflectionPair":
        """Perfect circular birefringence: r1 = 1, r0 = -1."""
        return cls.from_coefficients(-1.0, 1.0)


def _reflection(params: CavityParams, omega, coupled: bool):
    """The closed form at probe frequency ``omega``: a number gives a complex
    number, an array an array.  A complex ``omega`` continues it off the
    real axis, as ``pulse.gaussian_etas`` needs."""
    a = 1j * (params.omega_x - omega) + params.gamma / 2
    b = 1j * (params.omega_c - omega) + (params.kappa + params.kappa_s) / 2
    den = a * b + (params.g ** 2 if coupled else 0.0)
    return 1.0 - params.kappa * a / den


def reflection_spectrum(params: CavityParams, omega_probe, coupled: bool) -> np.ndarray:
    """Reflection coefficient evaluated at an array of probe frequencies."""
    omega = np.asarray(omega_probe, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("probe frequencies must be finite")
    return _reflection(params, omega, coupled)


def reflection(params: CavityParams, coupled: bool) -> complex:
    """Spin-dependent reflection coefficient of the cavity-emitter system.

    ``coupled=True`` selects the branch where the photon drives the emitter
    transition; ``coupled=False`` the empty-cavity branch (the ``g**2`` term
    drops out).  Plain complex arithmetic: no array is built.
    """
    return _reflection(params, params.omega_probe, coupled)


def reflection_pair(params: CavityParams) -> ReflectionPair:
    """Both coefficients and their gate combinations at the probe frequency."""
    return ReflectionPair.from_coefficients(reflection(params, coupled=False),
                                            reflection(params, coupled=True))
