"""Reference values and output checks, written without importing spingate.

Every reference here is computed from the physics, not from the library
under test, so a wrong library result cannot also move its reference:

* the cavity reflection closed form (for the Monte Carlo and pulse
  columns of the sweeps);
* the capped repeat-until-success statistics of one gate operation;
* the exact factory resource oracles.  ``gate_op_moments``,
  ``sequential_expected_ops`` and ``pairwise_expected_ops`` are the
  oracles of ``tests/test_cluster.py``, copied because the test suite is
  not library code; the generating functions next to them give the exact
  distributions whose means those oracles are.

Each ``check_*`` function returns ``None`` when the output passes and a
one-line reason when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyval

SIGMAS = 4.0
# two-sided tail mass of a normal variable beyond 4 sigma
TAIL_4SIGMA = math.erfc(SIGMAS / math.sqrt(2.0))
# A run makes at most MAX_CHECKS statistical checks (sweep_mc: 26 Monte
# Carlo rows x 2 columns + 2 for the whole run, factory: 30 jobs x 2
# counts + 2 strategies x 2 for the whole run).  Each is made at
# level ALPHA, so that a correct library fails some check of a run with
# probability at most TAIL_4SIGMA (Bonferroni), not MAX_CHECKS times that.
MAX_CHECKS = 64
ALPHA = TAIL_4SIGMA / MAX_CHECKS
MAX_GRID = 1 << 20
PULSE_ATOL = 1e-6
CHAIN_FIDELITY_FLOOR = 1.0 - 1e-10


# --- cavity physics ---------------------------------------------------------

def reflection(cooperativity, kappa_ratio, gamma, detuning, omega, coupled):
    """r_j(omega) = 1 - kappa A / (A B + j g^2), kappa = 1, probe at omega.

    ``detuning`` is omega_c - omega_probe with the probe at 0 and the
    emitter on cavity resonance, as the sweep CLI sets them up.
    """
    kappa_s = 0.0 if math.isinf(kappa_ratio) else 1.0 / kappa_ratio
    g2 = cooperativity * gamma * (1.0 + kappa_s)
    omega = np.asarray(omega, dtype=float)
    a = 1j * (detuning - omega) + gamma / 2
    b = 1j * (detuning - omega) + (1.0 + kappa_s) / 2
    return 1.0 - a / (a * b + (g2 if coupled else 0.0))


def single_shot(cooperativity, kappa_ratio, gamma, detuning,
                eta_in=1.0, detector_efficiency=1.0):
    """(p_success, p_recycle) of one photon on a parity-balanced register.

    Raises ValueError outside the coherent mode-mismatch model's domain
    (branch probabilities summing above one).
    """
    r0 = complex(reflection(cooperativity, kappa_ratio, gamma, detuning, 0.0, False))
    r1 = complex(reflection(cooperativity, kappa_ratio, gamma, detuning, 0.0, True))
    d, s = (r1 - r0) / 2, (r1 + r0) / 2
    p_success = detector_efficiency * eta_in ** 2 * abs(d) ** 2
    p_recycle = detector_efficiency * abs(eta_in * s + math.sqrt(1.0 - eta_in ** 2)) ** 2
    if p_success + p_recycle > 1.0 + 1e-12:
        raise ValueError("outside the mode-mismatch model's domain")
    return p_success, p_recycle


def capped_success(p_success, p_recycle, max_recycles):
    """eta_H (1 - eta_V^(R+1)) / (1 - eta_V): success within R recycles."""
    return p_success * sum(p_recycle ** k for k in range(max_recycles + 1))


def attempts_pmf(p_recycle, max_recycles):
    """P(A = k), k = 0 .. R + 1, of A = min(Geometric(1 - eta_V), R + 1)."""
    k = np.arange(max_recycles + 2)
    pmf = np.where(k >= 1, p_recycle ** np.maximum(k - 1, 0) * (1.0 - p_recycle), 0.0)
    pmf[-1] = p_recycle ** max_recycles
    return pmf


def pulse_eta_s(cooperativity, kappa_ratio, gamma, detuning, delta, center=0.0,
                intervals=1 << 18):
    """Gaussian-pulse eta_S by composite Simpson over mu +- 8 delta.

    The pulse is centred ``center`` away from the cavity resonance, and the
    spectral density is normalised analytically, not by the grid sum.
    """
    mu = detuning + center
    omega = np.linspace(mu - 8.0 * delta, mu + 8.0 * delta, intervals + 1)
    density = np.exp(-(((omega - mu) / delta) ** 2)) / (math.sqrt(math.pi) * delta)
    r0 = reflection(cooperativity, kappa_ratio, gamma, detuning, omega, False)
    r1 = reflection(cooperativity, kappa_ratio, gamma, detuning, omega, True)
    weights = np.ones(intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (omega[1] - omega[0]) / 3.0
    eta_h = float(weights @ (np.abs(r1 - r0) ** 2 / 4 * density))
    eta_v = float(weights @ (np.abs(r1 + r0) ** 2 / 4 * density))
    return eta_h / (1.0 - eta_v)


# --- factory oracles (copied from tests/test_cluster.py) ---------------------

def pair_etas(r0, r1):
    """eta_H and eta_V of a reflection pair, |r1 -+ r0|^2 / 4."""
    return abs(r1 - r0) ** 2 / 4, abs(r1 + r0) ** 2 / 4


def gate_op_moments(r0, r1, max_recycles):
    """Exact per-operation success probability and expected photon count."""
    s, v = pair_etas(r0, r1)
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


# --- exact distributions of pooled counts ------------------------------------
#
# Every statistical check compares an observed total (successes, photons,
# gate operations summed over the pooled trials) with the exact
# distribution of that total, not with a normal approximation: the counts
# are skewed (few expected events, geometric tails), and a 5-sigma total
# of factory gate operations is 25 times likelier than the normal curve
# says.  A total's distribution is the per-trial probability generating
# function raised to the number of trials, inverted on roots of unity.
#
# A gate operation succeeds with reward W or fails with reward W, where W
# is 1 when counting operations and its photon count when counting
# photons.  With S(z) = E[z^W; success] and F(z) = E[z^W; fail], the
# hitting time T_j from chain length j to j + 1 obeys
#     T_j = W + [fail] (T_{j-1} + T_j'),   T_0 = 0,
# so T_j(z) = S(z) / (1 - F(z) T_{j-1}(z)); a pairwise connection of
# halves l and r that regrows both after a failure has the PGF
# S(z) / (1 - F(z) T_{l-1}(z) T_{r-1}(z)).

def op_reward_pmfs(r0, r1, max_recycles, photons):
    """(P(success, W = k), P(fail, W = k)) over k = 0 .. R + 1 for one gate
    operation; W counts photons, or is 1 when ``photons`` is false."""
    s, v = pair_etas(r0, r1)
    loss = 1.0 - s - v
    win, lose = np.zeros(max_recycles + 2), np.zeros(max_recycles + 2)
    for k in range(1, max_recycles + 2):       # the operation ends at attempt k
        w = k if photons else 1
        win[w] += s * v ** (k - 1)
        lose[w] += loss * v ** (k - 1)
    lose[max_recycles + 1 if photons else 1] += v ** (max_recycles + 1)
    return win, lose


def factory_pgf(target, pairwise, win, lose):
    """PGF of one factory trial's total reward, from ``op_reward_pmfs``."""
    def pgf(z):
        success, fail = polyval(z, win), polyval(z, lose)
        steps = [np.ones_like(z)]               # T_0, T_1, ... T_{target-1}
        for _ in range(1, target):
            steps.append(success / (1.0 - fail * steps[-1]))
        if not pairwise:
            return np.prod(steps, axis=0)

        def build(length):
            if length == 1:
                return steps[0]
            left, right = (length + 1) // 2, length // 2
            connect = success / (1.0 - fail * steps[left - 1] * steps[right - 1])
            return build(left) * build(right) * connect
        return build(target)
    return pgf


def grid_pmf(pgf, size, low=0):
    """P(X = k), low <= k < low + size, of a count X with PGF ``pgf``:
    the coefficients of z^-low pgf(z) on ``size`` roots of unity.  Mass
    outside the window folds into it, modulo ``size``."""
    j = np.arange(size)
    z = np.exp(2j * np.pi * j / size)
    return np.fft.fft(pgf(z) * np.exp(-2j * np.pi * (j * low % size) / size)).real / size


def _window(pgf, mean, spread):
    """(low, pmf) on the smallest window about ``mean``, at least
    ``spread`` wide, whose top eighth -- and bottom eighth unless it starts
    at zero -- hold less than 1e-9 of the mass: far below ALPHA, and above
    the round-off of the transform (up to ~1e-11 summed over an eighth of
    2^16 points).  With mass left beyond the window, monotone tails would
    show in those eighths."""
    size = 1 << max(10, int(spread).bit_length())
    while True:
        low = max(0, int(mean) - size // 2)
        pmf = grid_pmf(pgf, size, low)
        edge = size // 8
        if pmf[-edge:].sum() < 1e-9 and (low == 0 or pmf[:edge].sum() < 1e-9):
            return low, pmf
        if size >= MAX_GRID:
            raise ValueError(f"a count does not fit {MAX_GRID} points")
        size *= 2


@dataclass(frozen=True)
class Count:
    """An observed count and its exact law: the sum of ``draws``
    independent draws with PGF ``pgf``, whose mean ``mean`` is the
    reference."""
    what: str
    observed: int
    pgf: Callable
    draws: int
    mean: float


def sum_tail(counts):
    """2 min(P(T <= t), P(T >= t)) for the sum T of the counts' laws at
    their observed sum t.  One draw of each law, which starts at zero,
    gives its mean and variance; T's window spans 40 standard deviations
    about its mean."""
    mean = variance = 0.0
    for count in counts:
        _, one = _window(count.pgf, 0, 1)
        k = np.arange(len(one))
        m = float(k @ one)
        mean += count.draws * m
        variance += count.draws * max(0.0, float(k * k @ one) - m * m)

    def pgf(z):
        product = np.ones_like(z)
        for count in counts:
            product *= count.pgf(z) ** count.draws
        return product

    low, pmf = _window(pgf, mean, 40.0 * math.sqrt(variance) + 128)
    index = sum(count.observed for count in counts) - low
    if not 0 <= index < len(pmf):
        return 0.0
    lower, upper = pmf[:index + 1].sum(), pmf[index:].sum()
    return min(1.0, 2.0 * max(0.0, min(lower, upper)))


# --- checks --------------------------------------------------------------------

def _read_count(value, trials, what):
    """(count, None) for a printed per-trial mean, or (None, reason)."""
    count = round(value * trials)
    if abs(count - value * trials) > 1e-6 * trials:
        return None, f"{what} {value!r} is not a count over {trials} trials"
    return count, None


def success_count(rate, trials, reference):
    """(Count, None) for a printed success rate of ``trials`` runs that each
    succeed with ``reference``, or (None, reason)."""
    k, problem = _read_count(rate, trials, "mc_eta_S")
    if problem:
        return None, problem
    return Count("successes", k, lambda z: 1.0 - reference + reference * z,
                 trials, reference), None


def attempts_count(mean_attempts, trials, p_recycle, max_recycles):
    """(Count, None) for the printed mean photons of ``trials`` gate runs,
    each a truncated geometric, or (None, reason)."""
    total, problem = _read_count(mean_attempts, trials, "mean_attempts")
    if problem:
        return None, problem
    pmf = attempts_pmf(p_recycle, max_recycles)
    return Count("attempts", total, lambda z: polyval(z, pmf), trials,
                 float(np.arange(len(pmf)) @ pmf)), None


def check_counts(counts):
    """Observed counts, summed, against the sum of their exact laws."""
    tail = sum_tail(counts)
    if tail < ALPHA:
        draws = sum(c.draws for c in counts)
        return (f"{counts[0].what} {sum(c.observed for c in counts)} over {draws} trials "
                f"vs reference {sum(c.draws * c.mean for c in counts):.9g} "
                f"(two-sided tail {tail:.2e} < {ALPHA:.2e})")
    return None


def check_close(observed, reference, atol, what):
    if not abs(observed - reference) <= atol:
        return f"{what} {observed:.9g} vs reference {reference:.9g} (atol {atol:g})"
    return None


def check_fidelity(fidelity, what):
    if not fidelity >= CHAIN_FIDELITY_FLOOR:
        return f"{what} fidelity {fidelity!r} below {CHAIN_FIDELITY_FLOOR!r}"
    return None
