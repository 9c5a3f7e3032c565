"""The benchmark's exact laws, for the tests to read rather than copy.

``perfbench/oracles.py`` computes every reference from the physics
without importing spingate: the capped success probability and attempts
law of one gate run, the factory's exact mean oracles, and ``sum_tail``,
the exact two-sided tail of a pooled count.  ``perfbench_module`` loads a
``perfbench/`` file by path, registers it in ``sys.modules`` (``dataclass``
looks a class's module up there) and writes no bytecode next to it.

``assert_counts`` turns a list of ``oracles.Count`` into a pass or a fail
at a stated level: the exact tail of their observed sum must reach it.
A test that makes k such checks states its family-wise level divided by
k (Bonferroni), as ``oracles.ALPHA`` does for a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """``perfbench/<name>.py``, loaded as the module ``perfbench_<name>``."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


oracles = perfbench_module("oracles")
attempts_pmf = oracles.attempts_pmf
capped_success = oracles.capped_success
gate_op_moments = oracles.gate_op_moments
pairwise_expected_ops = oracles.pairwise_expected_ops
sequential_expected_ops = oracles.sequential_expected_ops


def assert_counts(counts, level):
    """Fail unless the exact two-sided tail of the counts' observed sum,
    under the sum of their laws, is at least ``level``."""
    tail = oracles.sum_tail(counts)
    observed = sum(count.observed for count in counts)
    expected = sum(count.draws * count.mean for count in counts)
    assert tail >= level, (f"{counts[0].what} {observed} vs expected {expected:.9g}: "
                           f"two-sided tail {tail:.3g} < {level:.3g}")
