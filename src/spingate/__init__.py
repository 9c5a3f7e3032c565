"""Heralded error-rejecting entangling gate for cavity-coupled spins.

Desk-scale simulator of a parity-projecting spin-spin gate mediated by
single-photon reflection off single-sided cavities: analytic success and
recycle probabilities, repeat-until-success Monte Carlo under realistic
imperfections, finite-bandwidth pulse averaging, and 1D cluster-state
growth built on the gate.
"""

from .cavity import (CavityParams, ReflectionPair, reflection, reflection_pair,
                     reflection_spectrum)
from .cluster import (ChainState, ConnectResult, FactoryStats, GrowResult,
                      GrowthStrategy, add_fresh, canonical_cluster, chain_fidelity,
                      connect_chains, expected_gate_ops, grow_chain, new_chain,
                      simulate_factory)
from .gate import (DegenerateRecycleError, Etas, GateConfig, GateOutcome,
                   GateResult, GateRuns, ModelDomainError, OutcomeDistribution,
                   RunOutcome, analytic_etas, run_gate, run_moments, sample_runs,
                   single_shot_distribution)
from .pulse import (PulseSpec, QuadratureError, gaussian_etas, projected_spin_state,
                    pulse_etas, spectral_grid)
from .qstate import (EntangledCutError, Parity, SpinOutcome, StateVector,
                     ZeroProbabilityError, apply_1q, collapse_z, fidelity,
                     measure_z, parity_weights, project_parity, split,
                     subsystem_fidelity, tensor)
from .sweep import (OUTPUT_COLUMNS, SweepAxis, SweepBaseline, SweepSpec, Table,
                    emit, grid_from_string, parse_csv, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "CavityParams", "ReflectionPair", "reflection", "reflection_pair",
    "reflection_spectrum",
    "StateVector", "Parity", "SpinOutcome", "apply_1q", "project_parity",
    "parity_weights", "fidelity", "measure_z", "collapse_z", "tensor", "split",
    "subsystem_fidelity", "ZeroProbabilityError", "EntangledCutError",
    "GateConfig", "GateOutcome", "GateResult", "OutcomeDistribution", "Etas",
    "analytic_etas", "single_shot_distribution", "run_gate",
    "RunOutcome", "GateRuns", "sample_runs", "run_moments",
    "DegenerateRecycleError", "ModelDomainError",
    "PulseSpec", "QuadratureError", "gaussian_etas", "pulse_etas",
    "projected_spin_state", "spectral_grid",
    "ChainState", "GrowResult", "ConnectResult", "GrowthStrategy", "FactoryStats",
    "new_chain", "add_fresh", "canonical_cluster", "chain_fidelity", "grow_chain",
    "connect_chains", "simulate_factory", "expected_gate_ops",
    "SweepAxis", "SweepBaseline", "SweepSpec", "Table", "OUTPUT_COLUMNS",
    "run_sweep", "emit", "parse_csv", "grid_from_string",
]
