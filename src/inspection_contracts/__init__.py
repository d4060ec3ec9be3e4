"""Optimal linear contracts with random safety inspections.

Library layout:

* ``envelope``     - upper envelope of the agent-utility lines (hull duality)
* ``single_agent`` - the beta(gamma) curve, the optimal contract, statics sweeps
* ``multi_agent``  - per-agent utility curves and the exact (Lagrangian)
                     budget split
* ``grid_dp``      - the paper's grid DP for the budget split
* ``scheduler``    - sequential randomized inspector assignment, exact marginals
* ``oracle``       - brute-force cross-checks for all of the above
* ``instances``    - strict JSON instance ingestion
* ``cli``          - batch front end

Only ``oracle`` and ``grid_dp`` import numpy.  ``allocate`` imports
``grid_dp`` only when an explicit ``delta`` selects the grid DP, or when the
exact split meets a duality gap and runs it at step 0.01.  The names of
``multi_agent``, ``grid_dp`` and ``oracle`` are loaded on first access, so
``import inspection_contracts``, the single-agent stack and the default
``allocate`` run without numpy.
"""

from importlib import import_module

from .envelope import (
    Action,
    UpperEnvelope,
    build_envelope,
    eval_envelope,
    invert_envelope,
)
from .errors import (
    BudgetExceeded,
    ContractError,
    DegenerateInput,
    InfeasibleBudget,
    InfeasibleError,
    InfeasibleSafety,
    InvalidProbability,
    NoSafeContract,
    ValidationError,
)
from .instances import Instance, NamedAgent, load_instance, parse_instance
from .scheduler import (
    InspectionSchedule,
    build_schedule,
    exact_marginals,
    sample_assignment,
)
from .single_agent import (
    AgentSpec,
    BetaCurve,
    BetaPiece,
    Contract,
    ContractChoice,
    SingleAgentSolution,
    SweepPoint,
    agent_best_response,
    beta_at,
    build_beta_curve,
    needs_inspection,
    principal_utility,
    solve_single,
    sweep_parameter,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AgentSpec",
    "Allocation",
    "AllocationProblem",
    "BetaCurve",
    "BetaPiece",
    "BudgetExceeded",
    "Contract",
    "ContractChoice",
    "ContractError",
    "DegenerateInput",
    "InfeasibleBudget",
    "InfeasibleError",
    "InfeasibleSafety",
    "InspectionSchedule",
    "Instance",
    "InvalidProbability",
    "NamedAgent",
    "NoSafeContract",
    "SingleAgentSolution",
    "SweepPoint",
    "UpperEnvelope",
    "UtilityCurve",
    "ValidationError",
    "agent_best_response",
    "allocate",
    "best_contract_at",
    "beta_at",
    "brute_force_allocate",
    "brute_force_single",
    "build_beta_curve",
    "build_envelope",
    "build_schedule",
    "build_utility_curve",
    "check_ic_ir",
    "eval_envelope",
    "exact_marginals",
    "gap_bound",
    "invert_envelope",
    "load_instance",
    "needs_inspection",
    "parse_instance",
    "principal_utility",
    "sample_assignment",
    "solve_single",
    "sweep_parameter",
    "utility_at",
]

# name -> the submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        (
            "Allocation",
            "AllocationProblem",
            "UtilityCurve",
            "allocate",
            "best_contract_at",
            "build_utility_curve",
            "utility_at",
        ),
        "multi_agent",
    ),
    "gap_bound": "grid_dp",
    **dict.fromkeys(
        ("brute_force_allocate", "brute_force_single", "check_ic_ir"), "oracle"
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
