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

``_EXPORTS`` lists each public name once, under the submodule that defines
it.  ``import inspection_contracts`` imports no submodule: each name loads
its module on first access (PEP 562), and a submodule is a package attribute
once it is imported.  Only ``oracle`` and ``grid_dp`` import numpy.
``allocate`` imports ``grid_dp`` only when an explicit ``delta`` selects the
grid DP, or when the exact split meets a duality gap and runs it at step
0.01, so the single-agent stack, the scheduler and the default ``allocate``
run without numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "envelope": ("Action", "UpperEnvelope", "build_envelope", "eval_envelope", "invert_envelope"),
    "errors": (
        "BudgetExceeded", "ContractError", "DegenerateInput", "InfeasibleBudget",
        "InfeasibleError", "InfeasibleSafety", "InvalidProbability", "NoSafeContract",
        "ValidationError",
    ),
    "grid_dp": ("gap_bound",),
    "instances": ("Instance", "NamedAgent", "load_instance", "parse_instance"),
    "multi_agent": (
        "Allocation", "AllocationProblem", "UtilityCurve", "allocate", "best_contract_at",
        "build_utility_curve", "utility_at",
    ),
    "oracle": ("brute_force_allocate", "brute_force_single", "check_ic_ir"),
    "scheduler": ("InspectionSchedule", "build_schedule", "exact_marginals", "sample_assignment"),
    "single_agent": (
        "AgentSpec", "BetaCurve", "BetaPiece", "Contract", "ContractChoice",
        "SingleAgentSolution", "SweepPoint", "agent_best_response", "beta_at",
        "build_beta_curve", "needs_inspection", "principal_utility", "solve_single",
        "sweep_parameter",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
