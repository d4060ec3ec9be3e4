"""What each entry point loads.  ``import inspection_contracts`` loads no
submodule, and each public name loads only its own module, on first access.
numpy is loaded only by ``verify``, through ``oracle``, and by the grid DP,
``grid_dp``, which --delta selects and the exact split runs only on a duality
gap; ``verify`` prices the oracle's cap grids without ``grid_dp``."""

import ast
import os
import pathlib
import subprocess
import sys

import inspection_contracts

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "examples" / "instance.json"
SRC = pathlib.Path(inspection_contracts.__file__).resolve().parents[1]

# with None in sys.modules, any import of numpy raises ImportError
NO_NUMPY = 'import sys; sys.modules["numpy"] = None\n'

RUN_SUBCOMMANDS = """\
import sys
import inspection_contracts
from inspection_contracts.cli import main

path = sys.argv[1]
for argv in {argvs!r}:
    code = main([argv[0], path, *argv[1:]])
    assert code == 0, (argv, code)
print(*(sys.modules.get(m) is not None for m in {modules!r}))
"""

# numpy, and the two modules that import it: oracle, which only verify
# imports, and grid_dp, which multi_agent imports only in the branch of
# allocate that runs the grid DP
NUMPY_MODULES = ("numpy", "inspection_contracts.oracle", "inspection_contracts.grid_dp")

SINGLE_AGENT = [
    ["solve"],
    ["beta-curve", "--agent", "a1", "--samples", "5"],
    ["sweep", "--agent", "a1", "--param", "kappa_i", "--from", "0.5", "--to", "2", "--steps", "3"],
    ["schedule", "--targets", "0.5,0.25", "--samples", "10"],
]

EXACT_ALLOCATION = [
    ["allocate"],
    ["schedule", "--from-allocation", "--samples", "10"],
]


def run_python(code, *args):
    """Runs ``code`` in a fresh interpreter that imports this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def run_child(argvs, block_numpy):
    code = RUN_SUBCOMMANDS.format(argvs=argvs, modules=NUMPY_MODULES)
    if block_numpy:
        code = NO_NUMPY + code
    return run_python(code, str(EXAMPLE))


def loaded_after(statement):
    """numpy and the package's submodules, if loaded after ``statement``."""
    proc = run_python(
        f"import sys\n{statement}\n"
        'print(sorted(m for m in sys.modules if m == "numpy"'
        ' or m.startswith("inspection_contracts.")))'
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import inspection_contracts") == []


def test_a_public_name_loads_only_its_own_module():
    loaded = loaded_after("from inspection_contracts import build_schedule")
    assert "inspection_contracts.scheduler" in loaded
    others = ["numpy"] + [
        f"inspection_contracts.{m}" for m in ("single_agent", "multi_agent", "grid_dp", "oracle")
    ]
    assert not set(loaded) & set(others), loaded


def test_single_agent_subcommands_run_without_numpy():
    proc = run_child(SINGLE_AGENT, block_numpy=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False False"


def test_default_allocation_runs_without_numpy():
    proc = run_child(EXACT_ALLOCATION, block_numpy=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False False"


def test_grid_dp_loads_numpy():
    # keeps the checks above from passing because nothing ever imports numpy
    proc = run_child([["allocate", "--delta", "0.01"]], block_numpy=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False True"
    blocked = run_child([["allocate", "--delta", "0.01"]], block_numpy=True)
    assert blocked.returncode != 0
    assert "numpy" in blocked.stderr


def test_verify_loads_the_oracle_but_not_grid_dp():
    # the example's exact split has no duality gap, and the oracle prices its
    # cap grids with multi_agent's own rule
    proc = run_child([["verify"]], block_numpy=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True True False"


def test_every_exported_name_resolves_and_is_listed():
    listed = set(dir(inspection_contracts))
    for name in inspection_contracts.__all__:
        assert name in listed, name
        assert getattr(inspection_contracts, name) is not None, name
    assert not hasattr(inspection_contracts, "no_such_name")
    from inspection_contracts import allocate, cli, multi_agent

    assert allocate is multi_agent.allocate
    assert cli.__name__ == "inspection_contracts.cli"


# a literal copy: a name dropped from, added to or moved in the table fails here
PUBLIC_NAMES = [
    "Action", "ActionSet", "AgentSpec", "Allocation", "AllocationProblem", "BetaCurve",
    "BetaPiece", "BudgetExceeded", "Contract", "ContractChoice", "ContractError",
    "DegenerateInput", "InfeasibleBudget", "InfeasibleError", "InfeasibleSafety",
    "InspectionSchedule", "Instance", "InvalidProbability", "NamedAgent", "NoSafeContract",
    "SingleAgentSolution", "SweepPoint", "UpperEnvelope", "UtilityCurve",
    "ValidationError", "agent_best_response", "allocate", "best_contract_at", "beta_at",
    "brute_force_allocate", "brute_force_single", "build_beta_curve", "build_envelope",
    "build_schedule", "build_utility_curve", "check_ic_ir", "eval_envelope",
    "exact_marginals", "gap_bound", "invert_envelope", "load_instance", "needs_inspection",
    "parse_instance", "principal_utility", "sample_assignment", "solve_single",
    "sweep_parameter", "utility_at",
]


def test_public_names_are_unchanged_and_are_their_modules_objects():
    assert inspection_contracts.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(inspection_contracts, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
