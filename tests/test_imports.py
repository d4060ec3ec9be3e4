"""numpy is loaded only by ``verify``, through ``oracle``, and by the grid DP,
``grid_dp``, which --delta selects and the exact split runs only on a duality
gap; ``verify`` prices the oracle's cap grids without ``grid_dp``."""

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


def run_child(argvs, block_numpy):
    code = RUN_SUBCOMMANDS.format(argvs=argvs, modules=NUMPY_MODULES)
    if block_numpy:
        code = NO_NUMPY + code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, str(EXAMPLE)],
        env=env, capture_output=True, text=True, timeout=60,
    )


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
