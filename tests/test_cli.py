import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import inspection_contracts
from inspection_contracts import cli, oracle, scheduler, single_agent
from inspection_contracts.cli import main
from inspection_contracts.tolerance import TOL
from conftest import (
    CANCEL,
    FLAT_FIRST,
    NEAR_ONE_IR,
    NONCONVEX_C,
    NONCONVEX_R,
    make_agent,
    one_agent_doc,
)

UNIT1_DOC = {
    "agents": [
        {
            "name": "a1",
            "actions": [{"reward": 10.0, "cost": 2.0}],
            "kappa_s": 1.0,
            "kappa_i": 1.0,
            "alpha": 0.0,
        }
    ],
    "budget": 1,
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def four_unit1_doc():
    doc = {"agents": [], "budget": 1}
    for k in range(4):
        doc["agents"].append(
            {
                "name": f"a{k + 1}",
                "actions": [{"reward": 10.0, "cost": 2.0}],
                "kappa_s": 1.0,
                "kappa_i": 1.0,
                "alpha": 0.0,
            }
        )
    return doc


def test_solve_line_format(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert out == "agent=a1 gamma=0.300000 beta=0.333333 action=1 utility=6.666667\n"


def test_solve_agent_filter(tmp_path, capsys):
    doc = four_unit1_doc()
    path = write(tmp_path, doc)
    assert main(["solve", path, "--agent", "a3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("agent=a3 ")
    assert out.count("\n") == 1


def test_solve_precision_flag(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    assert main(["solve", path, "--precision", "3"]) == 0
    assert "gamma=0.300 " in capsys.readouterr().out


def test_infeasible_exit_code_cites_assumption(tmp_path, capsys):
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["actions"] = [{"reward": 2.0, "cost": 1.0}]
    doc["agents"][0]["kappa_s"] = 1.5
    path = write(tmp_path, doc)
    assert main(["solve", path]) == 1
    assert "Assumption 2" in capsys.readouterr().err


def test_validation_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["kappa_x"] = 3.0
    path = write(tmp_path, doc)
    assert main(["solve", path]) == 2
    assert "kappa_x" in capsys.readouterr().err


def test_beta_curve_csv(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    assert main(["beta-curve", path, "--agent", "a1", "--samples", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "gamma,beta"
    assert len(lines) == 6
    assert lines[1] == "0.300000,0.333333"
    assert lines[-1] == "1.000000,0.100000"


def test_beta_curve_deterministic(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    main(["beta-curve", path, "--agent", "a1", "--samples", "13"])
    first = capsys.readouterr().out
    main(["beta-curve", path, "--agent", "a1", "--samples", "13"])
    assert capsys.readouterr().out == first


def test_sweep_csv_and_infeasible_rows(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    code = main(
        [
            "sweep", path, "--agent", "a1", "--param", "kappa_s",
            "--from", "1.0", "--to", "100.0", "--steps", "2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "value,gamma_star,beta_star,utility"
    assert lines[1].startswith("1.000000,0.300000,0.333333,")
    assert lines[2] == "100.000000,infeasible,infeasible,infeasible"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["beta-curve", "--agent", "a1", "--samples", "3"],
        ["allocate"],
        ["sweep", "--agent", "a1", "--param", "kappa_s", "--from", "0.5",
         "--to", repr(NEAR_ONE_IR["kappa_s"]), "--steps", "3"],
    ],
)
def test_gamma_ir_within_tol_below_one_is_solved(tmp_path, capsys, argv):
    path = write(tmp_path, {"agents": [{"name": "a1", **NEAR_ONE_IR}], "budget": 1})
    assert main([argv[0], path, *argv[1:]]) == 0
    assert "infeasible" not in capsys.readouterr().out


# max(R_i - c_i) over all four actions exceeds kappa_s by about 2e-13, but
# the hull drops the near-collinear ones and its value at gamma = 1 does not
HULL_BELOW_KAPPA_S = {
    "actions": [
        {"reward": 1.222944570782574, "cost": 0.05219948719098566},
        {"reward": 2.2370196967703464, "cost": 1.0662746131783887},
        {"reward": 3.1296196372133274, "cost": 1.9588745536215815},
        {"reward": 4.486947011897273, "cost": 3.316201928305751},
    ],
    "kappa_s": 1.170745083591773,
    "kappa_i": 1.0,
    "alpha": 0.0,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["allocate"],
        ["schedule", "--targets", "0.5"],
        ["sweep", "--agent", "a1", "--param", "kappa_i", "--from", "0.5",
         "--to", "2", "--steps", "3"],
    ],
)
def test_assumption_2_is_checked_once_on_the_hull(tmp_path, capsys, argv):
    path = write(tmp_path, {"agents": [{"name": "a1", **HULL_BELOW_KAPPA_S}], "budget": 1})
    assert main([argv[0], path, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("infeasible: agents[0] ('a1'): max(R_i - c_i) = ")
    assert "(Assumption 2)" in err


def test_sweep_kappa_i_matches_solver(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    main(
        [
            "sweep", path, "--agent", "a1", "--param", "kappa_i",
            "--from", "16.0", "--to", "16.0", "--steps", "1",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "16.000000,0.400000,0.250000,2.000000"


def test_allocate_output(tmp_path, capsys):
    path = write(tmp_path, four_unit1_doc())
    assert main(["allocate", path, "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "agent=a1 beta_bar=0.250000 gamma=0.400000 beta_effective=0.250000" in out
    assert "total=23.000000" in out
    assert "gap_bound=3.960000" in out


def test_schedule_targets(tmp_path, capsys):
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["budget"] = 2
    path = write(tmp_path, doc)
    code = main(
        ["schedule", path, "--targets", "0.6,0.8,0.6", "--samples", "2000", "--seed", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("agent=1 target=0.600000 exact=0.600000 empirical=")
    emp = float(lines[1].split("empirical=")[1])
    assert abs(emp - 0.8) < 0.05
    assert lines[3] == "samples=2000 seed=1"


def test_schedule_samples_come_from_one_stream(tmp_path, capsys):
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["budget"] = 2
    path = write(tmp_path, doc)
    argv = ["schedule", path, "--targets", "0.6,0.8,0.6", "--samples", "500", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    # replay: every draw continues the one generator seeded with --seed
    sched = scheduler.build_schedule([0.6, 0.8, 0.6], 2)
    rng = random.Random(7)
    counts = [0, 0, 0]
    for _ in range(500):
        for agent in scheduler._draw(sched, rng):
            if agent is not None:
                counts[agent] += 1
    lines = first.splitlines()
    for i, count in enumerate(counts):
        assert lines[i].endswith(f" empirical={count / 500:.6f}")


def test_schedule_from_allocation(tmp_path, capsys):
    path = write(tmp_path, four_unit1_doc())
    assert main(["schedule", path, "--from-allocation", "--delta", "0.01"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert "target=0.250000 exact=0.250000" in line


def test_schedule_targets_rejects_allocation_flags(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    assert main(["schedule", path, "--targets", "0.5", "--delta", "0.01"]) == 2
    assert "--delta applies only with --from-allocation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [("allocate", ["--epsilon", "0.1"]), ("schedule", ["--from-allocation", "--epsilon", "1"])],
    ids=["allocate", "schedule"],
)
def test_epsilon_is_not_an_option(tmp_path, capsys, command, flags):
    path = write(tmp_path, UNIT1_DOC)
    with pytest.raises(SystemExit) as exc:
        main([command, path, *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


def test_schedule_overbudget_exit(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)  # budget 1
    assert main(["schedule", path, "--targets", "0.9,0.9"]) == 1


def test_out_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    target = tmp_path / "result.csv"
    assert main(["beta-curve", path, "--agent", "a1", "--samples", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("gamma,beta\n")


def test_verify_passes(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    assert main(["verify", path, "--grid-step", "0.005"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_readme_example_is_the_checked_in_instance_and_verifies(capsys):
    root = pathlib.Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("```json\n", 1)[1].split("```", 1)[0]
    example = root / "examples" / "instance.json"
    assert json.loads(block) == json.loads(example.read_text())
    assert main(["verify", str(example)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_passes_priced_in_thousands(tmp_path, capsys):
    # rewards (1.5, 3.1, 5), costs (0.2, 0.8, 1.3), kappa_s 1.74, kappa_i 2.7,
    # all x 1e3; an absolute utility slack rejects the correct contract here
    doc = {
        "agents": [
            {
                "name": "a1",
                "actions": [
                    {"reward": 1500.0, "cost": 200.0},
                    {"reward": 3100.0, "cost": 800.0},
                    {"reward": 5000.0, "cost": 1300.0},
                ],
                "kappa_s": 1740.0,
                "kappa_i": 2700.0,
                "alpha": 0.22,
            }
        ],
        "budget": 1,
    }
    path = write(tmp_path, doc)
    assert main(["verify", path, "--grid-step", "0.01"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_multi_agent(tmp_path, capsys):
    doc = four_unit1_doc()
    doc["agents"] = doc["agents"][:2]
    path = write(tmp_path, doc)
    assert main(["verify", path, "--grid-step", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "allocate vs exhaustive" in out


def test_verify_checks_the_allocation_of_four_agents(tmp_path, capsys):
    # the exhaustive search's table holds 24^3 cap vectors
    path = write(tmp_path, four_unit1_doc())
    assert main(["verify", path, "--grid-step", "0.01"]) == 0
    out = capsys.readouterr().out
    # the dual is floored at the total, which its rounded value fell below
    assert ("PASS: allocate vs exhaustive search (step 0.01) "
            "exact=23.0 dual=23.0 brute=22.999999999999993\n") in out
    assert "PASS: schedule marginals match allocation caps\n" in out
    assert "SKIP" not in out


def test_verify_skips_a_search_over_the_table_limit(tmp_path, capsys):
    # six agents need 24^5 table entries: the search is skipped before any
    # array is built, and the schedule is still checked
    doc = four_unit1_doc()
    doc["agents"] += [dict(doc["agents"][0], name=name) for name in ("a5", "a6")]
    path = write(tmp_path, doc)
    assert main(["verify", path, "--grid-step", "0.01"]) == 0
    out = capsys.readouterr().out
    assert ("SKIP: allocate vs exhaustive search: grid step 0.01 needs 7.96e+06 "
            "oracle table entries") in out
    assert f"above the limit of {oracle.MAX_ORACLE_CELLS:,}\n" in out
    assert "PASS: schedule marginals match allocation caps\n" in out
    assert "FAIL" not in out


def test_verify_failure_prints_counterexample(tmp_path, capsys, monkeypatch):
    import inspection_contracts.cli as cli_mod
    from inspection_contracts.single_agent import Contract, SingleAgentSolution

    # sabotage the solver: claim a wildly optimistic utility at a bad contract
    def bogus(agent):
        return SingleAgentSolution(Contract(0.5, 0.0), 0, 99.0)

    monkeypatch.setattr(cli_mod.single_agent, "solve_single", bogus)
    path = write(tmp_path, UNIT1_DOC)
    assert main(["verify", path, "--grid-step", "0.01"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "counterexample" in out
    assert "solver above oracle" in out


def test_verify_fails_a_solver_below_the_oracle(tmp_path, capsys, monkeypatch):
    import inspection_contracts.cli as cli_mod
    from inspection_contracts.single_agent import SingleAgentSolution, solve_single

    # sabotage the solver: the right contract, but a utility 1e-9 R_n short
    def short(agent):
        sol = solve_single(agent)
        return SingleAgentSolution(sol.contract, sol.action, sol.utility - 1e-8)

    monkeypatch.setattr(cli_mod.single_agent, "solve_single", short)
    path = write(tmp_path, UNIT1_DOC)
    assert main(["verify", path, "--grid-step", "0.01"]) == 3
    lines = capsys.readouterr().out.splitlines()
    fails = [l for l in lines if "FAIL" in l]
    assert len(fails) == 1 and "solver below oracle" in fails[0]


def test_every_package_error_is_an_input_verdict():
    # a ContractError is invalid input (exit 2) or infeasible (exit 1); a
    # function called outside its domain raises ValueError (exit 3)
    base = inspection_contracts.ContractError
    roots = (inspection_contracts.ValidationError, inspection_contracts.InfeasibleError)
    public = [getattr(inspection_contracts, name) for name in inspection_contracts.__all__]
    errors = [obj for obj in public if isinstance(obj, type) and issubclass(obj, base)]
    assert {base, *roots} < set(errors)
    for exc in errors:
        assert exc is base or issubclass(exc, roots), exc


@pytest.mark.parametrize("exc", [ValueError("target below u_h(0)"), ZeroDivisionError("float division")])
def test_an_internal_error_exits_3_with_its_class(tmp_path, capsys, monkeypatch, exc):
    # one handler for a function called outside its domain and for any other error
    def broken(agent):
        raise exc

    monkeypatch.setattr(single_agent, "solve_single", broken)
    assert main(["solve", write(tmp_path, UNIT1_DOC)]) == 3
    assert capsys.readouterr().err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_verify_passes_with_kappa_i_far_above_rewards(tmp_path, capsys):
    # beta's last-bit rounding times kappa_i is 1.5e-11, far above TOL * R_n
    doc = {
        "agents": [
            {
                "name": "a1",
                "actions": [{"reward": 0.0012, "cost": 0.00012}],
                "kappa_s": 6.1e-4,
                "kappa_i": 1.3e5,
                "alpha": 0.4,
            }
        ],
        "budget": 1,
    }
    path = write(tmp_path, doc)
    assert main(["verify", path, "--grid-step", "0.01"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_missing_file(capsys):
    assert main(["solve", "/nonexistent/inst.json"]) == 2


def test_invalid_utf8_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(json.dumps(UNIT1_DOC).encode().replace(b'"a1"', b'"a1\xff"'))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: ")


def test_unencodable_agent_name_is_invalid_input(tmp_path, capsys):
    # "\ud800" in the file is valid JSON, but no UTF-8 stdout can carry the name
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["name"] = "a\ud800"
    path = write(tmp_path, doc)
    assert '"a\\ud800"' in pathlib.Path(path).read_text()
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err == "error: agents[0].name: expected a string UTF-8 can encode\n"


def run_cli(argv, stdout=subprocess.PIPE, **env):
    """The CLI in a child process, with ``env`` added to its environment."""
    src = pathlib.Path(inspection_contracts.__file__).resolve().parents[1]
    drop = ("PYTHONIOENCODING", "PYTHONUNBUFFERED")
    child = {k: v for k, v in os.environ.items() if k not in drop}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), child.get("PYTHONPATH")]))
    child.update(env)
    return subprocess.run(
        [sys.executable, "-m", "inspection_contracts.cli", *argv],
        env=child, stdout=stdout, stderr=subprocess.PIPE, timeout=60,
    )


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["solve"], ""),
        (["allocate"], ""),
        (["verify"], ""),
        (["schedule", "--from-allocation", "--samples", "100"], ""),
        (["solve"], "1"),
    ],
)
def test_closed_stdout_exits_as_sigpipe(tmp_path, argv, unbuffered):
    # buffered output meets the closed pipe at main's flush, unbuffered output
    # at its first write; neither is an internal error
    path = write(tmp_path, UNIT1_DOC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli([argv[0], path, *argv[1:]], stdout=write_end,
                       PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_name_stdout_cannot_encode_is_escaped(tmp_path):
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["name"] = "\u00e9"
    proc = run_cli(["solve", write(tmp_path, doc)], PYTHONIOENCODING="ascii")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"agent=\\xe9 gamma=0.300000 ")


def test_out_file_is_utf8_whatever_the_locale(tmp_path):
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["name"] = "\u00e9"
    target = tmp_path / "result.txt"
    # PYTHONUTF8=0 keeps the C locale's ASCII encoding as the default
    proc = run_cli(["solve", write(tmp_path, doc), "--out", str(target)],
                   LC_ALL="C", PYTHONUTF8="0")
    assert proc.returncode == 0, proc.stderr
    assert target.read_bytes().startswith("agent=\u00e9 gamma=".encode())


def test_deeply_nested_json_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32-be"])
def test_instance_encoding_is_detected(tmp_path, capsys, encoding):
    # RFC 8259's encodings, told apart by the first bytes whatever the locale
    path = tmp_path / "inst.json"
    path.write_bytes(json.dumps(UNIT1_DOC).encode(encoding))
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.startswith("agent=a1 gamma=0.300000 ")


def test_huge_integer_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "huge.json"
    text = json.dumps(UNIT1_DOC).replace('"reward": 10.0', '"reward": 1' + "0" * 400)
    path.write_text(text)
    start = time.perf_counter()
    assert main(["solve", str(path)]) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err.startswith("error: agents[0].actions[0].reward: ")


def test_huge_budget_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(UNIT1_DOC).replace('"budget": 1', '"budget": 1' + "0" * 400))
    assert main(["allocate", str(path)]) == 2
    assert capsys.readouterr().err == "error: budget: number too large for a float\n"


def test_integer_past_digit_limit_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "huge.json"
    text = json.dumps(UNIT1_DOC).replace('"reward": 10.0', '"reward": 1' + "0" * 5000)
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--precision", "-2"],
        ["schedule", "--targets", "0.5", "--samples", "-3"],
        ["beta-curve", "--agent", "a1", "--samples", "-1"],
    ],
)
def test_negative_counts_rejected_at_parsing(tmp_path, capsys, argv):
    path = write(tmp_path, UNIT1_DOC)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:]])
    assert exc.value.code == 2
    assert "expected a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["schedule", "--targets", "0.5,abc"],
         "error: --targets: could not convert string to float: 'abc'\n"),
        (["sweep", "--agent", "a1", "--param", "kappa_i", "--from", "1", "--to", "2",
          "--steps", "0"], "error: need at least one point, got 0\n"),
        # an empty entry is no number: dropping it would shift later targets
        (["schedule", "--targets", "0.5,,0.25"],
         "error: --targets: could not convert string to float: ''\n"),
        (["schedule", "--targets", ""],
         "error: --targets: could not convert string to float: ''\n"),
        (["schedule", "--targets", ","],
         "error: --targets: could not convert string to float: ''\n"),
    ],
    ids=["targets-not-a-number", "sweep-no-steps", "targets-empty-entry", "targets-empty",
         "targets-only-a-comma"],
)
def test_bad_argument_values_are_invalid_input(tmp_path, capsys, argv, message):
    path = write(tmp_path, UNIT1_DOC)
    assert main([argv[0], path, *argv[1:]]) == 2
    assert capsys.readouterr().err == message


def test_allocate_grid_above_limit_is_invalid_input(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    start = time.perf_counter()
    assert main(["allocate", path, "--delta", "1e-9"]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above the limit" in err


def test_allocate_dp_work_above_limit_is_invalid_input(tmp_path, capsys):
    # 9e5 steps fit the grid limit, but the DP would add 2.1e11 candidate sums
    path = write(tmp_path, UNIT1_DOC)
    start = time.perf_counter()
    assert main(["allocate", path, "--delta", "1e-6"]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "DP candidate sums" in err and "above the limit" in err


def test_precision_above_double_digits_rejected_at_parsing(tmp_path, capsys):
    path = write(tmp_path, UNIT1_DOC)
    assert main(["solve", path, "--precision", "1074"]) == 0
    capsys.readouterr()
    for value in ("1075", "3000000000"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--precision", value])
        assert exc.value.code == 2
        assert "at most 1074 decimal places" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "abc"])
def test_grid_step_rejected_at_parsing(tmp_path, capsys, value):
    path = write(tmp_path, UNIT1_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, f"--grid-step={value}"])
    assert exc.value.code == 2
    assert "expected a finite positive number" in capsys.readouterr().err


def test_targets_may_have_spaces_around_numbers(tmp_path, capsys):
    assert main(["schedule", write(tmp_path, UNIT1_DOC), "--targets", " 0.5 , 0.25 "]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "agent=1 target=0.500000 exact=0.500000",
        "agent=2 target=0.250000 exact=0.250000",
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_sweep_ends_rejected_at_parsing(tmp_path, capsys, flag, value):
    # an infinite end makes the first row 0.5 + (inf - 0.5) * 0, which is nan
    ends = {"--from": "0.5", "--to": "4"} | {flag: value}
    argv = ["sweep", write(tmp_path, UNIT1_DOC), "--agent", "a1", "--param", "kappa_i",
            "--steps", "3", *(f"{k}={v}" for k, v in ends.items())]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


def test_verify_fine_grid_runs_and_finer_is_invalid_input(tmp_path, capsys):
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["actions"].append({"reward": 14.0, "cost": 5.0})
    path = write(tmp_path, doc)
    start = time.perf_counter()
    assert main(["verify", path, "--grid-step", "1e-5"]) == 0
    assert time.perf_counter() - start < 5.0
    assert "FAIL" not in capsys.readouterr().out
    start = time.perf_counter()
    assert main(["verify", path, "--grid-step", "1e-9"]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "oracle grid cells" in err and "above the limit" in err


@pytest.mark.parametrize("samples", [[], ["--samples", "3"]], ids=["no-samples", "samples"])
def test_schedule_huge_budget_runs(tmp_path, capsys, samples):
    # only the inspectors that can reach an agent get a rule or a draw
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["budget"] = 100_000_000
    path = write(tmp_path, doc)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main(["schedule", path, "--targets", "0.5", *samples]) == 0
        assert time.perf_counter() - start < 5.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert capsys.readouterr().out.startswith("agent=1 target=0.500000 exact=0.500000")


@pytest.mark.parametrize(
    "argv",
    [
        ["beta-curve", "--agent", "a1", "--samples", "50000"],
        ["sweep", "--agent", "a1", "--param", "kappa_i", "--from", "0.5", "--to", "4",
         "--steps", "10000"],
    ],
    ids=["beta-curve", "sweep"],
)
def test_csv_rows_are_written_as_they_are_computed(tmp_path, argv):
    # holding every point, or every sweep row, would take a few MB here
    path = write(tmp_path, UNIT1_DOC)
    tracemalloc.start()
    try:
        assert main([argv[0], path, *argv[1:], "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("param", ["kappa_i", "alpha"])
def test_sweep_slices_do_not_change_the_rows(tmp_path, capsys, monkeypatch, param):
    path = write(tmp_path, UNIT1_DOC)
    argv = ["sweep", path, "--agent", "a1", "--param", param, "--from", "0.05", "--to",
            "0.95", "--steps", "10", "--precision", "17"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "_SWEEP_SLICE", 3)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    # the rows are the library's on the whole grid
    grid = [0.05 + (0.95 - 0.05) * i / 9 for i in range(10)]
    rows = single_agent.sweep_parameter(make_agent([10.0], [2.0]), param, grid)
    fields = [(r.value, r.gamma, r.beta, r.utility) for r in rows]
    assert whole.splitlines()[1:] == [
        ",".join("infeasible" if x is None else f"{x:.17f}" for x in row) for row in fields
    ]


@pytest.mark.parametrize(
    "ends, values",
    [(["0.5", "1e308"], [0.5, 5e307, 1e308]), (["-1e308", "1e308"], [-1e308, 0.0, 1e308])],
    ids=["product", "difference"],
)
def test_sweep_ends_near_the_double_range(tmp_path, capsys, ends, values):
    # (b - a) * i overflows; the rows still run from a to b, all finite
    argv = ["sweep", write(tmp_path, UNIT1_DOC), "--agent", "a1", "--param", "kappa_i",
            f"--from={ends[0]}", f"--to={ends[1]}", "--steps", "3", "--precision", "1"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == values


@pytest.mark.parametrize("reward, kappa_s", [(10.0, 5e-324), (1e155, 1.0)])
def test_allocate_at_extreme_scales_keeps_the_exact_split(tmp_path, capsys, reward, kappa_s):
    # R_n^2 / kappa_s is infinite, so the grid DP's gap bound would be too;
    # one concave curve has no duality gap, so the exact split answers alone
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["actions"][0]["reward"] = reward
    doc["agents"][0]["kappa_s"] = kappa_s
    path = write(tmp_path, doc)
    assert main(["allocate", path]) == 0
    assert "total=" in capsys.readouterr().out


# two agents whose largest rewards sum past the double range, though their
# utilities, and the total, do not
NEAR_MAX_DOC = {
    "agents": [
        {
            "name": "a1",
            "actions": [
                {"reward": 275569175.7534402, "cost": 0.007585825320038379},
                {"reward": 1.7e308, "cost": 2.3217375065353445},
            ],
            "kappa_s": 5.59962791933501e307,
            "kappa_i": 0.02463360444606191,
            "alpha": 0.4986178326667653,
        },
        {
            "name": "a2",
            "actions": [
                {"reward": 2.0, "cost": 1.5912423238906748},
                {"reward": 1.7e308, "cost": 1.1433744443779324e308},
            ],
            "kappa_s": 2.998181827501057e307,
            "kappa_i": 1.892973267548846e-13,
            "alpha": 0.28127086738932533,
        },
    ],
    "budget": 1,
}


@pytest.mark.parametrize("flags", [[], ["--delta", "0.01"]], ids=["exact", "dp"])
def test_allocate_when_the_rewards_sum_past_the_double_range(tmp_path, capsys, flags):
    # each money slack is TOL times one amount, summed after scaling
    assert main(["allocate", write(tmp_path, NEAR_MAX_DOC), *flags]) == 0
    *agents, total, _ = capsys.readouterr().out.splitlines()
    utilities = [float(line.rpartition(" utility=")[2]) for line in agents]
    assert len(utilities) == 2
    assert float(total.removeprefix("total=")) == math.fsum(utilities)


def test_utilities_summing_past_the_double_range_are_invalid_input(tmp_path, capsys):
    # each agent's utility is finite, their sum, and so every split's total, is not
    agent = {"name": "a", "actions": [{"reward": 1.7e308, "cost": 1.0}],
             "kappa_s": 1.0, "kappa_i": 1.0, "alpha": 0.5}
    path = write(tmp_path, {"agents": [agent, agent | {"name": "b"}], "budget": 1})
    assert main(["solve", path]) == 0
    capsys.readouterr()
    for argv in (
        ["allocate", path],
        ["allocate", path, "--delta", "0.01"],
        ["schedule", path, "--from-allocation"],
        ["verify", path],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: the agents' top utilities sum past the double range\n", argv


def test_minimums_that_fill_the_budget_exit_0(tmp_path, capsys):
    # big wants more than its minimum at every finite price, and the two
    # minimums, 0.1 and 0.9, use the whole budget: the split is the minimums
    big = {"name": "big", "actions": [{"reward": 1e308, "cost": 0.0}],
           "kappa_s": 1e307, "kappa_i": 1.0, "alpha": 0.0}
    small = {"name": "small", "actions": [{"reward": 10.0, "cost": 0.0}],
             "kappa_s": 9.0, "kappa_i": 1.0, "alpha": 0.0}
    path = write(tmp_path, {"agents": [big, small], "budget": 1})
    assert main(["allocate", path]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["total=-1.000000", "gap_bound=0.000000"]
    assert main(["schedule", path, "--from-allocation"]) == 0
    assert main(["verify", path, "--grid-step", "0.01"]) == 0
    assert "FAIL" not in capsys.readouterr().out


NONCONVEX_DOC = {
    "agents": [
        {
            "name": "a1",
            "actions": [{"reward": r, "cost": c} for r, c in zip(NONCONVEX_R, NONCONVEX_C)],
            "kappa_s": 1.0,
            "kappa_i": 1.0,
            "alpha": 0.0,
        }
    ],
    "budget": 1,
}


def priced_doc(doc, unit):
    """``doc`` with every amount of money multiplied by ``unit``."""
    doc = json.loads(json.dumps(doc))
    for agent in doc["agents"]:
        for action in agent["actions"]:
            action["reward"] *= unit
            action["cost"] *= unit
        agent["kappa_s"] *= unit
        agent["kappa_i"] *= unit
    return doc


@pytest.mark.parametrize("k", [154, 159, 300, -200, -300])
@pytest.mark.parametrize(
    "doc, contract",
    [
        (UNIT1_DOC, "gamma=0.300000 beta=0.333333 action=1"),
        (NONCONVEX_DOC, "gamma=0.500000 beta=0.285714 action=4"),
    ],
    ids=["one_action", "nonconvex"],
)
def test_every_subcommand_at_extreme_currency_units(tmp_path, capsys, doc, contract, k):
    # a product of two amounts of money overflows past 10^153 and underflows
    # below 10^-154, a ratio of two does neither
    unit = 10.0**k
    path = write(tmp_path, priced_doc(doc, unit))
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.startswith(f"agent=a1 {contract} utility=")
    kappa_i = ["--from", repr(unit), "--to", repr(4.0 * unit), "--steps", "3"]
    for argv in (
        ["verify", path],
        ["allocate", path],
        ["allocate", path, "--delta", "0.01"],
        ["sweep", path, "--agent", "a1", "--param", "kappa_i", *kappa_i],
    ):
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "FAIL" not in out and "infeasible" not in out


def test_tiny_safety_cost_allocates_and_verifies(tmp_path, capsys):
    # beta(1) rounds to 0 although the exact curve never reaches it
    doc = json.loads(json.dumps(UNIT1_DOC))
    doc["agents"][0]["kappa_s"] = 1e-15
    path = write(tmp_path, doc)
    assert main(["allocate", path, "--precision", "17"]) == 0
    total = float(capsys.readouterr().out.split("total=")[1].split()[0])
    assert main(["solve", path, "--precision", "17"]) == 0
    utility = float(capsys.readouterr().out.split("utility=")[1].split()[0])
    assert abs(total - utility) <= TOL * 10.0
    assert main(["verify", path]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("key", ["A", "B", "C"])
def test_breakpoint_values_that_cancel_are_solved(tmp_path, capsys, key):
    # gamma_ir and every lifted target must land on the right segment
    path = write(tmp_path, one_agent_doc(CANCEL[key]))
    for argv in (["solve", path], ["allocate", path], ["verify", path, "--grid-step", "0.01"]):
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "FAIL" not in out
    if key == "A":
        assert out.startswith("agent=a gamma=0.080150 ")


def test_a_peak_below_beta_min_is_raised_to_it(tmp_path):
    # a rise's peak beta rounds below beta_min; the exact split takes beta_min
    assert main(["allocate", write(tmp_path, one_agent_doc(CANCEL["D"]))]) == 0


def test_a_flat_first_segment_is_solved(tmp_path, capsys):
    # the shadow of a lowered value on the flat first segment is the next hull
    # line, not the zero-reward action (whose d = 0 divided by zero)
    path = write(tmp_path, one_agent_doc(FLAT_FIRST))
    for argv in (
        ["solve", path],
        ["allocate", path],
        ["allocate", path, "--delta", "0.01"],
        ["schedule", path, "--from-allocation"],
        ["beta-curve", path, "--agent", "a", "--samples", "5"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for argv in (["verify", path], ["verify", path, "--grid-step", "0.01"]):
        assert main(argv) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS: ") for line in lines), lines
