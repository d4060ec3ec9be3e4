"""compare.py's verdicts on synthetic run records."""

import json

import compare


def _write(dirpath, workload, seed, round_s, failed=1, attempted=10):
    rec = {
        "env": {"workload": workload, "seed": seed, "trace": 0},
        "result": {"correct": True, "attempted": attempted, "failed": failed,
                   "metrics": {"round_s": {"value": round_s, "unit": "s"}}},
        "detail": {},
    }
    dirpath.mkdir(exist_ok=True)
    (dirpath / f"{workload}-seed{seed}.json").write_text(json.dumps(rec))


def test_report_flags_a_regression_and_passes_a_steady_pair(tmp_path, capsys):
    base, same, slow = tmp_path / "base", tmp_path / "same", tmp_path / "slow"
    for seed in range(10):
        _write(base, "w", seed, 1.0 + 0.001 * seed)
        _write(same, "w", seed, 1.0 + 0.001 * (9 - seed))
        _write(slow, "w", seed, 1.5 + 0.001 * seed)
    assert compare.main(["report", str(base), str(same)]) == 0
    assert compare.main(["report", str(base), str(slow)]) == 1
    assert "regressed" in capsys.readouterr().out


def test_report_flags_a_wide_spread_and_differing_failure_shares(tmp_path, capsys):
    wide, mixed = tmp_path / "wide", tmp_path / "mixed"
    for seed in range(10):
        _write(wide, "w", seed, 1.0 + 0.1 * seed)
        _write(mixed, "w", seed, 1.0, failed=seed % 2, attempted=10)
    assert compare.main(["report", str(wide)]) == 1
    assert "WIDE" in capsys.readouterr().out
    assert compare.main(["report", str(mixed)]) == 1
    assert "DIFFERS" in capsys.readouterr().out
