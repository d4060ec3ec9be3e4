"""Collect sets of benchmark runs and compare them.

Collect one set (one run per workload and seed, each saved as a record):

    python3 perfbench/compare.py collect perfbench/out/parent --seeds 1-10 [--root PATH]

``--root`` runs the benchmark of another checkout (e.g. the parent commit,
with this ``perfbench`` directory copied in, so both sides run the same
benchmark code).

Report one set's spread, or compare a base set with a change set:

    python3 perfbench/compare.py report perfbench/out/parent [perfbench/out/change]

Each end-to-end metric gets one table with one row per workload: median and
quartiles of each set, the change in the median (positive = worse) and a
verdict against the metric's bound from BENCHMARK.json:

* ``regressed``   the change's median is worse by more than the bound
* ``unresolved``  a set's spread (quartile distance over median) exceeds the
                  bound, and not every change run beats every base run
* ``better``      better by more than the base set's own spread
* ``ok``          otherwise

The share of failed operations must be identical across every run.  The exit
code is 1 when a pair regressed, a spread exceeds its bound, or the failed
shares differ, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args) -> int:
    root = Path(args.root).resolve()
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    seconds = BENCHMARK["run_seconds"]
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            record = out / f"{wl}-seed{seed}.json"
            cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                   "--record", str(record)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{wl} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def load_set(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for f in sorted(Path(path).glob("*.json")):
        rec = json.loads(f.read_text())
        runs.setdefault(rec["env"]["workload"], []).append(rec)
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    out = []
    for rec in runs:
        m = rec["result"]["metrics"].get(metric) or rec["detail"].get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def summary(xs: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def failed_shares(runs: list[dict]) -> set[tuple[int, int]]:
    """Each run's failed/attempted as a reduced fraction."""
    from math import gcd

    shares = set()
    for rec in runs:
        a, f = rec["result"]["attempted"], rec["result"]["failed"]
        g = gcd(a, f) or 1
        shares.add((f // g, a // g))
    return shares


def fmt(s) -> str:
    med, q1, q3, spread = s
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:5.1f}%"


def report(args) -> int:
    base = load_set(Path(args.base))
    change = load_set(Path(args.change)) if args.change else None
    bad = False
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]]
    detail_names = sorted({k for runs in base.values() for r in runs for k in r["detail"]})
    metrics += [(d, "", "higher" if d.endswith("per_s") else "lower", None) for d in detail_names]

    for name, unit, better, bound in metrics:
        rows = [wl for wl in base if values(base[wl], name)]
        if not rows:
            continue
        gate = "" if bound is None else f", bound {100 * bound:.0f}%"
        print(f"\n{name} ({unit or 'detail'}, {better} is better{gate})")
        print(f"  {'workload':16s} {'base median [q1, q3] spread':>44s}" +
              (f" {'change median [q1, q3] spread':>44s} {'delta':>8s}  verdict" if change
               else "  verdict"))
        for wl in rows:
            b = values(base[wl], name)
            sb = summary(b)
            if change is None:
                verdict = "-"
                if bound is not None:
                    verdict = ("steady" if sb[3] <= bound / 3 else
                               "within bound" if sb[3] <= bound else "WIDE")
                    bad |= sb[3] > bound
                print(f"  {wl:16s} {fmt(sb):>44s}  {verdict}  (n={len(b)})")
                continue
            c = values(change.get(wl, []), name)
            if not c:
                print(f"  {wl:16s} {fmt(sb):>44s} {'(no runs)':>44s}")
                continue
            sc = summary(c)
            sign = 1 if better == "lower" else -1
            delta = sign * (sc[0] - sb[0]) / abs(sb[0])
            verdict = "-"
            if bound is not None:
                all_better = all(sign * (x - y) < 0 for x in c for y in b)
                wide = max(sb[3], sc[3]) > bound
                if wide and not all_better:
                    verdict = "unresolved"
                elif delta > bound:
                    verdict = "regressed"
                elif -delta > sb[3]:
                    verdict = "better"
                else:
                    verdict = "ok"
                bad |= verdict in ("regressed", "unresolved")
            print(f"  {wl:16s} {fmt(sb):>44s} {fmt(sc):>44s} {100 * delta:+7.1f}%  {verdict}")

    print("\nfailed operations / attempted")
    for wl, runs in base.items():
        shares = failed_shares(runs) | (failed_shares(change.get(wl, [])) if change else set())
        same = len(shares) == 1
        bad |= not same
        text = ", ".join(f"{f}/{a}" for f, a in sorted(shares))
        print(f"  {wl:16s} {text}  {'same in every run' if same else 'DIFFERS'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run every workload for every seed, saving records")
    p.add_argument("out", help="directory for the run records")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,11-12")
    p.add_argument("--root", default=str(HERE.parent), help="checkout to benchmark")
    p.set_defaults(func=collect)
    p = sub.add_parser("report", help="spread of one set, or base vs change")
    p.add_argument("base")
    p.add_argument("change", nargs="?")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
