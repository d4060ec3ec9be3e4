"""Run one benchmark workload against this checkout's ``src`` tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record PATH]

The last line of standard output is the result: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones listed in BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, the spans are written to
``perfbench/out/trace-<workload>-seed<N>.jsonl``, and ``trace.overhead_pct``
states the tracing overhead against untraced rounds of the same run.
``--record`` also writes the result with the environment, the detail
metrics and every round's wall time, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

from harness import (
    CAL_REF_S,
    END_TO_END_UNITS,
    OUT,
    PER_LAYER,
    SRC,
    CheckFailed,
    NullTracer,
    RoundLog,
    Tracer,
    environment,
    extra_time,
    finite,
    layer_metrics,
    layer_unit,
    median,
    peak_rss_mb,
    perf_counter,
    to_reference_pace,
)

SETUP_REPEATS = 5


def import_program():
    """Put this checkout's src first on the path and prove the import uses it."""
    sys.path.insert(0, str(SRC))
    try:
        import inspection_contracts
    except ImportError as exc:
        raise SystemExit(f"cannot import the program from {SRC}: {exc}") from None

    where = Path(inspection_contracts.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"inspection_contracts imported from {where}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](sizes)
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        return _measure(wl, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(wl, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    setups = []
    for k in range(SETUP_REPEATS):
        workdir = scratch / f"setup{k}"
        workdir.mkdir()
        state = None
        gc.collect()  # each set-up starts from the same heap
        log = RoundLog()
        log.mark()
        state = wl.setup(seed, workdir, log)
        log.mark()
        log.settle()
        setups.append((log.wall, log.scale))
    # the benchmark's own inputs and reference data stay alive for the whole
    # run; keep them out of the collector's way so they do not slow the program
    gc.collect()
    gc.freeze()

    tracer = Tracer() if trace else None
    kinds = [NullTracer(), tracer] if trace else [NullTracer()]
    untraced: list[RoundLog] = []
    traced: list[tuple[RoundLog, list]] = []
    unit_medians: list[float] = []
    attempted = failed = 0
    faults: Counter = Counter()
    problems: list[str] = []
    start = perf_counter()
    rnd = 0
    while True:
        for tr in kinds:
            tr.round = rnd
            first_span = len(tracer.spans) if tr.on else 0
            log = RoundLog()
            log.mark()
            wl.run_round(state, log, tr)
            log.mark()
            calls = log.settle()
            for op in log.ops:
                attempted += op.count
                try:
                    if op.error is not None:
                        raise CheckFailed(f"{op.kind}: raised {op.error!r}")
                    wl.check(state, op)
                except CheckFailed as exc:
                    failed += op.count
                    if op.fault:
                        faults[op.fault] += op.count
                    elif len(problems) < 20:
                        problems.append(str(exc))
            log.ops = []
            if tr.on:
                traced.append((log, tracer.spans[first_span:]))
            else:
                unit_medians.append(median(calls))
                log.unit_calls = []
                untraced.append(log)
            rnd += 1
        if perf_counter() - start >= seconds:
            break

    if trace:
        per_round = [to_reference_pace(layer_metrics(spans), log.scale)
                     for log, spans in traced]
        metrics = {m: median([r[m] for r in per_round]) for m in PER_LAYER if m in per_round[0]}
        busy = median([(log.wall - extra_time(spans)) * log.scale for log, spans in traced])
        plain = median([g.wall * g.scale for g in untraced])
        metrics["trace.overhead_pct"] = 100.0 * (busy / plain - 1)
        trace_path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        units = {m: layer_unit(m) for m in PER_LAYER}
    else:
        metrics = {
            "round_s": median([g.wall * g.scale for g in untraced]),
            "call_ms": 1e3 * median(unit_medians),
            "setup_s": median([wall * scale for wall, scale in setups]),
            "peak_rss_mb": peak_rss_mb(children=wl.rss_of_children),
        }
        trace_path = None
        units = END_TO_END_UNITS

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": finite(v), "unit": units[m]} for m, v in metrics.items()},
    }
    detail = dict(wl.detail(untraced))
    detail["raw_round_s"] = (median([g.wall for g in untraced]), "s")
    detail["raw_setup_s"] = (median([wall for wall, _ in setups]), "s")
    detail["pace_ms"] = (1e3 * CAL_REF_S / median([g.scale for g in untraced]), "ms")
    return {
        "result": result,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "rounds": {
            "untraced": [g.wall for g in untraced],
            "traced": [g.wall for g, _ in traced],
            "untraced_scale": [g.scale for g in untraced],
            "traced_scale": [g.scale for g, _ in traced],
        },
        "setup_s": [wall for wall, _ in setups],
        "setup_scale": [scale for _, scale in setups],
        "faults": dict(faults),
        "problems": problems,
        "trace_file": str(trace_path.relative_to(OUT.parent.parent)) if trace_path else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the full record as JSON to this path")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["env"] = environment(args.seed, args.workload)
    record["env"].update(seconds=args.seconds, trace=args.trace)
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1))

    res = record["result"]
    print(json.dumps({"env": record["env"]}))
    for fault, n in record["faults"].items():
        print(f"known fault, {n} failed operations: {fault}")
    for problem in record["problems"]:
        print(f"WRONG: {problem}")
    for name, m in {**res["metrics"], **record["detail"]}.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    walls = record["rounds"]["untraced"]
    print(f"rounds {len(walls)} untraced, {len(record['rounds']['traced'])} traced; "
          f"attempted {res['attempted']}, failed {res['failed']}")
    if record["trace_file"]:
        print(f"spans written to {record['trace_file']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
