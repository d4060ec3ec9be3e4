"""Batch command-line front end.

Subcommands: solve, beta-curve, sweep, allocate, schedule, verify.  One
command per process; CSV and key=value output is deterministic given the
inputs and seed.  Exit codes: 0 ok, 1 infeasible instance, 2 invalid input,
3 internal invariant breach (including failed verification), 141 when
stdout's reader has gone (128 + SIGPIPE, as the shell reports for ``cat``).
Only the handlers that allocate or verify import ``multi_agent``, and only
``verify`` imports ``oracle``.  numpy comes with ``oracle``, or with
``grid_dp``, the grid DP, which ``--delta`` selects and the exact allocation
runs only on a duality gap; ``verify``'s oracle does not need it.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import random
import sys
from itertools import islice
from typing import IO, Iterator

from . import scheduler, single_agent
from .errors import InfeasibleError, ValidationError
from .instances import Instance, load_instance
from .tolerance import TOL


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _finite_float(text: str, positive: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 or not positive)):
        what = "positive number" if positive else "number"
        raise argparse.ArgumentTypeError(f"expected a finite {what}, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    return _finite_float(text, positive=True)


def _precision(text: str) -> int:
    # no double's exact decimal expansion is longer (5e-324 has 1074 decimals)
    value = _nonnegative_int(text)
    if value > 1074:
        raise argparse.ArgumentTypeError(f"expected at most 1074 decimal places, got {text!r}")
    return value


# grid points per sweep_parameter call in ``sweep``
_SWEEP_SLICE = 1024


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}f}"


def _pick_agents(instance: Instance, name: str | None):
    if name is None:
        return list(instance.agents)
    return [instance.agent(name)]


def _linspace(a: float, b: float, k: int) -> Iterator[float]:
    """``k`` evenly spaced points from ``a`` to ``b``, generated one at a time
    so no command holds them all; ``k`` is checked at the call."""
    if k < 1:
        raise ValidationError(f"need at least one point, got {k}")
    if k == 1:
        return iter((a,))
    lo, hi = min(a, b), max(a, b)

    def point(i: int) -> float:
        x = a + (b - a) * i / (k - 1)
        if math.isfinite(x):
            return x
        # b - a, or its multiple, overflows: weigh the ends, and clamp the
        # rounding of the weighted sum back into [a, b]
        t = i / (k - 1)
        return min(max(a * (1.0 - t) + b * t, lo), hi)

    return map(point, range(k))


def _allocation_from_args(instance: Instance, args):
    from . import multi_agent

    problem = multi_agent.AllocationProblem(instance.specs, instance.budget, delta=args.delta)
    return multi_agent.allocate(problem)


# ---------------------------------------------------------------------------
# subcommands (each returns the process exit code)
# ---------------------------------------------------------------------------


def _cmd_solve(args, out: IO[str]) -> int:
    instance = load_instance(args.file)
    p = args.precision
    for named in _pick_agents(instance, args.agent):
        sol = single_agent.solve_single(named.spec)
        out.write(
            f"agent={named.name} gamma={_fmt(sol.contract.gamma, p)} "
            f"beta={_fmt(sol.contract.beta, p)} action={sol.action + 1} "
            f"utility={_fmt(sol.utility, p)}\n"
        )
    return 0


def _cmd_beta_curve(args, out: IO[str]) -> int:
    instance = load_instance(args.file)
    named = instance.agent(args.agent)
    curve = single_agent.build_beta_curve(named.spec)
    p = args.precision
    out.write("gamma,beta\n")
    for g in _linspace(curve.gamma_ir, 1.0, args.samples):
        out.write(f"{_fmt(g, p)},{_fmt(single_agent.beta_at(curve, g), p)}\n")
    return 0


def _cmd_sweep(args, out: IO[str]) -> int:
    instance = load_instance(args.file)
    named = instance.agent(args.agent)
    grid = _linspace(args.from_, args.to, args.steps)
    p = args.precision
    out.write("value,gamma_star,beta_star,utility\n")
    # fixed slices keep memory flat in --steps; a kappa_i sweep builds its
    # curve once per slice
    while values := list(islice(grid, _SWEEP_SLICE)):
        for row in single_agent.sweep_parameter(named.spec, args.param, values):
            if row.feasible:
                out.write(
                    f"{_fmt(row.value, p)},{_fmt(row.gamma, p)},"
                    f"{_fmt(row.beta, p)},{_fmt(row.utility, p)}\n"
                )
            else:
                out.write(f"{_fmt(row.value, p)},infeasible,infeasible,infeasible\n")
    return 0


def _cmd_allocate(args, out: IO[str]) -> int:
    instance = load_instance(args.file)
    alloc = _allocation_from_args(instance, args)
    p = args.precision
    for named, cap, ch in zip(instance.agents, alloc.caps, alloc.contracts):
        out.write(
            f"agent={named.name} beta_bar={_fmt(cap, p)} gamma={_fmt(ch.gamma, p)} "
            f"beta_effective={_fmt(ch.beta, p)} utility={_fmt(ch.utility, p)}\n"
        )
    out.write(f"total={_fmt(alloc.total_utility, p)}\n")
    out.write(f"gap_bound={_fmt(alloc.gap_bound, p)}\n")
    return 0


def _cmd_schedule(args, out: IO[str]) -> int:
    if args.targets is not None and args.delta is not None:
        raise ValidationError("--delta applies only with --from-allocation")
    instance = load_instance(args.file)
    if args.targets is not None:
        try:
            targets = [float(t) for t in args.targets.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--targets: {exc}") from None
        labels = [str(i + 1) for i in range(len(targets))]
    else:
        alloc = _allocation_from_args(instance, args)
        targets = [ch.beta for ch in alloc.contracts]
        labels = [a.name for a in instance.agents]
    sched = scheduler.build_schedule(targets, instance.budget)
    exact = scheduler.exact_marginals(sched)

    empirical = None
    if args.samples:
        counts = [0] * len(targets)
        # one stream for the whole run: seeding a generator per draw would
        # cost more than the draw, which bisects each rule's compiled table
        rng = random.Random(args.seed)
        for _ in range(args.samples):
            # per-rule picks: the idle inspectors past the last rule add nothing
            for agent in scheduler._draw(sched, rng):
                if agent is not None:
                    counts[agent] += 1
        empirical = [c / args.samples for c in counts]

    p = args.precision
    for i, label in enumerate(labels):
        line = f"agent={label} target={_fmt(targets[i], p)} exact={_fmt(exact[i], p)}"
        if empirical is not None:
            line += f" empirical={_fmt(empirical[i], p)}"
        out.write(line + "\n")
    if args.samples:
        out.write(f"samples={args.samples} seed={args.seed}\n")
    return 0


def _cmd_verify(args, out: IO[str]) -> int:
    from . import multi_agent, oracle

    instance = load_instance(args.file)
    step = args.grid_step
    failures = 0

    def report(ok: bool, label: str, detail: str = "") -> None:
        nonlocal failures
        out.write(f"{'PASS' if ok else 'FAIL'}: {label}{(' ' + detail) if detail else ''}\n")
        if not ok:
            failures += 1

    for named in instance.agents:
        sol = single_agent.solve_single(named.spec)
        pair = (sol.contract.gamma, sol.contract.beta)
        _, ref = oracle.brute_force_single(named.spec, step, include=[pair])
        gap = sol.utility - ref
        # (1 - gamma) R - beta kappa_i: money comes in units of R_n and kappa_i
        ok = abs(gap) <= TOL * named.spec.money_scale + TOL * named.spec.kappa_i
        report(
            ok,
            f"solve[{named.name}] vs grid oracle (step {step})",
            f"solver={sol.utility!r} oracle={ref!r}"
            + ("" if ok else f" solver {'below' if gap < 0 else 'above'} oracle;"
               f" counterexample: contract={pair}"),
        )
        ic = oracle.check_ic_ir(named.spec, sol.contract, (sol.action, True))
        report(
            ic,
            f"solve[{named.name}] IC/IR",
            "" if ic else f"counterexample: contract={pair} action={sol.action}",
        )
        curve = single_agent.build_beta_curve(named.spec)
        gs = list(_linspace(curve.gamma_ir, 1.0, 201))
        vals = [single_agent.beta_at(curve, g) for g in gs]
        mono = all(a >= b - TOL for a, b in zip(vals, vals[1:]))
        report(
            mono,
            f"beta-curve[{named.name}] nonincreasing",
            "" if mono else f"counterexample: {list(zip(gs, vals))[:5]}...",
        )

    problem = multi_agent.AllocationProblem(instance.specs, instance.budget)
    alloc = multi_agent.allocate(problem)
    try:
        ref_alloc = oracle.brute_force_allocate(problem, 0.01)
    except ValidationError as exc:
        out.write(f"SKIP: allocate vs exhaustive search: {exc}\n")
    else:
        slack = math.fsum(TOL * a.money_scale for a in instance.specs)
        ref = ref_alloc.total_utility
        ok = alloc.total_utility >= ref - slack and alloc.dual_bound >= ref - slack
        report(
            ok,
            "allocate vs exhaustive search (step 0.01)",
            f"exact={alloc.total_utility!r} dual={alloc.dual_bound!r} brute={ref!r}"
            + ("" if ok else f" counterexample: caps={ref_alloc.caps}"),
        )
    sched = scheduler.build_schedule(list(alloc.caps), instance.budget)
    exact = scheduler.exact_marginals(sched)
    ok = all(abs(e - t) <= TOL for e, t in zip(exact, alloc.caps))
    report(
        ok,
        "schedule marginals match allocation caps",
        "" if ok else f"counterexample: targets={alloc.caps} exact={exact}",
    )

    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inspection-contracts",
        description="Optimal linear contracts with random safety inspections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="instance JSON file")
        p.add_argument("--precision", type=_precision, default=6, help="decimal places")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("solve", help="optimal single-agent contract per agent")
    common(p)
    p.add_argument("--agent", default=None, help="restrict to one agent by name")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("beta-curve", help="CSV sample of beta(gamma)")
    common(p)
    p.add_argument("--agent", required=True)
    p.add_argument("--samples", type=_nonnegative_int, required=True)
    p.set_defaults(func=_cmd_beta_curve)

    p = sub.add_parser("sweep", help="CSV of optimal contracts along a parameter grid")
    common(p)
    p.add_argument("--agent", required=True)
    p.add_argument("--param", required=True, choices=["kappa_i", "kappa_s", "alpha"])
    p.add_argument("--from", dest="from_", type=_finite_float, required=True)
    p.add_argument("--to", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=_cmd_sweep)

    def allocation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float, default=None,
                       help="grid step of the paper's DP (default: exact split)")

    p = sub.add_parser("allocate", help="split the inspection budget across agents")
    common(p)
    allocation_flags(p)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("schedule", help="inspector assignment with exact marginals")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-allocation", action="store_true")
    group.add_argument("--targets", default=None, help="comma-separated marginals")
    p.add_argument("--samples", type=_nonnegative_int, default=0, help="Monte Carlo draws")
    p.add_argument("--seed", type=int, default=0)
    allocation_flags(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("verify", help="run oracle cross-checks; exit 0 iff all pass")
    common(p)
    p.add_argument("--grid-step", type=_positive_float, default=1e-3)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a name stdout's encoding cannot carry is escaped; --out files are UTF-8
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                return args.func(args, fh)
        code = args.func(args, sys.stdout)
        # a reader that has gone shows here at the latest, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # no reader is no invariant breach: exit as a SIGPIPE'd process
        # would, and point stdout at devnull so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def cli_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_main()
