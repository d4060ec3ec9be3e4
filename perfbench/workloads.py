"""The four workloads.  Each is a closed loop with one client in one process.

A workload has a ``setup`` (input generation, file writing, warm-up), a
``run_round`` that performs one round of operations and records their
outputs, a ``check`` that judges one operation's output outside the timed
window, and ``detail`` metrics computed from the untraced rounds.

``call_ms`` is the median wall time of each workload's unit call, every
call of the run timed on its own:

* contract_design: ``solve_single`` on an agent with at most 8 actions
* budget_split:    one ``allocate`` call
* oracle_verify:   one single-agent oracle cross-check
* cli_batch:       one ``solve`` CLI process
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import inputs
from checks import (
    RawAgent,
    beta_required,
    check_allocation,
    check_beta_samples,
    check_contract,
    check_draws,
    check_frequencies,
    check_marginals,
    check_oracle_allocation,
    check_oracle_single,
    reference_utility,
)
from harness import SRC, CheckFailed, Op, RoundLog, median, perf_counter

from inspection_contracts import (
    Action,
    AgentSpec,
    AllocationProblem,
    allocate,
    beta_at,
    brute_force_allocate,
    brute_force_single,
    build_beta_curve,
    build_envelope,
    build_schedule,
    build_utility_curve,
    check_ic_ir,
    cli,
    exact_marginals,
    gap_bound,
    load_instance,
    sample_assignment,
    solve_single,
    sweep_parameter,
)

# Known faults in the program.  An operation that runs into one counts as
# failed, not as a wrong answer, until the fault is mended.
FAULT_UNITS = "envelope collinearity test uses an absolute tolerance (ATOL=1e-9)"
FAULT_SCHEDULE_SUM = "build_schedule compares a plain float sum against _EPS=1e-12"
FAULT_CLI_OVERFLOW = "huge JSON integer exits 3 (OverflowError) instead of 2"


def spec_of(doc: dict) -> AgentSpec:
    return AgentSpec(
        tuple(Action(a["reward"], a["cost"]) for a in doc["actions"]),
        doc["kappa_s"], doc["kappa_i"], doc["alpha"],
    )


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# traced calls: each times the real call and, when tracing, replays the
# public functions it calls internally as part_of spans
# ---------------------------------------------------------------------------


def t_beta_curve(tr, spec, part_of=None, counted=False):
    with tr.span("single_agent.build_beta_curve", part_of=part_of) as sp:
        curve = build_beta_curve(spec)
    if tr.on:
        with tr.span("envelope.build_envelope", part_of=sp) as ep:
            env = build_envelope(spec.actions)
        if counted:
            sp.count(beta_pieces=len(curve.pieces))
            ep.count(hull_actions=len(env.hull_actions))
    return curve


def t_solve(tr, spec, part_of=None):
    """solve_single and its wall time (the replay is not included)."""
    t0 = perf_counter()
    with tr.span("single_agent.solve_single", part_of=part_of) as sp:
        sol = solve_single(spec)
    dt = perf_counter() - t0
    if tr.on:
        t_beta_curve(tr, spec, part_of=sp)
    return sol, dt


def t_utility_curves(tr, specs, part_of):
    curves = []
    for spec in specs:
        with tr.span("multi_agent.build_utility_curve", part_of=part_of) as sp:
            curves.append(build_utility_curve(spec))
        t_beta_curve(tr, spec, part_of=sp)
    return curves


def t_allocate(tr, problem):
    t0 = perf_counter()
    with tr.span("multi_agent.allocate") as sp:
        alloc = allocate(problem)
    dt = perf_counter() - t0
    if tr.on:
        curves = t_utility_curves(tr, problem.agents, sp)
        spare = problem.budget - sum(c.beta_min for c in curves)
        steps = int(math.floor(spare / alloc.delta + 1e-9))
        sp.count(dp_cells=len(curves) * (steps + 1))
    return alloc, dt


def t_brute_allocate(tr, problem, step):
    with tr.span("oracle.brute_force_allocate") as sp:
        ref = brute_force_allocate(problem, step)
    if tr.on:
        t_utility_curves(tr, problem.agents, sp)
    return ref


def t_brute_single(tr, spec, step, include):
    with tr.span("oracle.brute_force_single") as sp:
        contract, utility = brute_force_single(spec, step, include=include)
    if tr.on:
        g = int(math.floor(1.0 / step + 1e-9)) + 1
        if (g - 1) * step < 1.0 - 1e-12:
            g += 1
        sp.count(grid_evals=(g * g + len(include)) * spec.n)
    return contract, utility


def t_schedule(tr, targets, budget):
    with tr.span("scheduler.build_schedule"):
        sched = build_schedule(targets, budget)
    with tr.span("scheduler.exact_marginals"):
        exact = exact_marginals(sched)
    return sched, exact


def t_draws(tr, sched, seeds):
    """The draws and their wall time."""
    t0 = perf_counter()
    with tr.span("scheduler.sample_assignment") as sp:
        draws = [sample_assignment(sched, s) for s in seeds]
    dt = perf_counter() - t0
    sp.count(draws=len(seeds))
    return draws, dt


class Workload:
    name: str
    Sizes: type
    # cli_batch's work happens in child processes, so their peak RSS counts
    rss_of_children = False

    def __init__(self, sizes=None):
        self.sizes = sizes or self.Sizes()


# ---------------------------------------------------------------------------
# contract_design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSizes:
    large_n: int = 100_000
    large_agents: int = 2
    small_agents: int = 2000


# sweep grids: factors of each agent's kappa_i, and shares of its best R - c
# for kappa_s; the large agents get shorter grids
SMALL_SWEEP = (0.5, 1.0, 2.0, 4.0)
LARGE_SWEEP = (0.5, 2.0)
SMALL_KAPPA_S = (0.1, 0.3, 0.5, 0.7)
LARGE_KAPPA_S = (0.15, 0.45)
BETA_SAMPLES = 8
# money units of the NONCONVEX copies, 10^k; the copies at k <= FAULT_UNITS_MAX_K
# run into FAULT_UNITS
SCALES = tuple(range(-9, 10))
FAULT_UNITS_MAX_K = -5


class ContractDesign(Workload):
    name = "contract_design"
    Sizes = DesignSizes

    def setup(self, seed: int, workdir: Path, log: RoundLog):
        s = self.sizes
        doc = inputs.portfolio(inputs.rng_for(self.name, seed), s.large_n,
                               s.large_agents, s.small_agents)
        log.mark()
        path = workdir / "portfolio.json"
        write_json(path, doc)
        log.mark()
        raws = [RawAgent.from_doc(a) for a in doc["agents"]]
        log.mark()
        scaled = {k: inputs.nonconvex_scaled(k) for k in SCALES}
        state = {
            "path": path,
            "docs": doc["agents"],
            "raws": raws,
            "scaled_specs": {k: spec_of(d) for k, d in scaled.items()},
            "scaled_raws": {k: RawAgent.from_doc(d) for k, d in scaled.items()},
        }
        # warm-up: every call of a round once, on the smallest agent
        small = spec_of(doc["agents"][-1])
        solve_single(small)
        beta_at(build_beta_curve(small), 1.0)
        sweep_parameter(small, "kappa_i", [small.kappa_i])
        return state

    def _grids(self, k: int, raw: RawAgent):
        large = k < self.sizes.large_agents
        ki = LARGE_SWEEP if large else SMALL_SWEEP
        ks = LARGE_KAPPA_S if large else SMALL_KAPPA_S
        slack = float(np.max(raw.rewards - raw.costs))
        return [raw.kappa_i * f for f in ki], [slack * f for f in ks]

    def run_round(self, state, log: RoundLog, tr) -> None:
        s = self.sizes
        t0 = perf_counter()
        with tr.span("instances.load_instance") as sp:
            inst = load_instance(state["path"])
        log.timed("load", perf_counter() - t0)
        log.ops.append(Op("load", None, inst))
        log.mark()
        if tr.on:
            sp.count(actions_loaded=sum(a.spec.n for a in inst.agents))
            with tr.span("single_agent.AgentSpec", part_of=sp):
                for a in inst.agents:
                    AgentSpec(a.spec.actions, a.spec.kappa_s, a.spec.kappa_i, a.spec.alpha)

        for k, named in enumerate(inst.agents):
            tr.op = f"{tr.round}.{k}"
            spec = named.spec
            large = k < s.large_agents
            if large or k % 100 == 0:
                log.mark()
            sol, dt = t_solve(tr, spec)
            log.timed("solve_large" if large else "solve_small", dt)
            if not large:
                log.unit_calls.append(dt)
            log.ops.append(Op("solve", k, sol))

            curve = t_beta_curve(tr, spec, counted=True)
            g_ir = curve.gamma_ir
            gammas = [g_ir + (1.0 - g_ir) * j / (BETA_SAMPLES - 1) for j in range(BETA_SAMPLES)]
            with tr.span("single_agent.beta_at"):
                samples = [(g, beta_at(curve, g)) for g in gammas]
            log.ops.append(Op("curve", k, samples))

            ki_grid, ks_grid = self._grids(k, state["raws"][k])
            for which, grid in (("kappa_i", ki_grid), ("kappa_s", ks_grid)):
                t0 = perf_counter()
                with tr.span("single_agent.sweep_parameter") as sp:
                    rows = sweep_parameter(spec, which, grid)
                log.timed("sweep", perf_counter() - t0, len(grid))
                log.ops.append(Op("sweep_" + which, (k, tuple(grid)), rows))
                if tr.on:
                    # each row rebuilds the spec and solves it
                    for v in grid:
                        with tr.span("single_agent.AgentSpec", part_of=sp):
                            row_spec = replace(spec, **{which: v})
                        t_solve(tr, row_spec, part_of=sp)

        log.mark()
        for k, spec in state["scaled_specs"].items():
            tr.op = f"{tr.round}.scale{k}"
            fault = FAULT_UNITS if k <= FAULT_UNITS_MAX_K else None
            try:
                sol, _ = t_solve(tr, spec)
                log.ops.append(Op("rescale", k, sol, fault=fault))
            except Exception as exc:  # noqa: BLE001 - recorded as the op's failure
                log.ops.append(Op("rescale", k, error=exc, fault=fault))
        tr.op = None

    def check(self, state, op: Op) -> None:
        if op.kind == "load":
            inst = op.output
            if len(inst.agents) != len(state["docs"]):
                raise CheckFailed(f"loaded {len(inst.agents)} agents of {len(state['docs'])}")
            for named, doc, raw in zip(inst.agents, state["docs"], state["raws"]):
                spec = named.spec
                if named.name != doc["name"] or (spec.kappa_s, spec.kappa_i, spec.alpha) != (
                    raw.kappa_s, raw.kappa_i, raw.alpha
                ):
                    raise CheckFailed(f"agent {doc['name']} loaded with wrong parameters")
                r = np.array([a.reward for a in spec.actions])
                c = np.array([a.cost for a in spec.actions])
                if not (np.array_equal(r, raw.rewards) and np.array_equal(c, raw.costs)):
                    raise CheckFailed(f"agent {doc['name']} loaded with wrong actions")
            return
        if op.kind == "rescale":
            self._check_rescale(state, op)
            return
        k = op.key if op.kind in ("solve", "curve") else op.key[0]
        raw = state["raws"][k]
        what = f"{op.kind}[{state['docs'][k]['name']}]"
        if op.kind == "solve":
            sol = op.output
            check_contract(raw, sol.contract.gamma, sol.contract.beta, sol.action,
                           sol.utility, what)
        elif op.kind == "curve":
            check_beta_samples(raw, op.output, what)
        else:
            which = op.kind[len("sweep_"):]
            rows = op.output
            if [r.value for r in rows] != list(op.key[1]):
                raise CheckFailed(f"{what}: rows do not follow the grid")
            for row in rows:
                if not row.feasible:
                    raise CheckFailed(f"{what}: feasible {which}={row.value} reported infeasible")
                check_contract(raw.with_param(which, row.value), row.gamma, row.beta, None,
                               row.utility, f"{what} at {row.value}")
            if which == "kappa_i":
                for a, b in zip(rows, rows[1:]):
                    if b.gamma < a.gamma - 1e-9 or b.beta > a.beta + 1e-9:
                        raise CheckFailed(
                            f"{what}: (gamma*, beta*) moves the wrong way between "
                            f"kappa_i={a.value} and {b.value}"
                        )

    @staticmethod
    def _check_rescale(state, op: Op) -> None:
        """Every copy, the unscaled one too, has NONCONVEX's known optimum."""
        sol = op.output
        what = f"rescale 1e{op.key}"
        check_contract(state["scaled_raws"][op.key], sol.contract.gamma, sol.contract.beta,
                       sol.action, sol.utility, what)
        gamma, beta, action = inputs.NONCONVEX_OPTIMUM
        if (abs(sol.contract.gamma - gamma) > 1e-9 or abs(sol.contract.beta - beta) > 1e-9
                or sol.action != action):
            raise CheckFailed(f"{what}: contract {sol.contract} with action {sol.action}, "
                              f"not ({gamma}, {beta}) with action {action}")
        want = inputs.NONCONVEX_UTILITY * 10.0 ** op.key
        if abs(sol.utility - want) > 1e-9 * abs(want):
            raise CheckFailed(f"{what}: utility {sol.utility} != {want}")

    @staticmethod
    def detail(logs) -> dict:
        return {
            "load_s": (median([g.paced("load") for g in logs]), "s"),
            "solve_per_s": (median([g.calls["solve_small"] / g.paced("solve_small")
                                    for g in logs]), "1/s"),
            "solve_large_s": (median([g.paced("solve_large") / g.calls["solve_large"]
                                      for g in logs]), "s"),
            "sweep_points_per_s": (median([g.calls["sweep"] / g.paced("sweep")
                                           for g in logs]), "1/s"),
        }


# ---------------------------------------------------------------------------
# budget_split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSizes:
    agents: int = 100
    budget: int = 10
    # the grid step is set per seed so the DP always has this many steps
    # (about 0.005 with these agents), i.e. agents * (steps + 1) cells
    steps: int = 1800
    draws: int = 20_000


ACTIONS = 10  # per budget_split agent
# build_schedule([0.3] * 1000, 300): exactly feasible, runs into FAULT_SCHEDULE_SUM
FULL_BUDGET_AGENTS = 1000
FULL_BUDGET = 300
DRAW_SEGMENT = 4000  # draws per paced segment, about 0.06 s


class BudgetSplit(Workload):
    name = "budget_split"
    Sizes = SplitSizes

    def setup(self, seed: int, workdir: Path, log: RoundLog):
        s = self.sizes
        rng = inputs.rng_for(self.name, seed)
        docs = inputs.feasible_group(
            rng, s.agents, s.budget, lambda l: ACTIONS, share=0.5,
            kappa_s_frac=(0.03, 0.07), kappa_i=(0.5, 3.0), alpha=(0.0, 0.06),
        )
        specs = tuple(spec_of(d) for d in docs)
        spare = s.budget - sum(inputs.beta_min(d) for d in docs)
        base = int(rng.integers(0, 2**31))
        state = {
            "problem": AllocationProblem(specs, s.budget, delta=spare / s.steps),
            "raws": [RawAgent.from_doc(d) for d in docs],
            "seeds": range(base, base + s.draws),
        }
        warm = AllocationProblem(specs[:2], s.budget, delta=0.1)
        sched = build_schedule([c.beta for c in allocate(warm).contracts], s.budget)
        exact_marginals(sched)
        sample_assignment(sched, 0)
        return state

    def run_round(self, state, log: RoundLog, tr) -> None:
        s = self.sizes
        tr.op = f"{tr.round}.allocate"
        alloc, dt = t_allocate(tr, state["problem"])
        log.timed("allocate", dt)
        log.unit_calls.append(dt)
        log.ops.append(Op("allocate", None, alloc))
        log.mark()

        targets = [c.beta for c in alloc.contracts]
        tr.op = f"{tr.round}.schedule"
        sched, exact = t_schedule(tr, targets, s.budget)
        log.ops.append(Op("schedule", None, (targets, exact)))
        draws = []
        seeds = state["seeds"]
        for lo in range(0, len(seeds), DRAW_SEGMENT):
            log.mark()
            chunk, dt = t_draws(tr, sched, seeds[lo : lo + DRAW_SEGMENT])
            draws += chunk
            log.timed("draws", dt, len(chunk))
        log.ops.append(Op("draws", None, (targets, draws), count=len(draws)))
        log.mark()

        tr.op = f"{tr.round}.full_budget"
        full = [0.3] * FULL_BUDGET_AGENTS
        try:
            log.ops.append(Op("full_budget", None, (full, t_schedule(tr, full, FULL_BUDGET)[1]),
                              fault=FAULT_SCHEDULE_SUM))
        except Exception as exc:  # noqa: BLE001 - recorded as the op's failure
            log.ops.append(Op("full_budget", None, error=exc, fault=FAULT_SCHEDULE_SUM))
        tr.op = None

    def check(self, state, op: Op) -> None:
        s = self.sizes
        if op.kind == "allocate":
            alloc = op.output
            raws = state["raws"]
            check_allocation(raws, s.budget, alloc.caps, alloc.contracts,
                             alloc.total_utility, "allocate")
            ref = equal_split_reference(raws, s.budget, state["problem"].delta)
            if alloc.total_utility < ref - 1e-9 * max(1.0, abs(ref)):
                raise CheckFailed(
                    f"allocate: total {alloc.total_utility} below equal split {ref}"
                )
        elif op.kind in ("schedule", "full_budget"):
            targets, exact = op.output
            check_marginals(exact, targets, op.kind)
        elif op.kind == "draws":
            targets, draws = op.output
            check_draws(draws, targets, s.budget, "draws")

    @staticmethod
    def detail(logs) -> dict:
        return {
            "allocate_s": (median([g.paced("allocate") for g in logs]), "s"),
            "draws_per_s": (median([g.calls["draws"] / g.paced("draws") for g in logs]), "1/s"),
        }


def equal_split_reference(raws, budget: int, delta: float) -> float:
    """Total utility when every agent gets the same number of grid steps.

    That split is one of the DP's own candidates, so the DP must reach at
    least this.  Each agent's utility under its cap is a feasible lower bound
    from a 2001-point gamma grid on the raw definitions.
    """
    gammas = np.linspace(0.0, 1.0, 2001)
    mins = [float(beta_required(r, np.array([1.0]))[0]) for r in raws]
    steps = int(math.floor((budget - sum(mins)) / len(raws) / delta))
    return math.fsum(
        reference_utility(r, b + steps * delta - 1e-12, gammas) for r, b in zip(raws, mins)
    )


# ---------------------------------------------------------------------------
# oracle_verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSizes:
    # action counts of the agents checked per round: every size up to 8 once,
    # and most at n=4, so the median check is an n=4 check rather than a
    # boundary between two sizes
    single_n: tuple = (1, 2, 3, 5, 6, 7, 8) + (4,) * 10
    step: float = 1e-3
    alloc_steps: tuple = (0.01, 1e-3)


ALLOC_M = (2, 3)  # agents in each allocation checked per round
ALLOC_DELTA = 0.01
# brute_force_allocate costs about 2 ns per point of its m-dimensional grid
# at the fine step, from 3e4 to 1e8 points for random 3-agent groups.  Of
# CANDIDATES candidate groups, the one whose grid is closest to FINE_GRID
# points is kept, so the fine check (and set-up) cost about the same
# whatever the seed.
FINE_GRID = 3e7
CANDIDATES = 16


class OracleVerify(Workload):
    name = "oracle_verify"
    Sizes = OracleSizes

    def setup(self, seed: int, workdir: Path, log: RoundLog):
        s = self.sizes
        rng = inputs.rng_for(self.name, seed)
        singles = [inputs.small_agent(rng, f"s{k}", n) for k, n in enumerate(s.single_n)]
        groups = [self._group(rng, m) for m in ALLOC_M]
        state = {
            "singles": [spec_of(d) for d in singles],
            "single_raws": [RawAgent.from_doc(d) for d in singles],
            "problems": [AllocationProblem(tuple(spec_of(d) for d in g), 1,
                                           delta=ALLOC_DELTA) for g in groups],
            "group_raws": [[RawAgent.from_doc(d) for d in g] for g in groups],
        }
        brute_force_single(state["singles"][0], 0.1)
        brute_force_allocate(AllocationProblem(state["singles"][:1], 1), 0.1)
        return state

    def _group(self, rng, m: int) -> list[dict]:
        s = self.sizes

        def draw():
            return inputs.feasible_group(rng, m, 1, lambda l: 1 + l % 4, share=0.7,
                                         kappa_s_frac=(0.2, 0.6), kappa_i=(0.2, 2.0),
                                         alpha=(0.0, 0.3))

        def distance(docs):
            points = math.prod(inputs.cap_range(d) / s.alloc_steps[-1] + 1 for d in docs)
            return abs(math.log(points / FINE_GRID))

        if m < 3:
            return draw()
        return min((draw() for _ in range(CANDIDATES)), key=distance)

    def run_round(self, state, log: RoundLog, tr) -> None:
        s = self.sizes
        for k, spec in enumerate(state["singles"]):
            tr.op = f"{tr.round}.single{k}"
            t0 = perf_counter()
            sol, _ = t_solve(tr, spec)
            pair = (sol.contract.gamma, sol.contract.beta)
            _, ref = t_brute_single(tr, spec, s.step, [pair])
            with tr.span("oracle.check_ic_ir"):
                ic = check_ic_ir(spec, sol.contract, (sol.action, True))
            dt = perf_counter() - t0
            log.timed("oracle_single", dt)
            log.unit_calls.append(dt)
            log.ops.append(Op("oracle_single", k, (sol, ref, ic)))
            log.mark()
        for j, problem in enumerate(state["problems"]):
            tr.op = f"{tr.round}.alloc{j}"
            alloc, _ = t_allocate(tr, problem)
            refs = [t_brute_allocate(tr, problem, st).total_utility for st in s.alloc_steps]
            log.ops.append(Op("oracle_allocate", j,
                              (alloc, refs, gap_bound(problem, alloc.delta))))
            log.mark()
        tr.op = None

    def check(self, state, op: Op) -> None:
        if op.kind == "oracle_single":
            sol, ref, ic = op.output
            raw = state["single_raws"][op.key]
            what = f"single[{op.key}]"
            check_contract(raw, sol.contract.gamma, sol.contract.beta, sol.action,
                           sol.utility, what)
            if not ic:
                raise CheckFailed(f"{what}: check_ic_ir rejects the solver's contract")
            check_oracle_single(sol.utility, ref, what)
        else:
            alloc, (coarse, fine), gap = op.output
            what = f"allocation[{op.key}]"
            check_allocation(state["group_raws"][op.key], 1, alloc.caps, alloc.contracts,
                             alloc.total_utility, what)
            check_oracle_allocation(alloc.total_utility, coarse, fine, gap, what)

    @staticmethod
    def detail(logs) -> dict:
        return {
            "oracle_checks_per_s": (median([g.calls["oracle_single"] / g.paced("oracle_single")
                                            for g in logs]), "1/s"),
        }


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliSizes:
    agents: int = 3
    samples: int = 20_000


SUBCOMMANDS = ("solve", "allocate", "schedule", "verify")
PRECISION = "15"


def cli_env() -> dict:
    """Child environment that imports the package from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["NO_COLOR"] = "1"
    return env


def run_process(argv, cwd: Path):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    return proc, perf_counter() - t0


def parse_kv(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split())


class CliBatch(Workload):
    name = "cli_batch"
    Sizes = CliSizes

    def setup(self, seed: int, workdir: Path, log: RoundLog):
        s = self.sizes
        rng = inputs.rng_for(self.name, seed)
        docs = inputs.feasible_group(rng, s.agents, 1, lambda l: 1 + (2 * l) % 4, share=0.7,
                                     kappa_s_frac=(0.2, 0.6), kappa_i=(0.2, 2.0),
                                     alpha=(0.0, 0.3))
        inst = workdir / "instance.json"
        write_json(inst, {"agents": docs, "budget": 1})
        bad = workdir / "huge_int.json"
        bad.write_text(
            '{"agents": [{"name": "a1", "actions": [{"reward": 1' + "0" * 400
            + ', "cost": 1.0}], "kappa_s": 1.0, "kappa_i": 1.0, "alpha": 0.0}]}'
        )
        draw_seed = int(rng.integers(0, 2**31))
        argv = {
            "solve": ["solve", str(inst), "--precision", PRECISION],
            "allocate": ["allocate", str(inst), "--precision", PRECISION],
            "schedule": ["schedule", str(inst), "--from-allocation", "--samples",
                         str(s.samples), "--seed", str(draw_seed), "--precision", PRECISION],
            "verify": ["verify", str(inst)],
            "invalid": ["solve", str(bad)],
        }
        state = {"workdir": workdir, "argv": argv, "docs": docs,
                 "raws": [RawAgent.from_doc(d) for d in docs]}
        # warm-up, and proof that children import this checkout's src
        proc, _ = run_process(["-c", "import inspection_contracts as p; print(p.__file__)"],
                              workdir)
        where = Path(proc.stdout.strip()).resolve()
        if proc.returncode != 0 or SRC.resolve() not in where.parents:
            raise RuntimeError(f"child process imports the package from {where}, not {SRC}")
        # each process of a round once, a segment each: process start-up
        # varies a lot, and several of them give a steadier set-up time
        for sub in (*SUBCOMMANDS, "invalid"):
            log.mark()
            run_process(["-m", "inspection_contracts.cli", *argv[sub]], workdir)
        return state

    def run_round(self, state, log: RoundLog, tr) -> None:
        for sub in (*SUBCOMMANDS, "invalid"):
            tr.op = f"{tr.round}.{sub}"
            with tr.span(f"cli.process.{sub}"):
                proc, dt = run_process(["-m", "inspection_contracts.cli", *state["argv"][sub]],
                                       state["workdir"])
            log.timed(sub, dt)
            if sub == "solve":
                log.unit_calls.append(dt)
            fault = FAULT_CLI_OVERFLOW if sub == "invalid" else None
            log.ops.append(Op(sub, None, proc, fault=fault))
            log.mark()
        if tr.on:
            self._probe(state, tr)
        tr.op = None

    def _probe(self, state, tr) -> None:
        """Layer probes: bare interpreter, import, and cli.main in this process.

        All of it is extra work that untraced rounds do not do, so it sits in
        one extra span.
        """
        tr.op = f"{tr.round}.probe"
        with tr.span("cli.probe", extra=True):
            self._probes(state, tr)

    def _probes(self, state, tr) -> None:
        wd = state["workdir"]
        with tr.span("cli.python_startup"):
            run_process(["-c", "pass"], wd)
        code = ("import time; t = time.perf_counter(); import inspection_contracts; "
                "print(t, time.perf_counter())")
        proc, _ = run_process(["-c", code], wd)
        start, end = map(float, proc.stdout.split())
        tr.add("cli.import", start, end)
        specs = [spec_of(d) for d in state["docs"]]
        problem = AllocationProblem(tuple(specs), 1, delta=0.01)
        for sub in SUBCOMMANDS:
            with tr.span(f"cli.main.{sub}"):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(state["argv"][sub])
            # replays of the library calls each subcommand makes
            if sub == "solve":
                for spec in specs:
                    t_solve(tr, spec)
            elif sub == "allocate":
                t_allocate(tr, problem)
            elif sub == "schedule":
                alloc, _ = t_allocate(tr, problem)
                sched, _ = t_schedule(tr, [c.beta for c in alloc.contracts], 1)
                t_draws(tr, sched, range(self.sizes.samples))
            else:
                for spec in specs:
                    sol, _ = t_solve(tr, spec)
                    t_brute_single(tr, spec, 1e-3, [(sol.contract.gamma, sol.contract.beta)])
                    with tr.span("oracle.check_ic_ir"):
                        check_ic_ir(spec, sol.contract, (sol.action, True))
                    curve = t_beta_curve(tr, spec)
                    with tr.span("single_agent.beta_at"):
                        for j in range(201):
                            beta_at(curve, curve.gamma_ir + (1 - curve.gamma_ir) * j / 200)
                alloc, _ = t_allocate(tr, problem)
                t_brute_allocate(tr, problem, 0.01)
                t_schedule(tr, list(alloc.caps), 1)

    def check(self, state, op: Op) -> None:
        proc = op.output
        raws = state["raws"]
        if op.kind == "invalid":
            if proc.returncode != 2 or not proc.stderr.startswith("error:"):
                raise CheckFailed(
                    f"invalid instance exits {proc.returncode}, not 2: {proc.stderr.strip()}"
                )
            return
        if proc.returncode != 0:
            raise CheckFailed(f"{op.kind} exits {proc.returncode}: {proc.stderr.strip()}")
        lines = proc.stdout.splitlines()
        if op.kind == "solve":
            rows = [parse_kv(l) for l in lines]
            if len(rows) != len(raws):
                raise CheckFailed(f"solve printed {len(rows)} agents of {len(raws)}")
            for raw, row in zip(raws, rows):
                check_contract(raw, float(row["gamma"]), float(row["beta"]),
                               int(row["action"]) - 1, float(row["utility"]),
                               f"cli solve[{row['agent']}]")
        elif op.kind == "allocate":
            rows = [parse_kv(l) for l in lines[: len(raws)]]
            total = float(parse_kv(lines[len(raws)])["total"])
            contracts = [
                _Choice(float(r["gamma"]), float(r["beta_effective"]), None, float(r["utility"]))
                for r in rows
            ]
            check_allocation(raws, 1, [float(r["beta_bar"]) for r in rows], contracts,
                             total, "cli allocate")
        elif op.kind == "schedule":
            rows = [parse_kv(l) for l in lines[: len(raws)]]
            targets = [float(r["target"]) for r in rows]
            if math.fsum(targets) > 1 + 1e-9:
                raise CheckFailed("cli schedule: targets sum above the budget")
            check_marginals([float(r["exact"]) for r in rows], targets, "cli schedule")
            n = self.sizes.samples
            counts = [round(float(r["empirical"]) * n) for r in rows]
            check_frequencies(counts, n, targets, "cli schedule")
        elif op.kind == "verify":
            expected = 3 * len(raws) + 2
            passed = [l for l in lines if l.startswith("PASS: ")]
            if len(passed) != expected or len(lines) != expected:
                raise CheckFailed(f"cli verify: {len(passed)} PASS lines of {expected}: {lines}")

    @staticmethod
    def detail(logs) -> dict:
        return {
            f"cli_{sub}_s": (median([g.paced(sub) / g.calls[sub] for g in logs]), "s")
            for sub in SUBCOMMANDS
        }


@dataclass(frozen=True)
class _Choice:
    gamma: float
    beta: float
    action: int | None
    utility: float


WORKLOADS = {w.name: w for w in (ContractDesign, BudgetSplit, OracleVerify, CliBatch)}
