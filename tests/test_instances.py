import json
import math
import sys
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inspection_contracts import (
    Action,
    AgentSpec,
    ContractError,
    DegenerateInput,
    InfeasibleSafety,
    UpperEnvelope,
    ValidationError,
    build_beta_curve,
    build_envelope,
    eval_envelope,
    invert_envelope,
    load_instance,
    parse_instance,
)
from inspection_contracts.envelope import segment_at
from inspection_contracts.single_agent import check_safety
from inspection_contracts.tolerance import TOL
from conftest import CANCEL, FLAT_FIRST, case_agent, priced, random_agent

GOOD = {
    "agents": [
        {
            "name": "a1",
            "actions": [{"reward": 10.0, "cost": 2.0}],
            "kappa_s": 1.0,
            "kappa_i": 1.0,
            "alpha": 0.0,
        }
    ],
    "budget": 2,
}


def agent_doc(**overrides):
    doc = json.loads(json.dumps(GOOD))
    doc["agents"][0].update(overrides)
    return doc


def test_roundtrip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(GOOD))
    inst = load_instance(path)
    assert inst.budget == 2
    assert inst.agents[0].name == "a1"
    assert inst.agents[0].spec.actions.rewards == (10.0,)


def test_budget_defaults_to_one():
    doc = json.loads(json.dumps(GOOD))
    del doc["budget"]
    assert parse_instance(doc).budget == 1


def test_unknown_field_rejected():
    with pytest.raises(ValidationError, match="kappa_x"):
        parse_instance(agent_doc(kappa_x=1.0))
    doc = json.loads(json.dumps(GOOD))
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        parse_instance(doc)


def test_missing_field_rejected():
    doc = json.loads(json.dumps(GOOD))
    del doc["agents"][0]["alpha"]
    with pytest.raises(ValidationError, match="alpha"):
        parse_instance(doc)


def test_non_numeric_rejected():
    with pytest.raises(ValidationError, match="kappa_s"):
        parse_instance(agent_doc(kappa_s="one"))
    with pytest.raises(ValidationError, match="kappa_s"):
        parse_instance(agent_doc(kappa_s=True))


def test_budget_must_be_integer():
    doc = json.loads(json.dumps(GOOD))
    doc["budget"] = 1.5
    with pytest.raises(ValidationError, match="budget"):
        parse_instance(doc)


def test_assumption1_violation_names_agent():
    doc = agent_doc(actions=[{"reward": 5.0, "cost": 1.0}, {"reward": 5.0, "cost": 2.0}])
    with pytest.raises(DegenerateInput, match="a1"):
        parse_instance(doc)


def test_bad_action_value_names_agent():
    doc = agent_doc(actions=[{"reward": -1.0, "cost": 2.0}])
    with pytest.raises(ValidationError, match=r"^agents\[0\] \('a1'\): .*-1\.0"):
        parse_instance(doc)


def test_assumption1_violation_names_the_offending_actions():
    # sorted by cost, entry 1 (5, 2) comes before entry 0 (3, 3), whose
    # reward is lower; entry 2 is in order
    doc = agent_doc(
        actions=[
            {"reward": 3.0, "cost": 3.0},
            {"reward": 5.0, "cost": 2.0},
            {"reward": 2.0, "cost": 1.0},
        ]
    )
    pattern = r"^agents\[0\] \('a1'\): Action\(reward=5\.0, cost=2\.0\) and Action\(reward=3\.0, cost=3\.0\)"
    with pytest.raises(DegenerateInput, match=pattern):
        parse_instance(doc)


def test_assumption2_violation_is_infeasible():
    doc = agent_doc(actions=[{"reward": 2.0, "cost": 1.0}], kappa_s=1.5)
    with pytest.raises(InfeasibleSafety, match="Assumption 2"):
        parse_instance(doc)


def test_duplicate_names_rejected():
    doc = json.loads(json.dumps(GOOD))
    doc["agents"].append(json.loads(json.dumps(doc["agents"][0])))
    with pytest.raises(ValidationError, match="unique"):
        parse_instance(doc)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"agents": [}')
    with pytest.raises(ValidationError, match="line"):
        load_instance(path)


def test_unsorted_actions_are_canonicalized():
    doc = agent_doc(
        actions=[{"reward": 6.0, "cost": 2.0}, {"reward": 2.0, "cost": 1.0}]
    )
    inst = parse_instance(doc)
    assert inst.agents[0].spec.actions.costs == (1.0, 2.0)


def test_name_utf8_cannot_encode_rejected():
    # a lone surrogate escape parses as a str but cannot be written out
    doc = json.loads(json.dumps(GOOD).replace('"a1"', '"a\\ud800"'))
    assert doc["agents"][0]["name"] == "a\ud800"
    with pytest.raises(ValidationError) as exc:
        parse_instance(doc)
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "agents[0].name: expected a string UTF-8 can encode"


def test_agent_lookup():
    inst = parse_instance(GOOD)
    assert inst.agent("a1").name == "a1"
    with pytest.raises(ValidationError):
        inst.agent("missing")


@pytest.mark.parametrize("key", ["kappa_s", "kappa_i", "alpha"])
def test_bad_scalar_names_its_path_once(key):
    with pytest.raises(ValidationError) as exc:
        parse_instance(agent_doc(**{key: "one"}))
    assert str(exc.value) == f"agents[0].{key}: expected a number, got 'one'"


@pytest.mark.parametrize(
    "doc, message",
    [
        ([GOOD], "instance document must be a JSON object"),
        ({"agents": []}, "'agents' must be a nonempty list"),
        ({"agents": ["a1"]}, "agents[0]: expected an object"),
        (agent_doc(name=""), "agents[0].name: expected a nonempty string"),
        (agent_doc(actions=[]), "agents[0].actions: expected a nonempty list"),
    ],
    ids=["not-an-object", "no-agents", "agent-not-an-object", "empty-name", "no-actions"],
)
def test_bad_document_message(doc, message):
    with pytest.raises(ValidationError) as exc:
        parse_instance(doc)
    assert type(exc.value) is ValidationError
    assert str(exc.value) == message


def entry_doc(entry: str) -> dict:
    """GOOD with ``entry`` (JSON text) as the agent's second action."""
    text = json.dumps(GOOD).replace(
        '{"reward": 10.0, "cost": 2.0}', '{"reward": 10.0, "cost": 2.0}, ' + entry
    )
    return json.loads(text)


@pytest.mark.parametrize(
    "entry, error, message",
    [
        ("[10.0, 2.0]", ValidationError, "agents[0].actions[1]: expected an object"),
        ("12.0", ValidationError, "agents[0].actions[1]: expected an object"),
        (
            '{"reward": 12.0, "cost": 3.0, "weight": 1}',
            ValidationError,
            "agents[0].actions[1]: unknown field(s) ['weight']",
        ),
        ('{"reward": 12.0}', ValidationError, "agents[0].actions[1]: missing field(s) ['cost']"),
        ("{}", ValidationError, "agents[0].actions[1]: missing field(s) ['cost', 'reward']"),
        (
            '{"reward": true, "cost": 3.0}',
            ValidationError,
            "agents[0].actions[1].reward: expected a number, got True",
        ),
        (
            '{"reward": 12.0, "cost": "1"}',
            ValidationError,
            "agents[0].actions[1].cost: expected a number, got '1'",
        ),
        (
            '{"reward": null, "cost": 3.0}',
            ValidationError,
            "agents[0].actions[1].reward: expected a number, got None",
        ),
        (
            '{"reward": NaN, "cost": 3.0}',
            ValidationError,
            "agents[0].actions[1].reward: expected a finite number, got nan",
        ),
        (
            '{"reward": 12.0, "cost": Infinity}',
            ValidationError,
            "agents[0].actions[1].cost: expected a finite number, got inf",
        ),
        (
            '{"reward": 1e400, "cost": 3.0}',
            ValidationError,
            "agents[0].actions[1].reward: expected a finite number, got inf",
        ),
        (
            '{"reward": 12.0, "cost": 1' + "0" * 400 + "}",
            ValidationError,
            "agents[0].actions[1].cost: number too large for a float",
        ),
        (
            '{"reward": -1.0, "cost": 3.0}',
            ValidationError,
            "agents[0] ('a1'): Action(reward=-1.0, cost=3.0): values must be finite and nonnegative",
        ),
        (
            '{"reward": 12.0, "cost": 1.0}',
            DegenerateInput,
            "agents[0] ('a1'): Action(reward=12.0, cost=1.0) and Action(reward=10.0, cost=2.0):"
            " costs and rewards must strictly increase",
        ),
    ],
)
def test_bad_action_entry_message(entry, error, message):
    with pytest.raises(ValidationError) as exc:
        parse_instance(entry_doc(entry))
    assert type(exc.value) is error
    assert str(exc.value) == message


class Money(float):
    """A float subclass: not what JSON gives, but a number all the same."""


@pytest.mark.parametrize("value", [12, 12.0, Money(12.0)], ids=["int", "float", "subclass"])
def test_action_values_are_stored_as_floats(value):
    doc = entry_doc('{"reward": 0.0, "cost": 3.0}')
    doc["agents"][0]["actions"][1]["reward"] = value
    _, act = parse_instance(doc).agents[0].spec.actions
    assert type(act.reward) is float and act == Action(12.0, 3.0)


def reference_scan(actions):
    """The monotone chain read straight off ``Action`` attributes; ``_scan_hull``'s reference."""
    hull = [0]
    breakpoints = []
    for i in range(1, len(actions)):
        act = actions[i]
        while True:
            h = actions[hull[-1]]
            g = (act.cost - h.cost) / (act.reward - h.reward)
            if not breakpoints or g > breakpoints[-1] + TOL:
                break
            hull.pop()
            breakpoints.pop()
        hull.append(i)
        breakpoints.append(g)
    values = [g * actions[i].reward - actions[i].cost for g, i in zip(breakpoints, hull)]
    return UpperEnvelope(tuple(hull), tuple(breakpoints), tuple(values))


def reference_walk(spec):
    """``build_beta_curve``'s reference: (gamma_ir, pieces as plain tuples).

    Every envelope lookup goes through ``segment_at``, ``eval_envelope`` and
    ``invert_envelope``, and every closed form is written out on its own.
    """
    rewards, costs, env = spec.actions.rewards, spec.actions.costs, spec.actions.envelope
    top = check_safety(spec)
    gamma_ir = invert_envelope(env, rewards, costs, spec.kappa_s)
    cuts = {gamma_ir, 1.0}
    for b, val in zip(env.breakpoints, env.breakpoint_values):
        if gamma_ir < b < 1.0:
            cuts.add(b)
        if val + spec.kappa_s <= top:
            g = invert_envelope(env, rewards, costs, val + spec.kappa_s)
            if gamma_ir < g < 1.0:
                cuts.add(g)
    bounds = sorted(cuts)
    merged = [bounds[0]]
    for g in bounds[1:-1]:
        if g - merged[-1] > TOL:
            merged.append(g)
    if len(merged) > 1 and 1.0 - merged[-1] <= TOL:
        merged[-1] = 1.0
    else:
        merged.append(1.0)

    def raw(r, c, d, g):
        if g <= 0.0:
            return (1.0 - r / d) if c == 0.0 else math.copysign(math.inf, c)
        return 1.0 - (r * g - c) / (d * g)

    pieces = []
    clamped = False
    for lo, hi in zip(merged, merged[1:]):
        mid = 0.5 * (lo + hi)
        owner = env.hull_actions[segment_at(env, mid)]
        lowered = eval_envelope(env, rewards, costs, mid) - spec.kappa_s
        j = segment_at(env, invert_envelope(env, rewards, costs, lowered))
        if rewards[env.hull_actions[j]] == 0.0:
            j += 1  # sup{x : u_h(x) <= lowered} is the flat segment's right end
        shadow = env.hull_actions[j]
        coeffs = (rewards[owner], costs[owner] + spec.kappa_s - costs[shadow],
                  rewards[shadow] * (1.0 - spec.alpha))
        if clamped or raw(*coeffs, lo) <= 0.0:
            clamped = True
            pieces.append((lo, hi, owner, shadow, True, *coeffs))
            continue
        if raw(*coeffs, hi) >= 0.0:
            pieces.append((lo, hi, owner, shadow, False, *coeffs))
            continue
        root = min(max(coeffs[1] / (coeffs[0] - coeffs[2]), lo), hi)
        if raw(*coeffs, root) > 0.0:
            # the least double past the rounded root where beta is 0
            below, root = root, hi
            while below < (g := below + 0.5 * (root - below)) < root:
                below, root = (g, root) if raw(*coeffs, g) > 0.0 else (below, g)
        clamped = True
        pieces.append((lo, root, owner, shadow, False, *coeffs))
        pieces.append((root, hi, owner, shadow, True, *coeffs))
    return gamma_ir, pieces


curve_agents = st.one_of(
    st.builds(
        lambda seed, alpha_max: random_agent(np.random.default_rng(seed), alpha_max=alpha_max),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.95]),
    ),
    st.sampled_from([*CANCEL.values(), FLAT_FIRST]).map(case_agent),
)


@given(curve_agents, st.just(0) | st.integers(-300, 300))
@settings(max_examples=300, deadline=None)
def test_beta_curve_matches_the_reference_walk(agent, k):
    # in any currency unit where every nonzero amount stays a normal double
    unit = 10.0**k
    amounts = (*agent.actions.rewards, *agent.actions.costs, agent.kappa_s, agent.kappa_i)
    assume(all(x == 0.0 or sys.float_info.min <= x * unit < math.inf for x in amounts))
    spec = priced(agent, unit)
    curve = build_beta_curve(spec)
    # bit for bit: repr tells -0.0 from 0.0 and prints each double exactly
    got = curve.gamma_ir, [tuple(p) for p in curve.pieces]
    assert repr(got) == repr(reference_walk(spec))


@st.composite
def json_action_lists(draw, floats=st.booleans()):
    """(reward, cost) pairs, each value a JSON int or float or a float subclass,
    or, when ``floats`` draws True, every value a float.

    The pairs mostly increase.  Some points sit a few ulps off the line
    through the previous two, where the hull's ``TOL`` test decides whether
    the middle one survives; some lists repeat a cost or come unsorted.
    """
    reward_steps = st.one_of(st.integers(1, 1000), st.floats(0.01, 1000.0))
    cost_steps = st.one_of(st.integers(1, 100), st.floats(0.001, 100.0))
    pairs = [(draw(st.integers(1, 50)), draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 11))):
        r1, c1 = pairs[-1]
        if len(pairs) >= 2 and draw(st.booleans()):
            r0, c0 = pairs[-2]
            r2 = r1 + (r1 - r0) * draw(st.floats(0.5, 2.0))
            c2 = c1 + (c1 - c0) * ((r2 - r1) / (r1 - r0))
            for _ in range(draw(st.integers(0, 3))):
                c2 = math.nextafter(c2, draw(st.sampled_from([-math.inf, math.inf])))
            if r2 > r1 and c2 > c1:
                pairs.append((r2, c2))
        else:
            r2 = r1 + draw(reward_steps)
            c2 = c1 + draw(cost_steps)
            if r2 > r1 and c2 > c1:
                pairs.append((r2, c2))
    index = st.integers(0, len(pairs) - 1)
    if len(pairs) >= 2 and draw(st.booleans()):
        i, j = draw(index), draw(index)
        pairs[i] = (pairs[i][0], pairs[j][1])
    if draw(st.booleans()):
        pairs = [pairs[k] for k in draw(st.permutations(range(len(pairs))))]
    if draw(floats):
        return [(float(r), float(c)) for r, c in pairs]
    as_money = st.booleans().map(lambda money: Money if money else (lambda v: v))
    return [(draw(as_money)(r), draw(as_money)(c)) for r, c in pairs]


def as_loaded(build):
    """``build()``'s spec if it passes ``check_safety``, else its ContractError
    as ``parse_instance`` words it for agent ``a``."""
    try:
        spec = build()
        check_safety(spec)
    except ContractError as exc:
        return type(exc), f"agents[0] ('a'): {exc}"
    return spec


@given(json_action_lists())
@settings(max_examples=300, deadline=None)
def test_parsed_spec_and_envelope_match_references(pairs):
    # the document json.loads would give, but for the float subclass values
    doc = {
        "agents": [
            {
                "name": "a",
                "actions": [{"reward": r, "cost": c} for r, c in pairs],
                "kappa_s": 0.0,
                "kappa_i": 1.0,
                "alpha": 0.0,
            }
        ]
    }
    actions = tuple(Action(float(r), float(c)) for r, c in pairs)
    ordered = tuple(sorted(actions, key=attrgetter("cost")))
    try:
        got = parse_instance(doc).agents[0].spec
    except ContractError as exc:
        got = type(exc), str(exc)
    direct = as_loaded(lambda: AgentSpec(actions, 0.0, 1.0, 0.0))
    # the check on the order sorted() gives, independent of the spec's own sort
    ref = as_loaded(lambda: (build_envelope(ordered), AgentSpec(ordered, 0.0, 1.0, 0.0))[1])
    assert got == direct == ref
    if isinstance(ref, tuple):
        return
    assert got.actions == direct.actions
    assert all(type(v) is float for v in got.actions.rewards + got.actions.costs)
    assert tuple(got.actions) == tuple(direct.actions) == ordered
    scan = reference_scan(ordered)
    env = got.actions.envelope
    assert env == direct.actions.envelope == scan and repr(env) == repr(scan)


# ways to spoil one entry of an all-float list, each of which takes that entry
# off the loader's float fast path: a field's value as an int, a float
# subclass, NaN or JSON's 1e400, or the entry as a list or a dict with a field
# too many or too few
SPOILERS = {
    "int": lambda entry, key: dict(entry, **{key: round(entry[key])}),
    "subclass": lambda entry, key: dict(entry, **{key: Money(entry[key])}),
    "nan": lambda entry, key: dict(entry, **{key: math.nan}),
    "1e400": lambda entry, key: dict(entry, **{key: json.loads("1e400")}),
    "list": lambda entry, key: [entry["reward"], entry["cost"]],
    "extra": lambda entry, key: dict(entry, weight=1.0),
    "missing": lambda entry, key: {k: v for k, v in entry.items() if k != key},
}


@given(
    json_action_lists(floats=st.just(True)),
    st.data(),
    st.sampled_from(sorted(SPOILERS)),
    st.sampled_from(["reward", "cost"]),
)
@settings(max_examples=300, deadline=None)
def test_one_spoiled_entry_among_floats_is_checked_on_its_own(pairs, data, kind, key):
    entries = [{"reward": r, "cost": c} for r, c in pairs]
    k = data.draw(st.integers(0, len(entries) - 1))
    entries[k] = SPOILERS[kind](entries[k], key)
    doc = {"agents": [{"name": "a", "actions": entries, "kappa_s": 0.0, "kappa_i": 1.0,
                       "alpha": 0.0}]}
    try:
        got = parse_instance(doc).agents[0].spec
    except ContractError as exc:
        got = type(exc), str(exc)
    where = f"agents[0].actions[{k}]"
    want = {
        "nan": (ValidationError, f"{where}.{key}: expected a finite number, got nan"),
        "1e400": (ValidationError, f"{where}.{key}: expected a finite number, got inf"),
        "list": (ValidationError, f"{where}: expected an object"),
        "extra": (ValidationError, f"{where}: unknown field(s) ['weight']"),
        "missing": (ValidationError, f"{where}: missing field(s) [{key!r}]"),
    }.get(kind)
    if want is None:
        # an int or a float subclass is read as its float value
        actions = tuple(Action(float(e["reward"]), float(e["cost"])) for e in entries)
        want = as_loaded(lambda: AgentSpec(actions, 0.0, 1.0, 0.0))
    assert got == want
    if not isinstance(want, tuple):
        assert repr(got) == repr(want)
        assert all(type(v) is float for v in got.actions.rewards + got.actions.costs)


def test_all_float_instance_builds_no_action(monkeypatch):
    # the loader stores each agent as two float columns, sorted or not
    def refuse(self, *args, **kwargs):
        raise AssertionError("an Action was built")

    monkeypatch.setattr(Action, "__init__", refuse)
    doc = json.loads(json.dumps(GOOD))
    doc["agents"][0]["actions"] = [
        {"reward": 10.0, "cost": 2.0}, {"reward": 14.0, "cost": 3.0}
    ]
    doc["agents"].append(dict(doc["agents"][0], name="a2"))
    doc["agents"][1]["actions"] = [
        {"reward": 14.0, "cost": 3.0}, {"reward": 10.0, "cost": 2.0}
    ]
    inst = parse_instance(doc)
    for named in inst.agents:
        acts = named.spec.actions
        assert (acts.rewards, acts.costs) == ((10.0, 14.0), (2.0, 3.0))
    with pytest.raises(AssertionError, match="an Action was built"):
        Action(1.0, 2.0)
