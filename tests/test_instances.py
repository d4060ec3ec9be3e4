import json

import pytest

from inspection_contracts import (
    DegenerateInput,
    InfeasibleSafety,
    ValidationError,
    load_instance,
    parse_instance,
)

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
    assert inst.agents[0].spec.rewards == (10.0,)


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
    assert inst.agents[0].spec.costs == (1.0, 2.0)


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
