"""Strict JSON instance ingestion.

An instance file is a single JSON document:

    {
      "agents": [
        {"name": "a1",
         "actions": [{"reward": 10.0, "cost": 2.0}, ...],
         "kappa_s": 1.0, "kappa_i": 1.0, "alpha": 0.0},
        ...
      ],
      "budget": 1
    }

``budget`` is optional (default 1).  Unknown fields anywhere are rejected so
typos in the kappa names cannot silently change the model.  Error messages
carry the JSON path of the offending field; bad action values surface as
ValidationError, Assumption 1 violations as DegenerateInput and Assumption 2
violations as InfeasibleSafety, all prefixed with the agent's path and name.
Each agent's actions are read into two float columns, which become the
spec's ``ActionSet``; the loader builds no ``Action`` record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .envelope import ActionSet
from .errors import ContractError, ValidationError
from .single_agent import AgentSpec, check_safety

_AGENT_FIELDS = {"name", "actions", "kappa_s", "kappa_i", "alpha"}
_ACTION_FIELDS = {"reward", "cost"}
_TOP_FIELDS = {"agents", "budget"}


@dataclass(frozen=True)
class NamedAgent:
    name: str
    spec: AgentSpec


@dataclass(frozen=True)
class Instance:
    agents: tuple[NamedAgent, ...]
    budget: int

    @property
    def specs(self) -> tuple[AgentSpec, ...]:
        return tuple(a.spec for a in self.agents)

    def agent(self, name: str) -> NamedAgent:
        for a in self.agents:
            if a.name == name:
                return a
        raise ValidationError(f"no agent named {name!r} in the instance")


def _number(obj: object, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:
        # an integer literal too large for a float; its digits are not echoed
        raise ValidationError(f"{where}: number too large for a float") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return value


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


def _action(entry: object, where: str) -> tuple[float, float]:
    """The checked (reward, cost) of one action entry."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: expected an object")
    _reject_unknown(entry, _ACTION_FIELDS, where)
    if set(entry) != _ACTION_FIELDS:
        raise ValidationError(
            f"{where}: missing field(s) {sorted(_ACTION_FIELDS - set(entry))}"
        )
    return _number(entry["reward"], f"{where}.reward"), _number(entry["cost"], f"{where}.cost")


def parse_instance(doc: object) -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    _reject_unknown(doc, _TOP_FIELDS, "top level")
    if "agents" not in doc or not isinstance(doc["agents"], list) or not doc["agents"]:
        raise ValidationError("'agents' must be a nonempty list")

    budget = doc.get("budget", 1)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValidationError(f"budget: expected a positive integer, got {budget!r}")
    # the solvers do float arithmetic with the budget
    _number(budget, "budget")

    agents: list[NamedAgent] = []
    for i, raw in enumerate(doc["agents"]):
        where = f"agents[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{where}: expected an object")
        _reject_unknown(raw, _AGENT_FIELDS, where)
        missing = _AGENT_FIELDS - set(raw)
        if missing:
            raise ValidationError(f"{where}: missing field(s) {sorted(missing)}")
        name = raw["name"]
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{where}.name: expected a nonempty string")
        try:
            # a lone surrogate escape ("\ud800") parses but cannot be written out
            name.encode()
        except UnicodeEncodeError:
            raise ValidationError(f"{where}.name: expected a string UTF-8 can encode") from None
        if not isinstance(raw["actions"], list) or not raw["actions"]:
            raise ValidationError(f"{where}.actions: expected a nonempty list")
        rewards: list[float] = []
        costs: list[float] = []
        for k, entry in enumerate(raw["actions"]):
            # the common entry, exactly {"reward": float, "cost": float} with
            # finite values (x - x is NaN for inf and NaN), passes every check
            # in _action unchanged, so it needs neither them nor its path
            if type(entry) is dict and entry.keys() == _ACTION_FIELDS:
                r, c = entry["reward"], entry["cost"]
                if type(r) is float and type(c) is float and r - r == 0.0 and c - c == 0.0:
                    rewards.append(r)
                    costs.append(c)
                    continue
            r, c = _action(entry, f"{where}.actions[{k}]")
            rewards.append(r)
            costs.append(c)
        # parsed outside the try below, whose prefix their paths already carry
        scalars = [
            _number(raw[key], f"{where}.{key}") for key in ("kappa_s", "kappa_i", "alpha")
        ]
        try:
            spec = AgentSpec(ActionSet(rewards, costs), *scalars)
            check_safety(spec)
        except ContractError as exc:
            raise type(exc)(f"{where} ({name!r}): {exc}") from None
        agents.append(NamedAgent(name, spec))

    names = [a.name for a in agents]
    if len(set(names)) != len(names):
        raise ValidationError("agent names must be unique")
    return Instance(tuple(agents), budget)


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        # bytes, so json detects UTF-8/16/32 as RFC 8259 says, whatever the locale
        doc = json.loads(data)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an integer literal past
        # Python's digit limit
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None
    return parse_instance(doc)
