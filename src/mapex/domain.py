"""Shared vocabulary: agents, feature schemas, bit-encoded abstract states,
joint actions, relevance knowledge, and the deterministic variable ordering
used when states are turned into Boolean minterms.

An abstract agent state is a plain ``int`` whose bit ``i`` holds the valuation
of the schema's ``i``-th predicate (bit 0 = first declared predicate).  A
joint state is one such int per agent and a joint action is one action id per
agent; plain tuples keep equality and hashing structural.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from .errors import (
    DomainFormatError,
    KnowledgeGapError,
    SchemaMismatchError,
)

AgentBits = int
JointState = tuple[AgentBits, ...]
JointAction = tuple[str, ...]

# (agent name, action id) pair as used in queries and relevance knowledge
AgentAction = tuple[str, str]


@dataclass(frozen=True, order=True)
class AgentId:
    """Dense agent index plus its unique display name."""

    index: int
    display_name: str


@dataclass(frozen=True)
class PredicateSpec:
    """One Boolean feature predicate over a single agent's concrete state.

    ``positive``/``negative`` are the third-person-singular rendering phrases
    ("detects the victim" / "does not detect the victim"); the ``*_plural``
    variants are used when the sentence subject is plural.  ``label`` is the
    short task name shown in summary-chart cells.  ``evaluator`` maps a
    concrete agent record to a bool; when it is None the record must carry an
    explicit ``{"features": {id: bool}}`` map (the fallback used by domains
    loaded from definition files, which cannot ship code).
    """

    id: str
    positive: str
    negative: str
    positive_plural: str
    negative_plural: str
    label: str = ""
    evaluator: Callable[[Mapping[str, Any]], bool] | None = field(
        default=None, compare=False
    )

    def evaluate(self, concrete_state: Mapping[str, Any]) -> bool:
        if self.evaluator is not None:
            return bool(self.evaluator(concrete_state))
        features = concrete_state.get("features")
        if not isinstance(features, Mapping) or self.id not in features:
            raise SchemaMismatchError(
                f"concrete state carries no value for predicate {self.id!r}"
            )
        return bool(features[self.id])


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature predicates plus the task-completion subset.

    The declared predicate order is authoritative everywhere: bit ``i`` of
    every abstract agent state refers to ``predicates[i]``, and minterm
    variable orderings are derived from it.
    """

    predicates: tuple[PredicateSpec, ...]
    task_completion_ids: tuple[str, ...]

    def __post_init__(self):
        ids = [p.id for p in self.predicates]
        if len(set(ids)) != len(ids):
            raise DomainFormatError(f"duplicate predicate ids in schema: {ids}")
        unknown = [t for t in self.task_completion_ids if t not in ids]
        if unknown:
            raise DomainFormatError(
                f"task completion ids not in schema: {unknown}"
            )

    @property
    def n_features(self) -> int:
        return len(self.predicates)

    @property
    def predicate_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.predicates)

    def index_of(self, predicate_id: str) -> int:
        for i, p in enumerate(self.predicates):
            if p.id == predicate_id:
                return i
        raise SchemaMismatchError(f"unknown predicate id {predicate_id!r}")

    def predicate(self, predicate_id: str) -> PredicateSpec:
        return self.predicates[self.index_of(predicate_id)]

    def schema_hash(self) -> str:
        payload = json.dumps(
            [list(self.predicate_ids), list(self.task_completion_ids)],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def encode_agent_state(
    concrete_state: Mapping[str, Any], schema: FeatureSchema
) -> AgentBits:
    """Bit-encode one agent's concrete state: bit i set iff predicate i holds."""
    bits = 0
    for i, pred in enumerate(schema.predicates):
        if pred.evaluate(concrete_state):
            bits |= 1 << i
    return bits


def decode_agent_state(bits: AgentBits, schema: FeatureSchema) -> dict[str, bool]:
    """Inverse view of the bit encoding: predicate id -> valuation."""
    if bits < 0 or bits >= 1 << schema.n_features:
        raise SchemaMismatchError(
            f"bits {bits} out of range for a {schema.n_features}-feature schema"
        )
    return {p.id: bool(bits >> i & 1) for i, p in enumerate(schema.predicates)}


def variable_index(
    agent: AgentId | str,
    predicate_id: str,
    agent_order: Sequence[AgentId | str],
    feature_order: Sequence[str],
) -> int:
    """Position of (agent, predicate) in the flat Boolean-variable ordering.

    Agent-major: ``position(agent) * len(feature_order) + position(predicate)``.
    Bijective over the pair domain.
    """
    try:
        a = agent_order.index(agent)
    except ValueError:
        raise SchemaMismatchError(f"agent {agent!r} not in agent order") from None
    try:
        f = feature_order.index(predicate_id)
    except ValueError:
        raise SchemaMismatchError(
            f"predicate {predicate_id!r} not in feature order"
        ) from None
    return a * len(feature_order) + f


def is_action_id(value: Any) -> bool:
    """An action id is a word, a string with no whitespace and no comma: a
    model file writes a joint action comma-joined in a space-split line."""
    return type(value) is str and value.split() == [value] and "," not in value


@dataclass(frozen=True)
class ActionPhrases:
    """Verb phrase of an action: base form and third-person singular."""

    base: str
    third: str


@dataclass(frozen=True)
class RelevanceEntry:
    """Domain knowledge attached to one (agent, action) pair.

    ``action_sets`` lists the admissible cooperation combinations; every set
    contains the keyed (agent, action) pair itself, and ``agents`` equals the
    union of agents appearing across the sets.
    """

    agents: frozenset[str]
    features: frozenset[str]
    action_sets: tuple[frozenset[AgentAction], ...]


class RelevanceKnowledge:
    """Registry mapping every queryable (agent, action) pair to its relevance."""

    def __init__(self, entries: Mapping[AgentAction, RelevanceEntry]):
        self.entries = dict(entries)

    def get(self, agent_name: str, action_id: str) -> RelevanceEntry:
        try:
            return self.entries[(agent_name, action_id)]
        except KeyError:
            raise KnowledgeGapError(
                f"no relevance knowledge registered for agent "
                f"{agent_name!r} action {action_id!r}"
            ) from None

    def validate(self, domain: "DomainDefinition") -> None:
        """Check the registry invariants; raises DomainFormatError on violation."""
        alphabets = {a.name: a.actions for a in domain.agents}
        feature_ids = set(domain.schema.predicate_ids)
        for spec in domain.agents:
            for action in spec.actions:
                if (spec.name, action) not in self.entries:
                    raise DomainFormatError(
                        f"relevance knowledge misses ({spec.name}, {action})"
                    )
        for (agent, action), entry in self.entries.items():
            if agent not in alphabets:
                raise DomainFormatError(f"relevance entry for unknown agent {agent!r}")
            if action not in alphabets[agent]:
                raise DomainFormatError(
                    f"relevance entry for ({agent}, {action}) but {action!r} "
                    f"is not in the agent's alphabet"
                )
            bad = entry.features - feature_ids
            if bad:
                raise DomainFormatError(
                    f"relevance entry ({agent}, {action}) names unknown "
                    f"features {sorted(bad)}"
                )
            for s in entry.action_sets:
                if (agent, action) not in s:
                    raise DomainFormatError(
                        f"relevance action set {sorted(s)} for ({agent}, {action}) "
                        f"does not contain the pair itself"
                    )
                for other_agent, other_action in s:
                    if other_agent not in alphabets:
                        raise DomainFormatError(
                            f"relevance action set names unknown agent {other_agent!r}"
                        )
                    if other_action not in alphabets[other_agent]:
                        raise DomainFormatError(
                            f"relevance action set pairs {other_agent!r} with "
                            f"{other_action!r}, not in its alphabet"
                        )
            union = frozenset(a for s in entry.action_sets for a, _ in s)
            if union != entry.agents:
                raise DomainFormatError(
                    f"relevance entry ({agent}, {action}): agents "
                    f"{sorted(entry.agents)} != union over action sets {sorted(union)}"
                )


@dataclass(frozen=True)
class AgentSpec:
    """An agent's display name and its action alphabet (declared order)."""

    name: str
    actions: tuple[str, ...]


@dataclass(frozen=True)
class DomainDefinition:
    """Everything the pipeline needs to know about one multi-agent domain."""

    id: str
    agents: tuple[AgentSpec, ...]
    schema: FeatureSchema
    action_phrases: Mapping[str, ActionPhrases]
    relevance: RelevanceKnowledge

    def __post_init__(self):
        names = [a.name for a in self.agents]
        # --agents and --predicates split on commas, and a CSV chart joins its cells with them
        for what, name in [*(("agent name", n) for n in names),
                           *(("predicate id", p.id) for p in self.schema.predicates),
                           *(("label", p.label) for p in self.schema.predicates)]:
            if "," in name:
                raise DomainFormatError(f"{what} {name!r} must not contain a comma")
        if len(set(names)) != len(names):
            raise DomainFormatError(f"duplicate agent names: {names}")
        for spec in self.agents:
            for action in spec.actions:
                if not is_action_id(action):
                    raise DomainFormatError(f"action id {action!r} of agent {spec.name!r} "
                                            f"must be a word, with no whitespace and no comma")
                if action not in self.action_phrases:
                    raise DomainFormatError(f"missing phrases for action {action!r}")
        self.relevance.validate(self)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def agent_ids(self) -> tuple[AgentId, ...]:
        return tuple(AgentId(i, a.name) for i, a in enumerate(self.agents))

    @cached_property
    def _agent_index(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.agents)}

    def agent_index(self, name: str) -> int:
        try:
            return self._agent_index[name]
        except KeyError:
            raise DomainFormatError(f"unknown agent {name!r}") from None

    def agent_spec(self, name: str) -> AgentSpec:
        return self.agents[self.agent_index(name)]

    def agent_id(self, name: str) -> AgentId:
        return AgentId(self.agent_index(name), name)


def encode_joint_state(
    concrete_states: Sequence[Mapping[str, Any]], schema: FeatureSchema
) -> JointState:
    return tuple(encode_agent_state(c, schema) for c in concrete_states)


# ---------------------------------------------------------------------------
# Domain definition files.  Structured JSON, read against the one declared
# shape below before any record is built: unknown keys are rejected at every
# level, and the first field that does not fit is named by its path.  Field
# names are documented in the README.
# ---------------------------------------------------------------------------

_DOMAIN_FORMAT = "mapex-domain"
_DOMAIN_VERSION = 1

# str is a string and object any value (format and version are checked after
# the walk); [s] is a list of s, AgentAction an [agent, action] pair, {str: s}
# an object from any key to s, and any other dict an object with exactly its
# keys, where a trailing "?" marks an optional one.
_DOMAIN_SHAPE = {
    "format": object,
    "version": object,
    "id": str,
    "agents": [{"name": str, "actions": [str]}],
    "features": [{"id": str, "label?": str, "positive": str, "negative": str,
                  "positive_plural": str, "negative_plural": str}],
    "task_features": [object],
    "action_phrases": {str: {"base": str, "third": str}},
    "relevance": [{"agent": str, "action": str, "agents": [str], "features": [str],
                   "action_sets": [[AgentAction]]}],
}


def _check_shape(value: Any, shape: Any, where: str = "") -> None:
    """Raise DomainFormatError at the first part of ``value`` not fitting ``shape``.

    A list item that is a list or an object is named by its index; a string
    or a pair is named by its list's path.
    """
    def fail(expected: str):
        raise DomainFormatError(f"{where or 'domain'}: {expected}")

    if shape is object:
        return
    # str() would turn null into the text "None", and a string would pass for
    # a list of one-letter items
    kind, expected = ((str, "a string") if shape is str
                      else (Mapping, "an object") if isinstance(shape, dict)
                      else (list, "a list"))
    if not isinstance(value, kind):
        fail(f"expected {expected}")
    if shape is AgentAction and len(value) != 2:
        fail("expected [agent, action] pairs")
    if isinstance(shape, dict) and str in shape:
        for key, item in value.items():
            _check_shape(key, str, f"{where}[{key}]")
            _check_shape(item, shape[str], f"{where}[{key}]")
    elif isinstance(shape, dict):
        fields = {k.rstrip("?"): s for k, s in shape.items()}
        if missing := {k for k in shape if not k.endswith("?")} - set(value):
            fail(f"missing keys {sorted(missing)}")
        if unknown := set(value) - set(fields):
            fail(f"unknown keys {sorted(unknown)}")
        for key, item in fields.items():
            if key in value:
                _check_shape(value[key], item, f"{where}.{key}" if where else key)
    elif shape is not str:
        item = str if shape is AgentAction else shape[0]
        indexed = isinstance(item, (dict, list))
        for i, x in enumerate(value):
            _check_shape(x, item, f"{where}[{i}]" if indexed else where)


def domain_to_dict(domain: DomainDefinition) -> dict[str, Any]:
    """Serializable form of a domain definition (predicates lose evaluators)."""
    return {
        "format": _DOMAIN_FORMAT,
        "version": _DOMAIN_VERSION,
        "id": domain.id,
        "agents": [
            {"name": a.name, "actions": list(a.actions)} for a in domain.agents
        ],
        "features": [
            {
                "id": p.id,
                "label": p.label,
                "positive": p.positive,
                "negative": p.negative,
                "positive_plural": p.positive_plural,
                "negative_plural": p.negative_plural,
            }
            for p in domain.schema.predicates
        ],
        "task_features": list(domain.schema.task_completion_ids),
        "action_phrases": {
            action: {"base": ph.base, "third": ph.third}
            for action, ph in sorted(domain.action_phrases.items())
        },
        "relevance": [
            {
                "agent": agent,
                "action": action,
                "agents": sorted(entry.agents),
                "features": sorted(entry.features),
                "action_sets": [
                    sorted([list(pair) for pair in s]) for s in entry.action_sets
                ],
            }
            for (agent, action), entry in sorted(domain.relevance.entries.items())
        ],
    }


def domain_from_dict(data: Mapping[str, Any]) -> DomainDefinition:
    _check_shape(data, _DOMAIN_SHAPE)
    if data["format"] != _DOMAIN_FORMAT:
        raise DomainFormatError(f"not a domain definition: format={data['format']!r}")
    # True == 1, so the type is checked too
    if type(data["version"]) is not int or data["version"] != _DOMAIN_VERSION:
        raise DomainFormatError(f"unsupported domain version {data['version']!r}")

    schema = FeatureSchema(
        tuple(PredicateSpec(**{"label": f["id"], **f}) for f in data["features"]),
        tuple(data["task_features"]),
    )
    entries: dict[AgentAction, RelevanceEntry] = {}
    for r in data["relevance"]:
        key = (r["agent"], r["action"])
        if key in entries:
            raise DomainFormatError(f"duplicate relevance entry for {key}")
        entries[key] = RelevanceEntry(
            agents=frozenset(r["agents"]),
            features=frozenset(r["features"]),
            action_sets=tuple(frozenset(map(tuple, s)) for s in r["action_sets"]),
        )
    return DomainDefinition(
        id=data["id"],
        agents=tuple(AgentSpec(a["name"], tuple(a["actions"])) for a in data["agents"]),
        schema=schema,
        action_phrases={a: ActionPhrases(**ph) for a, ph in data["action_phrases"].items()},
        relevance=RelevanceKnowledge(entries),
    )


def save_domain_file(domain: DomainDefinition, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(domain_to_dict(domain), fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_domain_file(path) -> DomainDefinition:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, big ints, deep nesting
        raise DomainFormatError(f"invalid JSON in {path}: {exc}") from None
    return domain_from_dict(data)
