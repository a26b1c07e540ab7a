"""Query answering over a policy abstraction: "when", "why not", and "what"
questions, each in a baseline (norf) and a relevancy-filtered (withrf) variant.

The when/why-not answerers partition states into targets and non-targets with a
few int ANDs and ORs over the model's lazily built query index, which keeps one
bit mask of enabling states per distinct enabled joint action and one bit mask
of joint actions per (agent, action) requirement.  They then split both state
masks on the model's per-(agent, feature) state masks into Boolean minterms
(all agents x all features for norf; relevant agents x relevant features for
withrf), and hand the resulting on/off-sets to the minimizer.  States in both
partitions count as targets: explanations describe the target states, and the
minimizer needs disjoint sets; the same rule is applied again after projection,
where distinct states may collapse onto one minterm.  A what answer's states
are the AND of the queried agents' predicate masks, and its actions are read
from those states' own (joint action, count) rows, ``action_counts``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from . import boolmin
from .abstraction import PolicyAbstraction
from .domain import (
    AgentAction,
    AgentId,
    DomainDefinition,
    JointAction,
    JointState,
    RelevanceKnowledge,
)
from .errors import (
    ContradictionNotice,
    PreconditionError,
    TooManyVariablesError,
    UnknownStateError,
)

KINDS = ("when", "whynot", "what")
METHODS = ("norf", "withrf")

# (agent, predicate id, polarity); polarity False renders the negative phrase
Literal = tuple[AgentId, str, bool]


@dataclass(frozen=True)
class Query:
    """A structured agent-behavior question.

    when/whynot use ``actions`` (the queried agent-action pairs); whynot adds
    the queried joint state; what uses ``predicates``.
    """

    kind: str
    agents: tuple[str, ...]
    method: str = "withrf"
    actions: tuple[AgentAction, ...] = ()
    state: JointState | None = None
    predicates: tuple[str, ...] = ()

    def validate(self, domain: DomainDefinition) -> None:
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown query kind {self.kind!r}")
        if self.method not in METHODS:
            raise PreconditionError(f"unknown query method {self.method!r}")
        if not self.agents:
            raise PreconditionError("query needs at least one agent")
        _named_once("agent", self.agents)
        for name in self.agents:
            domain.agent_spec(name)
        if self.kind in ("when", "whynot"):
            if not self.actions:
                raise PreconditionError(f"{self.kind} query needs agent actions")
            _named_once("agent", tuple(agent for agent, _ in self.actions))
            for agent, action in self.actions:
                spec = domain.agent_spec(agent)
                if action not in spec.actions:
                    raise PreconditionError(
                        f"action {action!r} is not in agent {agent!r}'s alphabet"
                    )
                if agent not in self.agents:
                    raise PreconditionError(
                        f"action for {agent!r} but the agent is not in the query"
                    )
        if self.kind == "whynot" and self.state is None:
            raise PreconditionError("whynot query needs a joint state")
        if self.kind == "what":
            if not self.predicates:
                raise PreconditionError("what query needs predicates")
            _named_once("predicate", self.predicates)
            for p in self.predicates:
                domain.schema.index_of(p)


def _named_once(kind: str, names: tuple[str, ...]) -> None:
    """Refuse a name given twice, which would be read, and rendered, as two."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise PreconditionError(f"{kind} {name!r} is named twice in the query")


@dataclass(frozen=True)
class LiteralDNF:
    """Disjunction of conjunctions over (agent, predicate, polarity) literals."""

    clauses: tuple[frozenset[Literal], ...]

    def __post_init__(self):
        for clause in self.clauses:
            seen = {(a, p) for a, p, _ in clause}
            if len(seen) != len(clause):
                raise PreconditionError(
                    "clause contains both polarities of one (agent, predicate)"
                )

    @property
    def is_never(self) -> bool:
        return len(self.clauses) == 0

    @property
    def is_always(self) -> bool:
        return len(self.clauses) == 1 and not self.clauses[0]


@dataclass(frozen=True)
class BooleanSpace:
    """The flat variable ordering a DNF was minimized over."""

    agent_order: tuple[AgentId, ...]
    feature_order: tuple[str, ...]

    @property
    def n_variables(self) -> int:
        return len(self.agent_order) * len(self.feature_order)

    def _projection(self, schema) -> tuple[tuple[int, int, int], ...]:
        """(agent index, schema bit, variable bit) per variable, agent-major
        as in ``variable_index``; kept for the last schema it was built for."""
        memo = self.__dict__.get("_memo")
        if memo is None or memo[0] is not schema:
            pairs = product(self.agent_order, self.feature_order)
            triples = tuple((agent.index, 1 << schema.index_of(pred), 1 << var)
                            for var, (agent, pred) in enumerate(pairs))
            memo = self.__dict__["_memo"] = (schema, triples)
        return memo[1]

    def minterm(self, state: JointState, schema) -> int:
        bits = 0
        for i, schema_bit, var_bit in self._projection(schema):
            if state[i] & schema_bit:
                bits |= var_bit
        return bits

    def minterms(self, states: int, m: PolicyAbstraction) -> set[int]:
        """The distinct minterms of the states in the state mask ``states``:
        the non-empty parts left by splitting it on every variable's mask."""
        parts = [(0, states)] if states else []
        for i, schema_bit, var_bit in self._projection(m.schema):
            mask, split = m.state_mask(i, schema_bit), []
            for bits, part in parts:
                on = part & mask
                if on:
                    split.append((bits | var_bit, on))
                if on != part:
                    split.append((bits, part ^ on))
            parts = split
        return {bits for bits, _ in parts}

    def literal(self, var: int, polarity: bool) -> Literal:
        agent = self.agent_order[var // len(self.feature_order)]
        pred = self.feature_order[var % len(self.feature_order)]
        return (agent, pred, polarity)


@dataclass(frozen=True)
class ConditionAnswer:
    """Result of a when/why-not query: the minimized differentiating DNF.

    ``minimal`` is False when the minimizer's cover search stopped at its
    node budget; ``lower_bound`` is then a clause count every answer needs.
    """

    query: Query
    dnf: LiteralDNF
    space: BooleanSpace
    target_states: frozenset[JointState]
    nontarget_states: frozenset[JointState]
    minimal: bool = True
    lower_bound: int | None = None

    @property
    def n_clauses(self) -> int:
        return len(self.dnf.clauses)


@dataclass(frozen=True)
class WhatAnswer:
    """Result of a what query.

    norf: per agent, the deduplicated list of enabled actions (alphabet
    order).  withrf: per agent, the single most frequent relevant action
    weighted by transition counts (None when no relevant action was
    observed).
    """

    query: Query
    actions: Mapping[str, tuple[str, ...]] | Mapping[str, str | None]
    satisfying_states: frozenset[JointState]

    @property
    def no_occurrence(self) -> bool:
        return not self.satisfying_states


def relevancy_filter(
    actions: Iterable[AgentAction], knowledge: RelevanceKnowledge
) -> tuple[frozenset[str], frozenset[str], tuple[frozenset[AgentAction], ...]]:
    """Union the relevance entries of the queried actions into (G, F, A)."""
    agents: set[str] = set()
    features: set[str] = set()
    action_sets: list[frozenset[AgentAction]] = []
    for agent, action in actions:
        entry = knowledge.get(agent, action)
        agents |= entry.agents
        features |= entry.features
        for s in entry.action_sets:
            if (agent, action) not in s:
                raise AssertionError("relevance set lost its generating action")
            if s not in action_sets:
                action_sets.append(s)
    return (
        frozenset(agents),
        frozenset(features),
        tuple(sorted(action_sets, key=sorted)),
    )


# A compiled criterion: alternatives, each a tuple of (agent index, action)
# requirements; a joint action satisfies it when it meets every requirement
# of at least one alternative.
Compiled = tuple[tuple[tuple[int, str], ...], ...]


def _compile(criterion, domain: DomainDefinition) -> Compiled:
    """A norf set (one alternative) or withrf list of sets (one each)."""
    sets = criterion if isinstance(criterion, (list, tuple)) else (criterion,)
    index = domain.agent_index
    return tuple(tuple((index(agent), act) for agent, act in s) for s in sets)


def compatible(action: JointAction, criterion, domain: DomainDefinition) -> bool:
    """Does a joint action satisfy the query criterion?

    A set of (agent, action) pairs (norf) is satisfied when every pair is
    contained in the joint action; a list of such sets (withrf) when at least
    one member set is fully contained.  Every alternative's agent names are
    resolved and checked before any alternative is tested.
    """
    for alt in _compile(criterion, domain):
        for i, act in alt:
            if action[i] != act:
                break
        else:
            return True
    return False


def _condition_space(
    query: Query, domain: DomainDefinition, kind: str
) -> tuple[BooleanSpace, object]:
    """Variable ordering and compatibility criterion of a validated ``kind`` query."""
    query.validate(domain)
    if query.kind != kind:
        raise PreconditionError(f"{kind} answerer got a {query.kind!r} query")
    if query.method == "withrf":
        g, f, sets = relevancy_filter(query.actions, domain.relevance)
        agent_order = tuple(a for a in domain.agent_ids if a.display_name in g)
        feature_order = tuple(p for p in domain.schema.predicate_ids if p in f)
        criterion: object = sets
    else:
        agent_order = domain.agent_ids
        feature_order = domain.schema.predicate_ids
        criterion = frozenset(query.actions)
    space = BooleanSpace(agent_order, feature_order)
    # the filtered problem can never be wider than the baseline's N * |F|
    if space.n_variables > domain.n_agents * domain.schema.n_features:
        raise AssertionError(f"{space.n_variables} query variables exceed N * |F|")
    return space, criterion


def _check_width(space: BooleanSpace, max_vars: int) -> None:
    """The minimizer's variable guardrail, applied before any state is read."""
    if space.n_variables > max_vars:
        raise TooManyVariablesError(space.n_variables, max_vars)


def _condition_answer(
    query: Query, space: BooleanSpace, m: PolicyAbstraction,
    targets: frozenset[JointState], ones: set[int], nontargets: int,
    *, deadline: float | None, max_vars: int,
) -> ConditionAnswer:
    """The answer whose DNF is the minimized split of ``ones`` from the
    minterms of the ``nontargets`` state mask."""
    cover = boolmin.minimize(
        sorted(ones), sorted(space.minterms(nontargets, m) - ones), space.n_variables,
        deadline=deadline, max_vars=max_vars,
    )
    clauses = tuple(
        frozenset(space.literal(v, pol) for v, pol in imp.literals())
        for imp in cover
    )
    return ConditionAnswer(query, LiteralDNF(clauses), space, targets,
                           m.states_of(nontargets), cover.minimal, cover.lower_bound)


def _partition_masks(
    criterion, m: PolicyAbstraction, domain: DomainDefinition
) -> tuple[int, int]:
    """State masks of ``partition``'s (targets, non-targets).

    Bitmask algebra over the model's query index: the joint actions meeting
    an alternative are the AND of its requirement masks, those satisfying the
    criterion the OR over its alternatives.  The targets are the OR of the
    satisfying actions' state masks; the non-targets are the states with an
    enabled action that are not targets, since their every action fails.
    """
    index = m.query_index
    satisfying = 0
    for alt in _compile(criterion, domain):
        actions = index.every_action
        for i, act in alt:
            actions &= index.requirement(i, act)
        satisfying |= actions
    targets = index.enabled_by(satisfying)
    return targets, index.enabling & ~targets


def partition(
    criterion, m: PolicyAbstraction, domain: DomainDefinition
) -> tuple[frozenset[JointState], frozenset[JointState]]:
    """(targets, non-targets) of a compatibility criterion; see when_partition."""
    targets, nontargets = _partition_masks(criterion, m, domain)
    return m.states_of(targets), m.states_of(nontargets)


def when_partition(
    query: Query, m: PolicyAbstraction, domain: DomainDefinition
) -> tuple[BooleanSpace, frozenset[JointState], frozenset[JointState]]:
    """Target / non-target split of a when query, before any minimization.

    A state is a target when at least one of its enabled joint actions passes
    the compatibility check, and a non-target when at least one fails; states
    qualifying as both count as targets only.
    """
    space, criterion = _condition_space(query, domain, "when")
    return (space, *partition(criterion, m, domain))


def answer_when(
    query: Query,
    m: PolicyAbstraction,
    domain: DomainDefinition,
    *,
    deadline: float | None = None,
    max_vars: int = boolmin.MAX_VARIABLES,
) -> ConditionAnswer:
    """States where the queried agents take the queried actions, as a DNF.

    An empty target set yields the empty (never) DNF; a criterion satisfied in
    every state yields the tautology (always) DNF.
    """
    space, criterion = _condition_space(query, domain, "when")
    _check_width(space, max_vars)
    targets, nontargets = _partition_masks(criterion, m, domain)
    return _condition_answer(query, space, m, m.states_of(targets),
                             space.minterms(targets, m), nontargets,
                             deadline=deadline, max_vars=max_vars)


def answer_whynot(
    query: Query,
    m: PolicyAbstraction,
    domain: DomainDefinition,
    *,
    deadline: float | None = None,
    max_vars: int = boolmin.MAX_VARIABLES,
) -> ConditionAnswer:
    """What distinguishes the queried state from states where the action happens.

    The queried state is the single target; every state with an enabled
    action compatible with the criterion is a non-target.  When no state takes
    the action at all, the DNF degenerates to the tautology, rendered as "the
    agents never take this action".
    """
    space, criterion = _condition_space(query, domain, "whynot")
    _check_width(space, max_vars)
    s_q = query.state
    if s_q not in m.state_index:
        raise UnknownStateError(f"queried state {s_q} is not in the abstraction")
    # the states taking the action are the non-targets of the answer
    nontargets, _ = _partition_masks(criterion, m, domain)
    if nontargets >> m.state_index[s_q] & 1:
        enabled = m.enabled_actions(s_q)
        action = next(a for a in enabled if compatible(a, criterion, domain))
        raise ContradictionNotice(
            "the agents DO take this action here: the queried state has a "
            f"compatible enabled action {action}"
        )
    return _condition_answer(query, space, m, frozenset({s_q}),
                             {space.minterm(s_q, m.schema)}, nontargets,
                             deadline=deadline, max_vars=max_vars)


def answer_what(
    query: Query, m: PolicyAbstraction, domain: DomainDefinition
) -> WhatAnswer:
    """Actions the queried agents take in states satisfying the predicates."""
    query.validate(domain)
    if query.kind != "what":
        raise PreconditionError(f"answer_what got a {query.kind!r} query")
    indices = {name: domain.agent_id(name).index for name in query.agents}
    mask = (1 << m.n_states) - 1
    for i in indices.values():
        for p in query.predicates:
            mask &= m.state_mask(i, 1 << m.schema.index_of(p))
    satisfying = m.states_of(mask)
    if not satisfying:
        return WhatAnswer(query, {}, frozenset())
    rows = m.action_counts(mask)

    if query.method == "norf":
        listed = {}
        for name, i in indices.items():
            observed = {a[i] for a, _ in rows}
            listed[name] = tuple(
                a for a in domain.agent_spec(name).actions if a in observed
            )
        return WhatAnswer(query, listed, satisfying)

    # withrf: invert the relevance map (predicates -> actions), then take the
    # transition-count-weighted most frequent relevant action per agent
    wanted = set(query.predicates)
    best: dict[str, str | None] = {}
    for name, i in indices.items():
        relevant = {a for a in domain.agent_spec(name).actions
                    if domain.relevance.get(name, a).features & wanted}
        weights: Counter = Counter()
        for a, count in rows:
            if a[i] in relevant:
                weights[a[i]] += count
        best[name] = min(weights, key=lambda a: (-weights[a], a)) if weights else None
    return WhatAnswer(query, best, satisfying)


def answer(
    query: Query, m: PolicyAbstraction, domain: DomainDefinition, *,
    deadline: float | None = None, max_vars: int = boolmin.MAX_VARIABLES,
) -> ConditionAnswer | WhatAnswer:
    """Answer any query; dispatches on its kind.  ``deadline`` and
    ``max_vars`` bound the when/why-not minimization only."""
    if query.kind == "when":
        return answer_when(query, m, domain, deadline=deadline, max_vars=max_vars)
    if query.kind == "whynot":
        return answer_whynot(query, m, domain, deadline=deadline, max_vars=max_vars)
    return answer_what(query, m, domain)
