"""Template rendering of query answers into English sentences.

All phrasing comes from the domain's phrase maps; the templates only arrange
it.  Clause lists join as "A, or B" (matching the no-Oxford-comma style of the
target explanations), literals inside a clause join with "and", a what
answer's per-agent parts join with "; " and "; and " once one of them lists
several verbs, and literal order follows the Boolean-variable order of the
answer, so identical answers always render byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .domain import ActionPhrases, DomainDefinition, PredicateSpec, variable_index
from .errors import PhraseMapError, PreconditionError
from .query import ConditionAnswer, LiteralDNF, Query, WhatAnswer


@dataclass(frozen=True)
class PhraseMap:
    """Rendering vocabulary: display names, predicate phrases, action verbs."""

    agents: Mapping[str, str]
    predicates: Mapping[str, PredicateSpec]
    actions: Mapping[str, ActionPhrases]

    @classmethod
    def from_domain(cls, domain: DomainDefinition) -> "PhraseMap":
        return cls(
            agents={a.name: a.name for a in domain.agents},
            predicates={p.id: p for p in domain.schema.predicates},
            actions=dict(domain.action_phrases),
        )

    def agent(self, name: str) -> str:
        if name not in self.agents:
            raise PhraseMapError(f"no display name for agent {name!r}")
        return self.agents[name]

    def predicate(self, pred_id: str) -> PredicateSpec:
        if pred_id not in self.predicates:
            raise PhraseMapError(f"no phrases for predicate {pred_id!r}")
        return self.predicates[pred_id]

    def action(self, action_id: str) -> ActionPhrases:
        if action_id not in self.actions:
            raise PhraseMapError(f"no phrases for action {action_id!r}")
        return self.actions[action_id]


def _join(items: list[str], last: str, sep: str = ", ") -> str:
    """``items`` joined by ``sep``, the last one by ``last``: "a, b, or c"."""
    if len(items) == 1:
        return items[0]
    return sep.join(items[:-1]) + last + items[-1]


def _subject(query: Query, phrases: PhraseMap) -> str:
    return _join([phrases.agent(a) for a in query.agents], " and ")


def _subject_verb(query: Query, phrases: PhraseMap, adverb: str = "") -> str:
    """"UAV rescues the victim" / "UGV_1 and UGV_2 remove the obstacle"."""
    adverb = adverb + " " if adverb else ""
    distinct = list(dict.fromkeys(action for _, action in query.actions))
    if len(distinct) == 1:
        verb = phrases.action(distinct[0])
        form = verb.third if len(query.agents) == 1 else verb.base
        return f"{_subject(query, phrases)} {adverb}{form}"
    parts = [
        f"{phrases.agent(agent)} {adverb}{phrases.action(action).third}"
        for agent, action in query.actions
    ]
    return _join(parts, " and ")


def _ordered(clause, answer: ConditionAnswer) -> list:
    """A clause's literals in the answer's Boolean-variable order."""
    space = answer.space
    return sorted(
        clause,
        key=lambda lit: variable_index(
            lit[0], lit[1], space.agent_order, space.feature_order
        ),
    )


def _clause_text(clause, answer: ConditionAnswer, phrases: PhraseMap) -> str:
    parts = []
    for agent, pred_id, polarity in _ordered(clause, answer):
        pred = phrases.predicate(pred_id)
        phrase = pred.positive if polarity else pred.negative
        parts.append(f"{phrases.agent(agent.display_name)} {phrase}")
    return " and ".join(parts)


def _clauses_text(answer: ConditionAnswer, phrases: PhraseMap) -> str:
    return _join([_clause_text(c, answer, phrases) for c in answer.dnf.clauses], ", or ")


def _condition_text(query: Query, phrases: PhraseMap) -> str:
    """"it detects the victim" / "they detect the victim"."""
    plural = len(query.agents) > 1
    pronoun = "they" if plural else "it"
    parts = [
        (phrases.predicate(p).positive_plural if plural
         else phrases.predicate(p).positive)
        for p in query.predicates
    ]
    return f"{pronoun} {' and '.join(parts)}"


def render_when(answer: ConditionAnswer, phrases: PhraseMap) -> str:
    query = answer.query
    if answer.dnf.is_never:
        return f"{_subject_verb(query, phrases, 'never')} under the policy."
    if answer.dnf.is_always:
        return f"{_subject_verb(query, phrases, 'always')}."
    return f"{_subject_verb(query, phrases)} when {_clauses_text(answer, phrases)}."


def render_whynot(answer: ConditionAnswer, phrases: PhraseMap) -> str:
    query = answer.query
    if answer.dnf.is_always:
        # no state takes the action at all, so there is nothing to contrast
        return f"{_subject_verb(query, phrases, 'never')} under the policy."
    if answer.dnf.is_never:
        raise AssertionError("why-not DNF cannot be empty")
    aux = "doesn't" if len(query.agents) == 1 else "don't"
    distinct = list(dict.fromkeys(action for _, action in query.actions))
    verb = phrases.action(distinct[0]).base if len(distinct) == 1 else "do this"
    return (
        f"{_subject(query, phrases)} {aux} {verb} in this state because "
        f"{_clauses_text(answer, phrases)}."
    )


def render_what(answer: WhatAnswer, phrases: PhraseMap) -> str:
    query = answer.query
    if answer.no_occurrence:
        return "No observed state satisfies this condition."
    condition = _condition_text(query, phrases)
    parts = []
    last, sep = " and ", ", "
    if query.method == "norf":
        for name in query.agents:
            verbs = [phrases.action(a).base for a in answer.actions[name]]
            if verbs:
                parts.append(f"{phrases.agent(name)} can {_join(verbs, ', or ')}")
            else:
                parts.append(f"{phrases.agent(name)} takes no action")
            if len(verbs) > 1:  # an "or" list's commas: the agents take semicolons
                last, sep = "; and ", "; "
    else:
        for name in query.agents:
            action = answer.actions[name]
            if action is None:
                parts.append(f"{phrases.agent(name)} takes no relevant action")
            else:
                verb = phrases.action(action).base
                parts.append(f"{phrases.agent(name)} is most likely to {verb}")
    return f"{_join(parts, last, sep)} when {condition}."


def render(answer: ConditionAnswer | WhatAnswer, phrases: PhraseMap) -> str:
    """Render any query answer; dispatches on the query kind."""
    kind = answer.query.kind
    if kind == "when":
        return render_when(answer, phrases)
    if kind == "whynot":
        return render_whynot(answer, phrases)
    if kind == "what":
        return render_what(answer, phrases)
    raise PreconditionError(f"unknown query kind {kind!r}")


def format_dnf(answer: ConditionAnswer) -> str:
    """Machine-oriented DNF dump: (A.pred & !B.pred) | (...)."""
    dnf: LiteralDNF = answer.dnf
    if dnf.is_never:
        return "FALSE"
    if dnf.is_always:
        return "TRUE"
    out = []
    for clause in dnf.clauses:
        lits = [
            f"{'' if pol else '!'}{agent.display_name}.{pred}"
            for agent, pred, pol in _ordered(clause, answer)
        ]
        out.append("(" + " & ".join(lits) + ")")
    return " | ".join(out)
