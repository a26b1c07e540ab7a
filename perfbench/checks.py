"""Output checks computed apart from mapex's own code paths.

Every expected value here is re-derived from the raw inputs: transition
counts from the trace file's JSON records and the domain's predicate
evaluators, targets and non-targets from ``out_edges`` and the relevance
sets, DNF truth values by this module's own evaluator, path optimality by
Bellman-Ford over ``-log p``, and minimum cover sizes by exhaustive search
where that search is cheap.  A check that fails raises ``CheckFailure``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations

# Exhaustive minimum-cover search runs only on problems at most this wide and
# with at most this many candidate cube combinations to rule out.
EXHAUSTIVE_MAX_VARS = 8
EXHAUSTIVE_MAX_COMBOS = 200_000

_TOL = 1e-9


class CheckFailure(Exception):
    """An output of the program disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def recount_trace(path, domain):
    """(transition counts, initial-state counts, samples) straight off a trace."""
    preds = domain.schema.predicates

    def encode(record):
        return sum(1 << i for i, p in enumerate(preds) if p.evaluate(record))

    counts: Counter = Counter()
    initials: Counter = Counter()
    samples = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        require(header.get("format") == "mapex-trace", f"{path}: bad trace header")
        for line in fh:
            rec = json.loads(line)
            source = tuple(encode(a) for a in rec["state"])
            target = tuple(encode(a) for a in rec["next_state"])
            counts[(source, tuple(rec["action"]), target)] += 1
            if rec["step"] == 0:
                initials[source] += 1
            samples += 1
    return counts, initials, samples


def edge_counts(m) -> dict:
    """The model's transitions as read from ``out_edges``."""
    return {
        (e.source, e.action, e.target): e.count
        for edges in m.out_edges.values()
        for e in edges
    }


def check_model(m, trace_path, domain) -> int:
    """The model holds exactly the trace's transitions; returns the sample count."""
    counts, initials, samples = recount_trace(trace_path, domain)
    stored = edge_counts(m)
    require(stored == dict(counts),
            f"{domain.id}: stored transitions differ from the trace recount "
            f"({len(stored)} stored, {len(counts)} recounted)")
    require(dict(m.counts) == dict(counts),
            f"{domain.id}: model counts differ from the trace recount")
    require(dict(m.initial_counts) == dict(initials),
            f"{domain.id}: initial-state counts differ from the trace recount")
    for s, edges in m.out_edges.items():
        if not edges:
            continue
        visits = sum(e.count for e in edges)
        for e in edges:
            require(math.isclose(e.probability, e.count / visits, abs_tol=_TOL),
                    f"{domain.id}: probability of {e.source}->{e.target} is not "
                    f"count/visits")
        total = sum(e.probability for e in edges)
        require(math.isclose(total, 1.0, abs_tol=_TOL),
                f"{domain.id}: outgoing probabilities of {s} sum to {total}")
    return samples


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def is_goal(state, schema) -> bool:
    """Every task-completion predicate holds for at least one agent."""
    bits = [i for i, p in enumerate(schema.predicates)
            if p.id in schema.task_completion_ids]
    return all(any(agent >> b & 1 for agent in state) for b in bits)


def _edge_logp(m):
    """log probability of every stored (source, action, target), from counts."""
    visits: Counter = Counter()
    for (s, _, _), c in m.counts.items():
        visits[s] += c
    return {key: math.log(c / visits[key[0]]) for key, c in m.counts.items()}


def best_goal_logp(m) -> float:
    """Bellman-Ford over -log p from the initial state; goals absorb."""
    logp = _edge_logp(m)
    goal = {s: is_goal(s, m.schema) for s in m.states}
    dist = {m.initial_state: 0.0}
    for _ in range(len(m.states)):
        changed = False
        for (s, _, t), lp in logp.items():
            if s in dist and not goal[s]:
                nd = dist[s] - lp
                if nd < dist.get(t, math.inf) - _TOL:
                    dist[t] = nd
                    changed = True
        if not changed:
            break
    goals = [d for s, d in dist.items() if goal[s]]
    require(bool(goals), "no goal state is reachable from the initial state")
    return -min(goals)


def check_path(m, path) -> None:
    """Start, stored steps, first-goal end, log probability and optimality."""
    states, actions = path.states, path.actions
    require(len(actions) == len(states) - 1, "path has mismatched states/actions")
    require(states[0] == m.initial_state, "path does not start at the initial state")
    logp = _edge_logp(m)
    total = 0.0
    for s, a, t in zip(states, actions, states[1:]):
        require((s, a, t) in logp, f"path step {s} -{a}-> {t} is not a stored transition")
        total += logp[(s, a, t)]
    require(is_goal(states[-1], m.schema), "path does not end at a goal state")
    require(not any(is_goal(s, m.schema) for s in states[:-1]),
            "path passes a goal state before its end")
    require(math.isclose(path.log_probability, total, abs_tol=1e-9),
            f"path log probability {path.log_probability} != edge sum {total}")
    require(total >= best_goal_logp(m) - 1e-9,
            "a more probable initial-to-goal path exists")


def chart_cells(m, path, agent_names):
    """Per agent, the non-empty chart cells in column order, from the path."""
    schema = m.schema
    tasks = [(i, p) for i, p in enumerate(schema.predicates)
             if p.id in schema.task_completion_ids]
    columns = []
    prev = None
    for state in path.states:
        col = []
        for a in range(len(agent_names)):
            new = sorted(
                (p.label or p.id) for i, p in tasks
                if state[a] >> i & 1 and not (prev is not None and prev[a] >> i & 1)
            )
            col.append("+".join(new))
        if any(col):
            columns.append(col)
        prev = state
    return columns


def check_chart_text(text, m, path, agent_names, fmt="chart") -> None:
    """The chart's header and rows match the completions along the path."""
    columns = chart_cells(m, path, agent_names)
    header = ["agent"] + [f"T{k + 1}" for k in range(len(columns))]
    if fmt == "csv":
        rows = [header] + [[name] + [col[a] for col in columns]
                           for a, name in enumerate(agent_names)]
        require(text == "\n".join(",".join(r) for r in rows) + "\n",
                "CSV chart differs from the completions along the path")
        return
    lines = text.rstrip("\n").split("\n")
    require(len(lines) == len(agent_names) + 1, "chart has the wrong number of rows")
    require(lines[0].split() == header,
            f"chart header {lines[0]!r} does not match {len(columns)} completion steps")
    for a, (name, line) in enumerate(zip(agent_names, lines[1:])):
        cells = line.split()
        require(cells[:1] == [name], f"chart row {a} is not agent {name}")
        expected = [col[a] for col in columns if col[a]]
        require(cells[1:] == expected, f"chart row of {name}: {cells[1:]} != {expected}")


# ---------------------------------------------------------------------------
# when / whynot answers
# ---------------------------------------------------------------------------

class ConditionProblem:
    """The Boolean problem of a when/whynot query, recomputed from the model.

    ``clauses`` of the answers checked against it are collections of
    (agent name, predicate id, polarity) literals.
    """

    def __init__(self, query, m, domain):
        names = [a.name for a in domain.agents]
        self.index = {n: i for i, n in enumerate(names)}
        self.bit = {p.id: i for i, p in enumerate(domain.schema.predicates)}
        pairs = list(query.actions)
        if query.method == "withrf":
            entries = [domain.relevance.entries[p] for p in pairs]
            agents = set().union(*(e.agents for e in entries))
            features = set().union(*(e.features for e in entries))
            sets = []
            for e in entries:
                for s in e.action_sets:
                    if s not in sets:
                        sets.append(s)
        else:
            agents, features = set(names), set(self.bit)
            sets = [frozenset(pairs)]
        self.agents = [n for n in names if n in agents]
        self.features = [p.id for p in domain.schema.predicates if p.id in features]
        self.sets = sets

        def compatible(joint):
            return any(all(joint[self.index[a]] == act for a, act in s) for s in sets)

        if query.kind == "when":
            targets, nontargets = set(), set()
            for s in m.states:
                for e in m.out_edges.get(s, ()):
                    (targets if compatible(e.action) else nontargets).add(s)
            nontargets -= targets
        else:
            targets = {query.state}
            nontargets = {
                s for s in m.states
                if any(compatible(e.action) for e in m.out_edges.get(s, ()))
            }
            nontargets.discard(query.state)
        self.targets, self.nontargets = targets, nontargets

    @property
    def n_vars(self) -> int:
        return len(self.agents) * len(self.features)

    def key(self, state) -> int:
        """The state projected onto the problem's variables, as a minterm:
        bit ``k`` is agent ``k // |F|``'s feature ``k % |F|`` (agent-major)."""
        key = 0
        for k, (a, f) in enumerate((a, f) for a in self.agents for f in self.features):
            key |= (state[self.index[a]] >> self.bit[f] & 1) << k
        return key

    def holds(self, clauses, state) -> bool:
        return any(
            all((state[self.index[a]] >> self.bit[p] & 1) == int(pol)
                for a, p, pol in clause)
            for clause in clauses
        )

    def ones_zeros(self):
        ones = {self.key(s) for s in self.targets}
        zeros = {self.key(s) for s in self.nontargets} - ones
        return ones, zeros


def check_condition(problem: ConditionProblem, clauses) -> None:
    """DNF true on every target, false on every non-target not sharing a
    target's projection, and of minimum size where exhaustively checkable."""
    for clause in clauses:
        for a, p, _ in clause:
            require(a in problem.agents and p in problem.features,
                    f"literal {a}.{p} lies outside the query's variables")
    for s in problem.targets:
        require(problem.holds(clauses, s), f"DNF is false on target state {s}")
    ones, zeros = problem.ones_zeros()
    for s in problem.nontargets:
        if problem.key(s) in zeros:
            require(not problem.holds(clauses, s), f"DNF is true on non-target state {s}")
    best = exhaustive_min_clauses(ones, zeros, problem.n_vars, len(clauses)) if ones else None
    if best is not None:
        require(len(clauses) == best,
                f"answer has {len(clauses)} clauses; the minimum is {best}")


def exhaustive_min_clauses(ones, zeros, n_vars, at_most):
    """Fewest cubes covering the ``ones`` minterms and no zero, searched below
    ``at_most``; None when the problem is too large to search exhaustively."""
    if n_vars > EXHAUSTIVE_MAX_VARS:
        return None
    covers = set()
    for mask in range(1 << n_vars):
        blocked = {z & mask for z in zeros}
        groups: dict[int, set] = {}
        for o in ones:
            groups.setdefault(o & mask, set()).add(o)
        covers.update(frozenset(g) for v, g in groups.items() if v not in blocked)
    # only maximal coverage sets matter for the minimum cardinality
    sets = sorted(covers, key=len, reverse=True)
    maximal = [s for i, s in enumerate(sets) if not any(s < t for t in sets[:i])]
    if sum(math.comb(len(maximal), k) for k in range(1, at_most)) > EXHAUSTIVE_MAX_COMBOS:
        return None
    need = frozenset(ones)
    for k in range(1, at_most):
        for combo in combinations(maximal, k):
            if frozenset().union(*combo) == need:
                return k
    return at_most


def answer_clauses(answer):
    """(agent name, predicate, polarity) clauses of a ConditionAnswer."""
    return [
        {(agent.display_name, pred, pol) for agent, pred, pol in clause}
        for clause in answer.dnf.clauses
    ]


def parse_dnf(text: str):
    """Clauses of a ``format_dnf`` dump: ``(A.p & !B.q) | (...)``, TRUE, FALSE."""
    if text == "FALSE":
        return []
    if text == "TRUE":
        return [set()]
    clauses = []
    for part in text.split(" | "):
        require(part.startswith("(") and part.endswith(")"), f"bad DNF clause {part!r}")
        clause = set()
        for lit in part[1:-1].split(" & "):
            pol = not lit.startswith("!")
            agent, _, pred = lit.lstrip("!").partition(".")
            clause.add((agent, pred, pol))
        clauses.append(clause)
    return clauses


def check_literal_phrases(sentence: str, clauses, domain) -> None:
    """Every literal of the DNF appears in the sentence as '<agent> <phrase>'."""
    if not clauses:
        require(" never " in sentence, f"a FALSE answer should say never: {sentence!r}")
        return
    if clauses == [set()]:
        require(" never " in sentence or " always" in sentence,
                f"a TRUE answer should say always or never: {sentence!r}")
        return
    preds = {p.id: p for p in domain.schema.predicates}
    for clause in clauses:
        for agent, pred, pol in clause:
            phrase = preds[pred].positive if pol else preds[pred].negative
            require(f"{agent} {phrase}" in sentence,
                    f"sentence lacks '{agent} {phrase}': {sentence!r}")


# ---------------------------------------------------------------------------
# what answers
# ---------------------------------------------------------------------------

def expected_what(query, m, domain):
    """(satisfying states, per-agent actions) recomputed from the model."""
    index = {a.name: i for i, a in enumerate(domain.agents)}
    bits = [i for i, p in enumerate(domain.schema.predicates) if p.id in query.predicates]
    satisfying = {
        s for s in m.states
        if all(s[index[n]] >> b & 1 for n in query.agents for b in bits)
    }
    if not satisfying:
        return satisfying, {}
    alphabet = {a.name: a.actions for a in domain.agents}
    actions = {}
    for name in query.agents:
        i = index[name]
        if query.method == "norf":
            seen = {e.action[i] for s in satisfying for e in m.out_edges.get(s, ())}
            actions[name] = tuple(a for a in alphabet[name] if a in seen)
        else:
            relevant = {
                a for a in alphabet[name]
                if domain.relevance.entries[(name, a)].features & set(query.predicates)
            }
            weight: Counter = Counter()
            for s in satisfying:
                for e in m.out_edges.get(s, ()):
                    if e.action[i] in relevant:
                        weight[e.action[i]] += e.count
            actions[name] = (min(weight, key=lambda a: (-weight[a], a))
                             if weight else None)
    return satisfying, actions


def check_what_sentence(sentence: str, query, m, domain) -> None:
    """The sentence names, per agent, the recomputed action(s)."""
    satisfying, actions = expected_what(query, m, domain)
    if not satisfying:
        require(sentence.startswith("No observed state"),
                f"expected a no-occurrence answer: {sentence!r}")
        return
    phrases = domain.action_phrases
    for name in query.agents:
        acts = actions[name]
        if query.method == "norf":
            for a in acts:
                require(phrases[a].base in sentence,
                        f"sentence lacks action {a!r} of {name}: {sentence!r}")
        elif acts is None:
            require(f"{name} takes no relevant action" in sentence,
                    f"sentence should say {name} takes no relevant action: {sentence!r}")
        else:
            require(f"{name} is most likely to {phrases[acts].base}" in sentence,
                    f"sentence lacks '{name} is most likely to {phrases[acts].base}': "
                    f"{sentence!r}")


def check_what_answer(answer, m, domain) -> None:
    satisfying, actions = expected_what(answer.query, m, domain)
    require(set(answer.satisfying_states) == satisfying,
            "what answer's satisfying states differ from the recomputation")
    require(dict(answer.actions) == actions,
            f"what answer's actions {dict(answer.actions)} != {actions}")


# ---------------------------------------------------------------------------
# answers as a whole
# ---------------------------------------------------------------------------

def check_condition_answer(answer, m, domain) -> None:
    """A when/whynot answer object: variables, partition and DNF."""
    problem = ConditionProblem(answer.query, m, domain)
    space = answer.space
    require([a.display_name for a in space.agent_order] == problem.agents
            and list(space.feature_order) == problem.features,
            f"{answer.query}: variables differ from the relevance recomputation")
    require(set(answer.target_states) == problem.targets
            and set(answer.nontarget_states) == problem.nontargets,
            f"{answer.query}: targets/non-targets differ from the recomputation")
    check_condition(problem, answer_clauses(answer))


def check_sentence(text, query, m, domain, clauses=None) -> None:
    """A rendered sentence against the recomputed answer or the DNF clauses."""
    if query.kind == "what":
        check_what_sentence(text, query, m, domain)
    else:
        check_literal_phrases(text, clauses, domain)
