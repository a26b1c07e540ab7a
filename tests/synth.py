"""Synthetic fixtures: schemas with explicit-feature predicates, seeded
random layered abstractions for path-search and latency checks, random
domain definitions with traces, and malformed but well-checksummed .mmdp
files."""

from __future__ import annotations

import hashlib
import random

from mapex import (ActionPhrases, AgentSpec, DomainDefinition, FeatureSchema,
                   PolicyAbstraction, PredicateSpec, RelevanceEntry, RelevanceKnowledge)


def plain_schema(n_features: int, task_ids=()) -> FeatureSchema:
    """Schema whose predicates read explicit {"features": {...}} records."""
    preds = tuple(
        PredicateSpec(
            id=f"f{i}",
            positive=f"satisfies f{i}",
            negative=f"does not satisfy f{i}",
            positive_plural=f"satisfy f{i}",
            negative_plural=f"do not satisfy f{i}",
            label=f"f{i}",
        )
        for i in range(n_features)
    )
    return FeatureSchema(preds, tuple(task_ids))


_ACTION_POOL = (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


def random_layered_abstraction(seed: int, max_states: int = 40,
                               n_initial: int = 1) -> PolicyAbstraction:
    """Random 2-agent layered MMDP with self-loops, <= 40 states, <= 4 joint
    actions, and every initial-to-goal simple path at most 12 edges long.
    Its first layer holds ``n_initial`` initial states; more than one are
    weighted by random initial counts."""
    rng = random.Random(f"synth:{seed}")
    schema = plain_schema(6, task_ids=("f5",))
    n_layers = rng.randint(3, 12)
    # non-goal bit pools keep f5 (bit 32) clear; goal states set it on agent 0
    pool = [(b0, b1) for b0 in range(32) for b1 in range(32)]
    rng.shuffle(pool)
    layers: list[list[tuple[int, int]]] = []
    used = 0
    for layer in range(n_layers):
        width = n_initial if layer == 0 else rng.randint(1, 4)
        width = min(width, max_states - used - (n_layers - layer))
        width = max(width, 1)
        layers.append([pool.pop() for _ in range(width)])
        used += width
    n_goals = rng.randint(1, 3)
    goal_layer = [(32 + rng.randrange(32), rng.randrange(32)) for _ in range(n_goals)]
    goal_layer = list(dict.fromkeys(goal_layer))
    layers.append(goal_layer)

    counts: dict = {}
    for depth in range(len(layers) - 1):
        for state in layers[depth]:
            out_degree = rng.randint(1, min(3, len(layers[depth + 1])))
            targets = rng.sample(layers[depth + 1], out_degree)
            for target in targets:
                action = _ACTION_POOL[rng.randrange(len(_ACTION_POOL))]
                key = (state, action, target)
                counts[key] = counts.get(key, 0) + rng.randint(1, 9)
            if rng.random() < 0.3:
                action = _ACTION_POOL[rng.randrange(len(_ACTION_POOL))]
                key = (state, action, state)
                counts[key] = counts.get(key, 0) + rng.randint(1, 9)
    initial_counts = ({s: rng.randint(1, 9) for s in layers[0]} if n_initial > 1
                      else None)
    return PolicyAbstraction(schema, 2, counts, layers[0][0],
                             initial_counts=initial_counts)


def big_layered_abstraction(n_states: int = 1000) -> PolicyAbstraction:
    """Deterministic ~n_states layered MMDP for latency guardrail checks."""
    rng = random.Random("synth:big")
    schema = plain_schema(10, task_ids=("f9",))
    per_layer = 100
    n_layers = max(2, n_states // per_layer) + 1
    layers = [
        [(layer, j) for j in range(per_layer if layer > 0 else 1)]
        for layer in range(n_layers)
    ]
    layers.append([(512, j) for j in range(3)])  # f9 = bit 512 on agent 0
    counts: dict = {}
    for depth in range(len(layers) - 1):
        for state in layers[depth]:
            for target in rng.sample(layers[depth + 1], min(2, len(layers[depth + 1]))):
                action = _ACTION_POOL[rng.randrange(len(_ACTION_POOL))]
                key = (state, action, target)
                counts[key] = counts.get(key, 0) + rng.randint(1, 9)
    return PolicyAbstraction(schema, 2, counts, (0, 0))


_PHRASES = {"go": ActionPhrases("go", "goes"), "push": ActionPhrases("push", "pushes"),
            "wait": ActionPhrases("wait", "waits")}


def random_domain(seed: int):
    """A random valid domain and a trace of it: 1-4 agents over 1-6 explicit
    features, at least one of them a task, relevance entries with cooperation
    sets, and trace lines (the header, then records with explicit
    ``features`` valuations) whose 1-4 episodes may start in different states.
    Returns (domain, trace lines as JSON values)."""
    rng = random.Random(f"domain:{seed}")
    n_features = rng.randint(1, 6)
    tasks = sorted(rng.sample(range(n_features), rng.randint(1, n_features)))
    schema = plain_schema(n_features, task_ids=[f"f{i}" for i in tasks])
    agents = tuple(
        AgentSpec(f"A{i}", tuple(a for a in _PHRASES if rng.random() < 0.6) or ("wait",))
        for i in range(rng.randint(1, 4))
    )
    entries = {}
    for spec in agents:
        others = [a for a in agents if a is not spec]
        for action in spec.actions:
            sets = tuple(
                frozenset({(spec.name, action),
                           *((o.name, rng.choice(o.actions))
                             for o in rng.sample(others, rng.randint(0, len(others))))})
                for _ in range(rng.randint(1, 2)))
            entries[(spec.name, action)] = RelevanceEntry(
                frozenset(a for s in sets for a, _ in s),
                frozenset(rng.sample(schema.predicate_ids, rng.randint(0, n_features))),
                sets)
    domain = DomainDefinition(
        id=f"rand{seed}", agents=agents, schema=schema,
        action_phrases={a: _PHRASES[a] for spec in agents for a in spec.actions},
        relevance=RelevanceKnowledge(entries))

    def valuation():
        return [{"features": {f: rng.random() < 0.5 for f in schema.predicate_ids}}
                for _ in agents]

    lines = [{"format": "mapex-trace", "version": 1, "domain": domain.id,
              "agents": len(agents)}]
    for episode in range(rng.randint(1, 4)):
        state = valuation()
        for step in range(rng.randint(1, 5)):
            nxt = valuation()
            lines.append({"episode": episode, "step": step, "state": state,
                          "action": [rng.choice(spec.actions) for spec in agents],
                          "next_state": nxt})
            state = nxt
    return domain, lines


def rewrite_mmdp(path, out, edit):
    """Apply ``edit`` to the body lines of an .mmdp file and re-checksum it, so
    only the parser, not the checksum, can reject the result."""
    lines = path.read_text().splitlines()[:-1]
    edit(lines)
    body = "\n".join(lines) + "\n"
    out.write_text(body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n")
    return out


def _first_row(lines, table):
    return next(i for i, ln in enumerate(lines) if ln.startswith(f"{table} ")) + 1


def _set_count(lines):
    lines[_first_row(lines, "transitions") - 1] = "transitions x"


def _set_target(lines):
    i = _first_row(lines, "transitions")
    s_i, action, _, count, prob = lines[i].split(" ")
    lines[i] = " ".join([s_i, action, "9999", count, prob])


def _duplicate(lines):
    i = _first_row(lines, "transitions")
    lines.insert(i, lines[i])
    lines[i - 1] = f"transitions {int(lines[i - 1].split()[1]) + 1}"


def _append(lines):
    lines.append(lines[-1])


def _swap_transitions(lines):
    i = _first_row(lines, "transitions")
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


def _swap_states(lines):
    # the row numbers stay in place; only the states behind them trade places
    i = _first_row(lines, "states")
    (n0, bits0), (n1, bits1) = (ln.split(" ") for ln in lines[i:i + 2])
    lines[i], lines[i + 1] = f"{n0} {bits1}", f"{n1} {bits0}"


def _repeat_init_count(lines):
    lines[_first_row(lines, "init-counts") - 1] = "init-counts 0:1,0:2"


def _bits_out_of_range(lines):
    i = _first_row(lines, "states")
    n_agents = len(lines[i].split(" ")[1].split(","))
    lines[i] = "0 " + ",".join(["999"] * n_agents)


def _unnamed_state(lines):
    # a well-formed last row that no transition or initial count names
    i = _first_row(lines, "states")
    n_states = int(lines[i - 1].split(" ")[1])
    n_agents = len(lines[i].split(" ")[1].split(","))
    top = (1 << int(lines[_first_row(lines, "features") - 1].split(" ")[1])) - 1
    lines.insert(i + n_states, f"{n_states} " + ",".join([str(top)] * n_agents))
    lines[i - 1] = f"states {n_states + 1}"


def _edit_row(table, field, value, row=0):
    """An edit that sets one space-separated field of a table's row."""
    def edit(lines):
        i = _first_row(lines, table) + row
        fields = lines[i].split(" ")
        fields[field] = value
        lines[i] = " ".join(fields)
    return edit


def _state_value(text):
    """An edit that sets the first agent value of state row 0."""
    def edit(lines):
        i = _first_row(lines, "states")
        num, bits = lines[i].split(" ")
        lines[i] = f"{num} {text}," + bits.split(",", 1)[1]
    return edit


def _header_line(key, text):
    """An edit that replaces the header line starting with ``key``."""
    def edit(lines):
        lines[_first_row(lines, key) - 1] = text
    return edit


def _extra_state(lines):
    i = _first_row(lines, "states")
    lines[i - 1] = f"states {int(lines[i - 1].split(' ')[1]) + 1}"


def _extra_transition(lines):
    # the table's last row is then the checksum line
    i = _first_row(lines, "transitions")
    lines[i - 1] = f"transitions {int(lines[i - 1].split(' ')[1]) + 1}"


def _short_state(lines):
    # state row 0 loses its last agent; it still sorts first
    i = _first_row(lines, "states")
    lines[i] = lines[i].rsplit(",", 1)[0]


MALFORMED_MMDP = {
    "non-numeric-count": (_set_count, "malformed line"),
    "target-out-of-range": (_set_target, "transition 0 -> 9999 on line"),
    "duplicate-transition": (_duplicate, "duplicate transition lines"),
    "trailing-line": (_append, "unexpected line"),
    "swapped-transitions": (_swap_transitions, "transition lines out of order"),
    "swapped-states": (_swap_states, "state rows out of order"),
    "repeated-init-count": (_repeat_init_count, "duplicate init-counts entries"),
    "bits-out-of-range": (_bits_out_of_range, "state 0 on line 9 has an agent value outside"),
    "unnamed-state": (_unnamed_state, "state 18 on line 27 is named by no transition"),
    "non-numeric-value": (_state_value("x"), "malformed line 9 (ValueError: invalid "
                          "literal for int() with base 10: 'x')"),
    "negative-value": (_state_value("-1"), "state 0 on line 9 has an agent value "
                       "outside [0, 64)"),
    "misnumbered-state": (_edit_row("states", 0, "1"), "state rows out of order at line 9"),
    "sixth-field": (_edit_row("transitions", 4, "1.0 x"), "malformed line 28 (ValueError: "
                    "too many values to unpack (expected 5))"),
    "action-with-space": (_edit_row("transitions", 1, "wait move"), "malformed line 28 "
                          "(ValueError: too many values to unpack (expected 5))"),
    "states-overrun": (_extra_state, "malformed line 27 (ValueError: invalid literal for "
                       "int() with base 10: 'transitions')"),
    "transitions-overrun": (_extra_transition, "malformed line 51 (ValueError: not enough "
                            "values to unpack (expected 5, got 2))"),
    "renamed-key": (_header_line("agents", "agentz 3"), "expected 'agents' on line 3"),
    "feature-count": (_header_line("features", "features 7"), "feature count disagrees "
                      "with the supplied schema"),
    "initial-out-of-range": (_header_line("initial", "initial 99"), "state index 99 on "
                             "line 6 is outside the state table"),
}

# files the parser reads but whose model the constructor rejects, with the
# error it raises (no path prefix): (edit, message)
BAD_MODEL_MMDP = {
    "zero-count": (_edit_row("transitions", 3, "0"), "transition count 0 < 1 for "
                   "((0, 0, 0), ('move', 'move', 'move'), (0, 0, 0))"),
    "short-state": (_short_state, "transition arity mismatch for ((0, 0), ('move', "
                    "'move', 'move'), (0, 0)); expected 3"),
}
