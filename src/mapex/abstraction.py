"""Builds the joint-state abstraction of an observed policy from trajectory
samples: abstract each sample through the feature schema, accumulate
transition counts, and normalize to probabilities.

Normalization: with ``normalization="state"`` (the default) a transition's
probability is its count divided by the total outgoing samples of its source
state, so the product of edge probabilities along a path equals the empirical
probability of that action-labeled trajectory.  ``"state-action"`` divides by
the (state, action) count instead.

A model holds its sorted state table, ``states``, and its transitions as
``columns``: the source state index, joint action, target state index and
count lists of an ``.mmdp`` file's transition table, in its order.
``build_abstraction`` and ``load_abstraction`` both end in those columns.
Everything else is built from them on first use and then kept:
``state_index``, the tuple-keyed ``counts``, ``out_edges`` (the
``Transition`` objects with their probabilities, read by ``summarize`` and
``save_abstraction``), the query index of when and why-not answers, and each
per-(agent, feature) state mask.  What answers read only their states' own
ranges of the columns, through ``action_counts``, and keep each state's
(joint action, count) rows.  So an answer builds no per-edge object.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, groupby, islice, repeat
from operator import lt, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .domain import FeatureSchema, JointAction, JointState, is_action_id
from .errors import (
    AbstractionFormatError,
    MultipleInitialStatesError,
    PreconditionError,
    SchemaMismatchError,
    TraceFormatError,
)
from .trace import TraceSample, state_encoder

_PROB_TOLERANCE = 1e-9

NORMALIZATIONS = ("state", "state-action")


@dataclass(slots=True)
class Transition:
    source: JointState
    action: JointAction
    target: JointState
    count: int
    probability: float


# bin() digits '0'/'1' -> bytes 0/1, so a reversed bin() string selects items
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def select_bits(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of ``mask`` (bit k selects ``items[k]``), in
    order; the scan over the bits runs in C."""
    bits = bin(mask)[:1:-1].encode("ascii")
    return compress(items, bits.translate(_BIT_SELECTORS))


class QueryIndex:
    """The when/why-not index of a model, over int bit masks.

    ``actions`` holds each distinct enabled joint action in first-seen
    canonical order, and ``state_masks[k]`` has bit j set when ``states[j]``
    enables ``actions[k]``; both come from the one pass over each state's
    rows of the model's action column that builds ``enabled``.  A mask over
    action positions selects joint actions:
    ``requirement`` selects those meeting one (agent index, action)
    requirement, derived the first time a query asks for it and then
    memoised, and ``every_action`` selects all.  ``enabled_by`` turns a
    selection into the mask of the states enabling any of it; ``enabling``
    masks the states with any enabled action.  Minterms and what answers
    come from the model's per-(agent, feature) ``state_mask`` instead.
    """

    def __init__(self, states: tuple[JointState, ...], actions: Sequence[JointAction],
                 rows: Sequence[slice]):
        enabled: dict[JointState, tuple[JointAction, ...]] = {}
        masks: dict[JointAction, int] = {}
        enabling = 0
        for j, (s, state_rows) in enumerate(zip(states, rows)):
            distinct = enabled[s] = tuple(dict.fromkeys(actions[state_rows]))
            if distinct:
                bit = 1 << j
                enabling |= bit
                for a in distinct:
                    masks[a] = masks.get(a, 0) | bit
        self.enabled = enabled
        self.actions = tuple(masks)
        self.state_masks = tuple(masks.values())
        self.enabling = enabling
        self.every_action = (1 << len(masks)) - 1
        self._requirements: dict[tuple[int, str], int] = {}

    def requirement(self, agent: int, action: str) -> int:
        """Positions of the joint actions in which agent ``agent`` takes ``action``."""
        mask = self._requirements.get((agent, action))
        if mask is None:
            mask = self._requirements[(agent, action)] = sum(
                1 << k for k, a in enumerate(self.actions) if a[agent] == action)
        return mask

    def enabled_by(self, actions: int) -> int:
        """The states enabling any of the masked action positions."""
        states = 0
        for mask in select_bits(self.state_masks, actions):
            states |= mask
        return states


# source state index, joint action, target state index and count per
# transition, in canonical (source, action, target) order
Columns = tuple[list[int], list[JointAction], list[int], list[int]]


class PolicyAbstraction:
    """Immutable-after-build abstraction: states, actions, counted transitions.

    Every stored transition was witnessed by at least one sample (counts are
    always >= 1) and the probabilities out of each source state sum to one.

    ``columns`` holds the transitions (see the module docstring); the
    constructor and ``load_abstraction`` both end in ``_setup``.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        n_agents: int,
        transition_counts: Mapping[tuple[JointState, JointAction, JointState], int],
        initial_state: JointState,
        *,
        normalization: str = "state",
        initial_counts: Mapping[JointState, int] | None = None,
    ):
        # counts out of canonical order, such as a build's Counter, are sorted first
        keys = list(transition_counts)
        if not all(map(lt, keys, islice(keys, 1, None))):
            keys.sort()
        sources, actions, targets = zip(*keys) if keys else ((), (), ())
        initial_counts = dict(initial_counts or {initial_state: 1})
        states = tuple(sorted({*sources, *targets, *initial_counts}))
        index = dict(zip(states, range(len(states))))
        columns = (list(map(index.__getitem__, sources)), list(actions),
                   list(map(index.__getitem__, targets)),
                   list(map(transition_counts.__getitem__, keys)))
        self._setup(schema, n_agents, states, columns, initial_state, normalization,
                    initial_counts)
        self.state_index = index

    def _setup(self, schema: FeatureSchema, n_agents: int, states: tuple[JointState, ...],
               columns: Columns, initial_state: JointState, normalization: str,
               initial_counts: dict[JointState, int]) -> None:
        """Check and keep a model given as its sorted state table and its
        transition columns.  Soundness checks are explicit raises, so they
        also run under python -O."""
        if normalization not in NORMALIZATIONS:
            raise PreconditionError(f"unknown normalization {normalization!r}")
        _, actions, _, counts = columns
        if not counts:
            raise PreconditionError("abstraction needs at least one transition")
        self.schema = schema
        self.n_agents = n_agents
        # a goal state has every task-completion bit set in some agent
        self._goal_mask = 0
        for pred_id in schema.task_completion_ids:
            self._goal_mask |= 1 << schema.index_of(pred_id)
        self.normalization = normalization
        self.initial_state = initial_state
        self.initial_counts = initial_counts
        if initial_state not in initial_counts:
            raise PreconditionError(f"initial state {initial_state} has no initial count")
        for s, c in initial_counts.items():
            if c < 1:
                raise PreconditionError(f"initial count {c} < 1 for {s}")
        # the columns pass as a whole, or the first bad row raises
        if min(counts) < 1 or {*map(len, states), *map(len, actions)} != {n_agents}:
            for s_i, a, t_i, c in zip(*columns):
                s, t = states[s_i], states[t_i]
                if c < 1:
                    raise PreconditionError(f"transition count {c} < 1 for {(s, a, t)}")
                if len(s) != n_agents or len(t) != n_agents or len(a) != n_agents:
                    raise SchemaMismatchError(f"transition arity mismatch for "
                                              f"{(s, a, t)}; expected {n_agents}")
        max_states = (1 << schema.n_features) ** n_agents
        if len(states) > max_states:
            raise AssertionError(f"state count {len(states)} exceeds the "
                                 f"2^|F|^N bound {max_states}")
        self.states = states
        self.columns = columns
        self._state_masks: dict[tuple[int, int], int] = {}
        self._action_counts: dict[int, list[tuple[JointAction, int]]] = {}

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.columns[3])

    @cached_property
    def _rows(self) -> list[slice]:
        """Each state's rows of the columns, which list the sources in order."""
        bounds = list(map(bisect_left, repeat(self.columns[0]), range(len(self.states) + 1)))
        return list(map(slice, bounds, islice(bounds, 1, None)))

    @cached_property
    def state_index(self) -> dict[JointState, int]:
        return dict(zip(self.states, range(len(self.states))))

    @cached_property
    def counts(self) -> dict[tuple[JointState, JointAction, JointState], int]:
        """(source, action, target) -> count, in canonical order."""
        sources, actions, targets, counts = self.columns
        state = self.states.__getitem__
        return dict(zip(zip(map(state, sources), actions, map(state, targets)), counts))

    @cached_property
    def out_edges(self) -> dict[JointState, tuple[Transition, ...]]:
        """Each state's transitions in canonical order.  A probability is the
        count over its denominator's total: the source's, or the source and
        action's; each denominator's probabilities are checked to sum to one
        before any is handed out."""
        _, actions, targets, counts = self.columns
        states = self.states
        out: dict[JointState, tuple[Transition, ...]] = dict.fromkeys(states, ())
        for s, rows in zip(states, map(range(len(counts)).__getitem__, self._rows)):
            if not rows:
                continue
            groups = ([((s, a), list(g)) for a, g in groupby(rows, actions.__getitem__)]
                      if self.normalization == "state-action" else [(s, rows)])
            edges = []
            for key, group in groups:
                total = sum(map(counts.__getitem__, group))
                mass = 0.0
                for k in group:
                    edges.append(edge := Transition(s, actions[k], states[targets[k]],
                                                    counts[k], counts[k] / total))
                    mass += edge.probability
                if not math.isclose(mass, 1.0, abs_tol=_PROB_TOLERANCE):
                    raise AssertionError(f"outgoing probability mass {mass} != 1 for {key}")
            out[s] = tuple(edges)
        return out

    @cached_property
    def query_index(self) -> QueryIndex:
        """The model's query index, built on first use, so building, loading
        and summarizing a model never pay for it."""
        return QueryIndex(self.states, self.columns[1], self._rows)

    def action_counts(self, mask: int) -> list[tuple[JointAction, int]]:
        """The (joint action, count) rows of the masked states.  Each state's
        are read from its own range of the columns on first use, then kept."""
        sources, actions, _, counts = self.columns
        rows = []
        for j in select_bits(range(len(self.states)), mask):
            state_rows = self._action_counts.get(j)
            if state_rows is None:
                start = bisect_left(sources, j)
                end = bisect_left(sources, j + 1, start)
                state_rows = self._action_counts[j] = list(zip(actions[start:end],
                                                               counts[start:end]))
            rows += state_rows
        return rows

    def state_mask(self, agent: int, feature: int) -> int:
        """Positions of the states in which agent ``agent`` has the one-bit
        schema mask ``feature``; derived on first use, then memoised."""
        mask = self._state_masks.get((agent, feature))
        if mask is None:
            mask = self._state_masks[(agent, feature)] = sum(
                1 << j for j, s in enumerate(self.states) if s[agent] & feature)
        return mask

    def states_of(self, mask: int) -> frozenset[JointState]:
        return frozenset(select_bits(self.states, mask))

    def enabled_actions(self, state: JointState) -> tuple[JointAction, ...]:
        """The state's distinct enabled joint actions, in first-seen order."""
        return self.query_index.enabled.get(state, ())

    def is_goal(self, state: JointState) -> bool:
        return reduce(or_, state, 0) & self._goal_mask == self._goal_mask

    def goal_states(self) -> tuple[JointState, ...]:
        return tuple(s for s in self.states if self.is_goal(s))

    def initial_distribution(self) -> dict[JointState, float]:
        total = sum(self.initial_counts.values())
        return {s: c / total for s, c in sorted(self.initial_counts.items())}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyAbstraction):
            return NotImplemented
        return (
            self.schema.schema_hash() == other.schema.schema_hash()
            and self.n_agents == other.n_agents
            and self.normalization == other.normalization
            and self.states == other.states
            and self.columns == other.columns
            and self.initial_state == other.initial_state
            and self.initial_counts == other.initial_counts
        )


def build_abstraction(
    samples: Iterable[TraceSample],
    schema: FeatureSchema,
    *,
    normalization: str = "state",
    virtual_init: bool = False,
) -> PolicyAbstraction:
    """Frequency-count the abstracted samples into a PolicyAbstraction.

    Episodes whose step-0 abstract states differ raise
    MultipleInitialStatesError unless ``virtual_init`` is set, in which case
    the empirical initial distribution is kept and path search starts from it.
    Self-loops (identical abstract source and target) are recorded like any
    other transition.  Records go through ``trace.state_encoder``, which
    encodes a shared record (one that ``simulate`` or the trace reader hands
    out) once per schema.
    """
    encode = state_encoder(schema)
    counts: Counter = Counter()
    initial_counts: Counter = Counter()
    first_initial: JointState | None = None
    n_agents = None
    previous_next, target = object(), None  # object(): no sample's state is it
    for sample in samples:
        try:
            # a sample that starts where the previous one ended reuses its encoding
            if sample.joint_concrete_state is previous_next:
                source = target
            else:
                source = encode(sample.joint_concrete_state)
            previous_next = sample.next_joint_concrete_state
            target = encode(previous_next)
        except (KeyError, TypeError, IndexError) as exc:
            raise TraceFormatError(
                f"episode {sample.episode_id} step {sample.step}: malformed agent "
                f"record ({type(exc).__name__}: {exc})"
            ) from None
        action = tuple(sample.joint_action)
        if n_agents is None:
            n_agents = len(source)
        counts[(source, action, target)] += 1
        if sample.step == 0:
            initial_counts[source] += 1
            if first_initial is None:
                first_initial = source
            elif source != first_initial and not virtual_init:
                raise MultipleInitialStatesError(
                    f"episode {sample.episode_id} starts at {source}, earlier "
                    f"episodes at {first_initial}; rerun with virtual-init to "
                    f"model an empirical initial distribution"
                )
    if not counts:
        raise PreconditionError("cannot build an abstraction from an empty sample stream")
    if first_initial is None:
        raise PreconditionError("cannot build an abstraction with no sample at step 0, "
                                "so no initial state")
    return PolicyAbstraction(
        schema,
        n_agents,
        counts,
        first_initial,
        normalization=normalization,
        initial_counts=initial_counts,
    )


# ---------------------------------------------------------------------------
# Abstraction files: versioned structured text with a trailing checksum.
# Probabilities are stored for readability but recomputed from counts on load,
# so the round-trip is lossless.
# ---------------------------------------------------------------------------

_MMDP_FORMAT = "mapex-mmdp"
_MMDP_VERSION = 1


def save_abstraction(m: PolicyAbstraction, path) -> None:
    if m.n_transitions == 0:
        raise PreconditionError("refusing to save an empty abstraction")
    for action in dict.fromkeys(a for joint in dict.fromkeys(m.columns[1]) for a in joint):
        if not is_action_id(action):
            raise PreconditionError(f"cannot save action id {action!r}: it must be a "
                                    f"word, with no whitespace and no comma")
    lines = [
        f"{_MMDP_FORMAT} {_MMDP_VERSION}",
        f"schema {m.schema.schema_hash()}",
        f"agents {m.n_agents}",
        f"features {m.schema.n_features}",
        f"normalization {m.normalization}",
        f"initial {m.state_index[m.initial_state]}",
        "init-counts "
        + ",".join(
            f"{m.state_index[s]}:{c}" for s, c in sorted(m.initial_counts.items())
        ),
        f"states {m.n_states}",
    ]
    for i, s in enumerate(m.states):
        lines.append(f"{i} {','.join(str(b) for b in s)}")
    lines.append(f"transitions {m.n_transitions}")
    for s in m.states:
        for e in m.out_edges[s]:
            lines.append(
                f"{m.state_index[s]} {','.join(e.action)} "
                f"{m.state_index[e.target]} {e.count} {e.probability!r}"
            )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
        fh.write(f"checksum {digest}\n")


def load_abstraction(path, schema: FeatureSchema) -> PolicyAbstraction:
    """The model saved at ``path``, read into its columns.  A bad row fails
    with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    # the checksum line is the last; it covers the text before it
    end = raw.rfind("\n", 0, len(raw) - 1) + 1
    body, last = raw[:end], raw[end:]
    if not last.startswith("checksum "):
        raise AbstractionFormatError(f"{path}: missing checksum line")
    expected = last.split(" ", 1)[1].strip()
    actual = hashlib.sha256(body.encode()).hexdigest()
    if actual != expected:
        raise AbstractionFormatError(f"{path}: checksum mismatch (file corrupted?)")
    lines = raw.splitlines()  # the checksum line last, so a table overrun reads it

    def fail(msg: str):
        raise AbstractionFormatError(f"{path}: {msg}")

    header = lines[0].split()
    if len(header) != 2 or header[0] != _MMDP_FORMAT:
        fail("not a mapex-mmdp file")
    if header[1] != str(_MMDP_VERSION):
        fail(f"unsupported version {header[1]}")

    idx = 0  # the index of the line being read; the file is read once, forward

    def take(key: str) -> str:
        """The value of the next line, which must start with ``key``."""
        nonlocal idx
        idx += 1
        name, _, value = lines[idx].partition(" ")
        if name != key:
            fail(f"expected {key!r} on line {idx + 1}")
        return value

    def ordered(previous, key, rows: str):
        """``key``; it sorts strictly after the previous row's, as saved."""
        if key <= previous:
            fail(f"duplicate {rows} at line {idx + 1}" if key == previous
                 else f"{rows} out of order at line {idx + 1}")
        return key

    try:
        schema_hash = take("schema")
        if schema_hash != schema.schema_hash():
            raise SchemaMismatchError(
                f"{path}: abstraction was built against schema {schema_hash}, "
                f"not the supplied schema {schema.schema_hash()}"
            )
        n_agents = int(take("agents"))
        if int(take("features")) != schema.n_features:
            fail("feature count disagrees with the supplied schema")
        normalization = take("normalization")
        initial = take("initial")
        init_counts = []
        index = -1
        for part in take("init-counts").split(","):
            s_i, c = part.split(":")
            index = ordered(index, int(s_i), "init-counts entries")
            init_counts.append((s_i, int(c)))

        # agent values are bit sets over the schema's features; each text is read once
        limit = 1 << schema.n_features
        value_of: dict[str, int] = {}
        states: list[JointState] = []
        row = ()
        for k in range(int(take("states"))):
            idx += 1
            num, bits = lines[idx].split(" ", 1)
            texts = bits.split(",")
            try:
                values, read = tuple(map(value_of.__getitem__, texts)), ()
            except KeyError:
                values = read = tuple(map(int, texts))
            if int(num) != k:
                fail(f"state rows out of order at line {idx + 1}")
            if read and (min(read) < 0 or max(read) >= limit):
                fail(f"state {k} on line {idx + 1} has an agent value outside [0, {limit})")
            value_of.update(zip(texts, read))
            states.append(row := values if values > row else ordered(row, values, "state rows"))
        index_of = dict(zip(map(str, range(len(states))), range(len(states))))

        sources, actions, targets, counts = columns = ([], [], [], [])
        table: dict[str, JointAction] = {}  # one tuple per action text
        key = ()
        for _ in range(int(take("transitions"))):
            idx += 1
            s_i, action, t_i, count, _prob = lines[idx].split(" ")
            if (s := index_of.get(s_i)) is None or (t := index_of.get(t_i)) is None:
                fail(f"transition {s_i} -> {t_i} on line {idx + 1} names a state "
                     f"index outside the state table")
            a = table.get(action) or table.setdefault(action, tuple(action.split(",")))
            row = (s, a, t)
            key = row if row > key else ordered(key, row, "transition lines")
            sources.append(s)
            actions.append(a)
            targets.append(t)
            counts.append(int(count))
        if idx != len(lines) - 2:
            fail(f"unexpected line {idx + 2} after the transition table")
    except (ValueError, IndexError) as exc:
        fail(f"malformed line {idx + 1} ({type(exc).__name__}: {exc})")

    def state(text: str, line: int) -> int:
        if text not in index_of:
            fail(f"state index {text} on line {line} is outside the state table")
        return index_of[text]

    # the header's state indices (lines 6 and 7), now that the state table is read
    states = tuple(states)
    initial_state = states[state(initial, 6)]
    counted = {state(s_i, 7): c for s_i, c in init_counts}
    m = PolicyAbstraction.__new__(PolicyAbstraction)
    m._setup(schema, n_agents, states, columns, initial_state, normalization,
             {states[i]: c for i, c in counted.items()})
    # saved files list only the states the model names
    named = {*columns[0], *columns[2], *counted}
    if len(named) != len(states):
        k = next(k for k in range(len(states)) if k not in named)
        fail(f"state {k} on line {9 + k} is named by no transition or initial count")
    return m
