"""Builds the joint-state abstraction of an observed policy from trajectory
samples: abstract each sample through the feature schema, accumulate
transition counts, and normalize to probabilities.

Normalization: with ``normalization="state"`` (the default) a transition's
probability is its count divided by the total outgoing samples of its source
state, so the product of edge probabilities along a path equals the empirical
probability of that action-labeled trajectory.  ``"state-action"`` divides by
the (state, action) count instead.

A model holds an ``.mmdp`` file's tables as they are: its sorted state
table, ``states``, its sorted table of distinct joint actions, ``actions``,
and its transitions as ``columns``, the source state index, action row
index, target state index and count lists in the file's transition order.
As both tables are strictly sorted, index order is tuple order.
``build_abstraction`` and ``load_abstraction`` both end in those tables.
Everything else is built from them on first use and then kept:
``state_index``, each state's ``rows`` of the columns, the tuple-keyed
``counts``, ``probabilities`` (one per row, the only place the
normalization is applied and its mass checked, read by path search), the
query index of when and why-not answers, each state's ``enabled`` joint
actions, and each per-(agent, feature) state mask.  What answers read only
their states' own ranges of the columns, through ``action_counts``, and
keep each state's (joint action, count) rows.  ``out_edges`` is the
per-edge ``Transition`` view of the columns for outside readers; no command
builds it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, groupby, islice, repeat
from operator import itemgetter, lt, or_
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

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

    ``actions`` is the model's action table, every row of which some
    transition uses, and ``state_masks[k]`` has bit j set when ``states[j]``
    enables ``actions[k]``; one pass over the source and action row columns
    builds them, one new bit per run of equal sources.  The index keeps no
    reference to its model.  A mask over action rows selects joint actions:
    ``requirement`` selects those meeting one (agent index, action)
    requirement, derived the first time a query asks for it and then
    memoised, and ``every_action`` selects all.  ``enabled_by`` turns a
    selection into the mask of the states enabling any of it; ``enabling``
    masks the states with any enabled action.  Minterms and what answers
    come from the model's per-(agent, feature) ``state_mask`` instead.
    """

    def __init__(self, actions: Sequence[JointAction], sources: Sequence[int],
                 action_rows: Sequence[int]):
        masks = [0] * len(actions)
        source, bit, enabling = -1, 0, 0
        for s, a in zip(sources, action_rows):
            if s != source:
                source, bit = s, 1 << s
                enabling |= bit
            masks[a] |= bit
        self.actions = actions
        self.state_masks = tuple(masks)
        self.enabling = enabling
        self.every_action = (1 << len(actions)) - 1
        self._requirements: dict[tuple[int, str], int] = {}

    def requirement(self, agent: int, action: str) -> int:
        """Rows of the joint actions in which agent ``agent`` takes ``action``."""
        mask = self._requirements.get((agent, action))
        if mask is None:
            mask = self._requirements[(agent, action)] = sum(
                1 << k for k, a in enumerate(self.actions) if a[agent] == action)
        return mask

    def enabled_by(self, actions: int) -> int:
        """The states enabling any of the masked action rows."""
        states = 0
        for mask in select_bits(self.state_masks, actions):
            states |= mask
        return states


# source state index, action row index, target state index and count per
# transition, in canonical (source, action, target) order; index order is
# the order of the sorted state and action tables
Columns = tuple[list[int], list[int], list[int], list[int]]


class PolicyAbstraction:
    """Immutable-after-build abstraction: states, actions, counted transitions.

    Every stored transition was witnessed by at least one sample (counts are
    always >= 1) and each normalization denominator's probabilities sum to one.

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
        keys = sorted(transition_counts)
        sources, actions, targets = zip(*keys) if keys else ((), (), ())
        initial_counts = dict(sorted((initial_counts or {initial_state: 1}).items()))
        states = tuple(sorted({*sources, *targets, *initial_counts}))
        index = dict(zip(states, range(len(states))))
        table = tuple(sorted({*actions}))
        row = dict(zip(table, range(len(table))))
        columns = (list(map(index.__getitem__, sources)), list(map(row.__getitem__, actions)),
                   list(map(index.__getitem__, targets)),
                   list(map(transition_counts.__getitem__, keys)))
        self._setup(schema, n_agents, states, table, columns, initial_state, normalization,
                    initial_counts)
        self.state_index = index

    def _setup(self, schema: FeatureSchema, n_agents: int, states: tuple[JointState, ...],
               actions: tuple[JointAction, ...], columns: Columns, initial_state: JointState,
               normalization: str, initial_counts: dict[JointState, int]) -> None:
        """Check and keep a model given as its sorted state and action tables
        and its transition columns, which use every action row.  Soundness
        checks are explicit raises, so they also run under python -O."""
        if normalization not in NORMALIZATIONS:
            raise PreconditionError(f"unknown normalization {normalization!r}")
        counts = columns[3]
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
            for s_i, a_i, t_i, c in zip(*columns):
                s, a, t = states[s_i], actions[a_i], states[t_i]
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
        self.actions = actions
        self.columns = columns
        self._state_masks: dict[tuple[int, int], int] = {}
        self._action_counts: dict[int, list[tuple[JointAction, int]]] = {}
        # the query layer's variable orders, each kept with its minterm projection
        self.spaces: dict = {}

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.columns[3])

    @cached_property
    def rows(self) -> list[slice]:
        """Each state's rows of the columns, which list the sources in order."""
        bounds = list(map(bisect_left, repeat(self.columns[0]), range(len(self.states) + 1)))
        return list(map(slice, bounds, islice(bounds, 1, None)))

    @cached_property
    def state_index(self) -> dict[JointState, int]:
        return dict(zip(self.states, range(len(self.states))))

    @cached_property
    def counts(self) -> dict[tuple[JointState, JointAction, JointState], int]:
        """(source, action, target) -> count, in canonical order."""
        sources, action_rows, targets, counts = self.columns
        state = self.states.__getitem__
        return dict(zip(zip(map(state, sources), map(self.actions.__getitem__, action_rows),
                            map(state, targets)), counts))

    @cached_property
    def probabilities(self) -> list[float]:
        """Each transition row's probability, in column order: its count over
        its denominator's total, the source's or, under "state-action", the
        source and action's.  Each denominator's probabilities are checked to
        sum to one before any is handed out."""
        sources, action_rows, _, counts = self.columns
        by_action = self.normalization == "state-action"
        probabilities: list[float] = []
        end = 0
        for key, group in groupby(zip(sources, action_rows) if by_action else sources):
            start, end = end, end + len(list(group))
            total = sum(counts[start:end])
            column = [c / total for c in counts[start:end]]
            mass = math.fsum(column)
            if not math.isclose(mass, 1.0, abs_tol=_PROB_TOLERANCE):
                named = ((self.states[key[0]], self.actions[key[1]]) if by_action
                         else self.states[key])
                raise AssertionError(f"outgoing probability mass {mass} != 1 for {named}")
            probabilities += column
        return probabilities

    @cached_property
    def out_edges(self) -> dict[JointState, tuple[Transition, ...]]:
        """Each state's transitions in canonical order, as ``Transition``
        objects: the per-edge view of the columns and ``probabilities`` for
        readers outside the package; no command builds it."""
        _, action_rows, targets, counts = self.columns
        states, action, probabilities = self.states, self.actions.__getitem__, self.probabilities
        return {s: tuple(map(Transition, repeat(s), map(action, action_rows[r]),
                             map(states.__getitem__, targets[r]), counts[r], probabilities[r]))
                for s, r in zip(states, self.rows)}

    @cached_property
    def query_index(self) -> QueryIndex:
        """The model's query index, built on first use, so building, loading
        and summarizing a model never pay for it."""
        return QueryIndex(self.actions, self.columns[0], self.columns[1])

    @cached_property
    def enabled(self) -> dict[JointState, tuple[JointAction, ...]]:
        """Each state's distinct enabled joint actions, in table order; read
        by ``enabled_actions`` only."""
        sources, action_rows, _, _ = self.columns
        enabled = dict.fromkeys(self.states, ())
        for j, pairs in groupby(dict.fromkeys(zip(sources, action_rows)), itemgetter(0)):
            enabled[self.states[j]] = tuple(self.actions[a] for _, a in pairs)
        return enabled

    def action_counts(self, mask: int) -> list[tuple[JointAction, int]]:
        """The (joint action, count) rows of the masked states.  Each state's
        are read from its own range of the columns on first use, then kept."""
        sources, action_rows, _, counts = self.columns
        rows = []
        for j in select_bits(range(len(self.states)), mask):
            state_rows = self._action_counts.get(j)
            if state_rows is None:
                start = bisect_left(sources, j)
                end = bisect_left(sources, j + 1, start)
                state_rows = self._action_counts[j] = list(zip(
                    map(self.actions.__getitem__, action_rows[start:end]),
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
        """The state's distinct enabled joint actions, in table order."""
        return self.enabled.get(state, ())

    def is_goal(self, state: JointState) -> bool:
        return reduce(or_, state, 0) & self._goal_mask == self._goal_mask

    def goal_states(self) -> tuple[JointState, ...]:
        return tuple(s for s in self.states if self.is_goal(s))

    def initial_distribution(self) -> dict[JointState, float]:
        total = sum(self.initial_counts.values())
        return {s: c / total for s, c in self.initial_counts.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyAbstraction):
            return NotImplemented
        return (
            self.schema.schema_hash() == other.schema.schema_hash()
            and self.n_agents == other.n_agents
            and self.normalization == other.normalization
            and self.states == other.states
            and self.actions == other.actions
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
# Version 2 lays the model out as its tables: the states as one line of agent
# values, the distinct joint actions one per line, and the transitions as four
# column lines.  Counts are authoritative; no probability is stored.  Version 1
# files, one line per state and per transition, still load.
# ---------------------------------------------------------------------------

_MMDP_FORMAT = "mapex-mmdp"
_MMDP_VERSION = 2


def save_abstraction(m: PolicyAbstraction, path) -> None:
    if m.n_transitions == 0:
        raise PreconditionError("refusing to save an empty abstraction")
    for action in dict.fromkeys(a for joint in m.actions for a in joint):
        if not is_action_id(action):
            raise PreconditionError(f"cannot save action id {action!r}: it must be a "
                                    f"word, with no whitespace and no comma")
    index = m.state_index
    lines = [
        f"{_MMDP_FORMAT} {_MMDP_VERSION}",
        f"schema {m.schema.schema_hash()}",
        f"agents {m.n_agents}",
        f"features {m.schema.n_features}",
        f"normalization {m.normalization}",
        f"initial {index[m.initial_state]}",
        f"init-counts {','.join(f'{index[s]}:{c}' for s, c in m.initial_counts.items())}",
        f"states {m.n_states}",
        ",".join(map(str, chain.from_iterable(m.states))),
        f"actions {len(m.actions)}",
        *map(",".join, m.actions),
        f"transitions {m.n_transitions}",
    ]
    lines += (",".join(map(str, column)) for column in m.columns)
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
        fh.write(f"checksum {digest}\n")


_NUMERALS = re.compile("[0-9,]+")


class _Lines:
    """The lines of an .mmdp file, read once, forward; ``idx`` is the index
    of the line being read, so a fault names line ``idx + 1``."""

    def __init__(self, path, lines: list[str]):
        self.path, self.lines, self.idx = path, lines, 0

    def fail(self, msg: str) -> NoReturn:
        raise AbstractionFormatError(f"{self.path}: {msg}")

    def next(self) -> str:
        self.idx += 1
        return self.lines[self.idx]

    def take(self, key: str) -> str:
        """The value of the next line, which must start with ``key``."""
        name, _, value = self.next().partition(" ")
        if name != key:
            self.fail(f"expected {key!r} on line {self.idx + 1}")
        return value

    def column(self, n: int, size: int | None = None, table: str = "") -> list[int]:
        """The ``n`` comma-separated integers of the next line; with ``size``,
        each must be a row index of the ``table`` table, which has ``size``
        rows."""
        line = self.next()
        try:
            # a line of plain numerals is read in one call; int() reads the rest
            column = json.loads(f"[{line}]") if _NUMERALS.fullmatch(line) else None
        except ValueError:  # an empty entry, or a numeral such as 01
            column = None
        if column is None:
            column = self.ints(line.split(","))
        if len(column) != n:
            self.fail(f"line {self.idx + 1} holds {len(column)} entries, not {n}")
        if size is not None and (min(column) < 0 or max(column) >= size):
            self.outside(column, size, table)
        return column

    def outside(self, column: list[int], size: int, table: str) -> NoReturn:
        """Fails naming the first entry of ``column``, the line being read,
        that is no row index of the ``table`` table, which has ``size`` rows."""
        k = next(k for k, i in enumerate(column) if not 0 <= i < size)
        self.fail(f"{table} index {column[k]} on line {self.idx + 1} entry {k + 1} "
                  f"is outside the {table} table")

    def ints(self, texts: list[str]) -> list[int]:
        """The integers of ``texts``, the comma-separated entries of the line
        being read; the first entry that is no integer fails with its number."""
        try:
            return list(map(int, texts))
        except ValueError:
            for k, text in enumerate(texts):
                try:
                    int(text)
                except ValueError as exc:
                    self.fail(f"malformed line {self.idx + 1} entry {k + 1} "
                              f"(ValueError: {exc})")
            raise

    def action_ids(self, rows: list[str], first: int) -> None:
        """Fails unless every comma-separated id of the action rows ``rows``,
        from line ``first`` on, is an action id (``is_action_id``), checked
        on their text at once: it holds no whitespace and no empty id."""
        text = ",".join(rows)
        if rows and not (text.split() == [text] and ",," not in text
                         and text[0] != "," != text[-1]):
            k, bad = next((k, a) for k, row in enumerate(rows) for a in row.split(",")
                          if not is_action_id(a))
            self.fail(f"action id {bad!r} on line {first + k} must be a word, with no "
                      f"whitespace and no comma")

    def in_order(self, rows: Sequence, what: str, where) -> None:
        """Fails unless every row sorts strictly after the one before it, as
        saved; ``where(k)`` names the place of row k."""
        if not all(map(lt, rows, islice(rows, 1, None))):
            k = next(k for k in range(1, len(rows)) if not rows[k - 1] < rows[k])
            self.fail(f"duplicate {what} {where(k)}" if rows[k - 1] == rows[k]
                      else f"{what} out of order {where(k)}")


Tables = tuple[tuple[JointState, ...], tuple[JointAction, ...], Columns]


def _v1_tables(r: _Lines, n_agents: int, limit: int) -> Tables:
    """The state and action tables and transition columns of a version 1
    file, read row by row."""
    # agent values are bit sets over the schema's features; each text is read once
    value_of: dict[str, int] = {}
    states: list[JointState] = []
    for k in range(int(r.take("states"))):
        num, bits = r.next().split(" ", 1)
        texts = bits.split(",")
        try:
            values, read = tuple(map(value_of.__getitem__, texts)), ()
        except KeyError:
            values = read = tuple(map(int, texts))
        if int(num) != k:
            r.fail(f"state rows out of order at line {r.idx + 1}")
        if read and (min(read) < 0 or max(read) >= limit):
            r.fail(f"state {k} on line {r.idx + 1} has an agent value outside [0, {limit})")
        value_of.update(zip(texts, read))
        states.append(values)
    r.in_order(states, "state rows", lambda k: f"at line {r.idx + 2 - len(states) + k}")
    index_of = dict(zip(map(str, range(len(states))), range(len(states))))

    sources, action_rows, targets, counts = [], [], [], []
    seen: dict[str, int] = {}  # each distinct action text's first-seen number
    for _ in range(int(r.take("transitions"))):
        s_i, action, t_i, count, _prob = r.next().split(" ")
        if (s := index_of.get(s_i)) is None or (t := index_of.get(t_i)) is None:
            r.fail(f"transition {s_i} -> {t_i} on line {r.idx + 1} names a state "
                   f"index outside the state table")
        sources.append(s)
        a = seen.get(action)
        if a is None:
            r.action_ids([action], r.idx + 1)
            a = seen[action] = len(seen)
        action_rows.append(a)
        targets.append(t)
        counts.append(int(count))
    # each first-seen number's row of the sorted table; a text names one tuple
    joint = [tuple(text.split(",")) for text in seen]
    table = tuple(sorted(joint))
    row_of = list(map(dict(zip(table, range(len(table)))).__getitem__, joint))
    action_rows = list(map(row_of.__getitem__, action_rows))
    r.in_order(list(zip(sources, action_rows, targets)), "transition lines",
               lambda k: f"at line {r.idx + 2 - len(sources) + k}")
    return tuple(states), table, (sources, action_rows, targets, counts)


def _v2_tables(r: _Lines, n_agents: int, limit: int) -> Tables:
    """The state and action tables and transition columns of a version 2
    file, kept as read.  Each table is checked whole; only a failed check
    looks for its first bad entry."""
    n_states = int(r.take("states"))
    texts = r.next().split(",")
    line = r.idx + 1
    if len(texts) != n_states * n_agents:
        r.fail(f"line {line} holds {len(texts)} agent values, not {n_states} states "
               f"of {n_agents} agents")
    # agent values are bit sets over the schema's features, and few: each
    # distinct text is read and range-checked once
    try:
        value_of = {text: int(text) for text in {*texts}}
    except ValueError:  # the first malformed entry fails with its number
        value_of = dict(zip(texts, r.ints(texts)))
    if min(value_of.values()) < 0 or max(value_of.values()) >= limit:
        k = next(k for k, text in enumerate(texts) if not 0 <= value_of[text] < limit)
        r.fail(f"state {k // n_agents} on line {line} entry {k + 1} has an agent value "
               f"outside [0, {limit})")
    states = tuple(zip(*[map(value_of.__getitem__, texts)] * n_agents))
    r.in_order(states, "state", lambda k: f"on line {line} entry {k * n_agents + 1}")

    n_actions = int(r.take("actions"))
    first = r.idx + 2  # the line number of action row 0
    rows = r.lines[r.idx + 1:r.idx + 1 + max(n_actions, 0)]
    r.idx += len(rows)
    r.action_ids(rows, first)
    table = tuple(tuple(row.split(",")) for row in rows)
    r.in_order(table, "action row", lambda k: f"at line {first + k}")

    n = int(r.take("transitions"))
    sources = r.column(n, n_states, "state")
    action_index = r.column(n)
    # the distinct action indices are the table's row numbers exactly when
    # each lies in the table and each row is used
    used = {*action_index}
    if min(used) < 0 or max(used) >= len(table):
        r.outside(action_index, len(table), "action")
    targets = r.column(n, n_states, "state")
    counts = r.column(n)
    r.in_order(list(zip(sources, action_index, targets)), "transition",
               lambda k: f"at entry {k + 1} of lines {r.idx - 2}-{r.idx}")
    if len(used) != len(table):
        k = min({*range(len(table))} - used)
        r.fail(f"action row on line {first + k} is used by no transition")
    return states, table, (sources, action_index, targets, counts)


def load_abstraction(path, schema: FeatureSchema) -> PolicyAbstraction:
    """The model saved at ``path``, in either version, read into its
    tables.  A bad row or entry fails with its line number."""
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
    # the checksum line last, so a table overrun reads it
    r = _Lines(path, raw.splitlines())
    header = r.lines[0].split()
    if len(header) != 2 or header[0] != _MMDP_FORMAT:
        r.fail("not a mapex-mmdp file")
    tables = {"1": _v1_tables, "2": _v2_tables}.get(header[1])
    if tables is None:
        r.fail(f"unsupported version {header[1]}")

    try:
        schema_hash = r.take("schema")
        if schema_hash != schema.schema_hash():
            raise SchemaMismatchError(
                f"{path}: abstraction was built against schema {schema_hash}, "
                f"not the supplied schema {schema.schema_hash()}"
            )
        n_agents = int(r.take("agents"))
        if int(r.take("features")) != schema.n_features:
            r.fail("feature count disagrees with the supplied schema")
        normalization = r.take("normalization")
        initial = r.take("initial")
        init_counts = [(s_i, int(c)) for s_i, c in
                       (part.split(":") for part in r.take("init-counts").split(","))]
        r.in_order([int(s_i) for s_i, _ in init_counts], "init-counts entries",
                   lambda k: f"at line {r.idx + 1}")
        states, actions, columns = tables(r, n_agents, 1 << schema.n_features)
        if r.idx != len(r.lines) - 2:
            r.fail(f"unexpected line {r.idx + 2} after the transition table")
    except (ValueError, IndexError) as exc:
        r.fail(f"malformed line {r.idx + 1} ({type(exc).__name__}: {exc})")

    def state(text: str, line: int) -> int:
        # a state index as saved: the plain numeral of a row of the state table
        k = int(text) if text.isascii() and text.isdigit() and len(text) < 20 else -1
        if not 0 <= k < len(states) or str(k) != text:
            r.fail(f"state index {text} on line {line} is outside the state table")
        return k

    # the header's state indices (lines 6 and 7), now that the state table is read
    initial_state = states[state(initial, 6)]
    counted = {state(s_i, 7): c for s_i, c in init_counts}
    m = PolicyAbstraction.__new__(PolicyAbstraction)
    m._setup(schema, n_agents, states, actions, columns, initial_state, normalization,
             {states[i]: c for i, c in counted.items()})
    # saved files list only the states the model names
    named = {*columns[0], *columns[2], *counted}
    if len(named) != len(states):
        k = next(k for k in range(len(states)) if k not in named)
        where = f"line {9 + k}" if tables is _v1_tables else f"line 9 entry {k * n_agents + 1}"
        r.fail(f"state {k} on {where} is named by no transition or initial count")
    return m
