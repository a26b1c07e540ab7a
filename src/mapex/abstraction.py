"""Builds the joint-state abstraction of an observed policy from trajectory
samples: abstract each sample through the feature schema, accumulate
transition counts, and normalize to probabilities.

Normalization: with ``normalization="state"`` (the default) a transition's
probability is its count divided by the total outgoing samples of its source
state, so the product of edge probabilities along a path equals the empirical
probability of that action-labeled trajectory.  ``"state-action"`` divides by
the (state, action) count instead.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, groupby, islice
from operator import attrgetter, itemgetter, lt, or_
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


_ACTION = attrgetter("action")
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
    enables ``actions[k]``; both come from the one pass over the states that
    builds ``enabled``.  A mask over action positions selects joint actions:
    ``requirement`` selects those meeting one (agent index, action)
    requirement, derived the first time a query asks for it and then
    memoised, and ``every_action`` selects all.  ``enabled_by`` turns a
    selection into the mask of the states enabling any of it; ``enabling``
    masks the states with any enabled action.  Minterms and what answers
    come from the model's per-(agent, feature) ``state_mask`` instead.
    """

    def __init__(self, states: tuple[JointState, ...],
                 out_edges: Mapping[JointState, tuple[Transition, ...]]):
        enabled: dict[JointState, tuple[JointAction, ...]] = {}
        masks: dict[JointAction, int] = {}
        enabling = 0
        for j, s in enumerate(states):
            actions = enabled[s] = tuple(dict.fromkeys(map(_ACTION, out_edges[s])))
            if actions:
                bit = 1 << j
                enabling |= bit
                for a in actions:
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


class PolicyAbstraction:
    """Immutable-after-build abstraction: states, actions, counted transitions.

    Every stored transition was witnessed by at least one sample (counts are
    always >= 1) and the probabilities out of each source state sum to one.
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
        if normalization not in NORMALIZATIONS:
            raise PreconditionError(f"unknown normalization {normalization!r}")
        if not transition_counts:
            raise PreconditionError("abstraction needs at least one transition")
        self.schema = schema
        self.n_agents = n_agents
        # a goal state has every task-completion bit set in some agent
        self._goal_mask = 0
        for pred_id in schema.task_completion_ids:
            self._goal_mask |= 1 << schema.index_of(pred_id)
        self.normalization = normalization
        self.initial_state = initial_state
        self.initial_counts = dict(initial_counts or {initial_state: 1})
        if initial_state not in self.initial_counts:
            raise PreconditionError(f"initial state {initial_state} has no initial count")
        for s, c in self.initial_counts.items():
            if c < 1:
                raise PreconditionError(f"initial count {c} < 1 for {s}")

        # one pass over the ((source, action, target), count) items in canonical
        # order, grouped by probability denominator (the source, or the source and
        # action); counts out of that order (a build's, not a load's) are sorted
        # first.  Soundness checks are explicit raises, so they also run under python -O
        in_order = all(map(lt, transition_counts, islice(transition_counts, 1, None)))
        self.counts = dict(transition_counts if in_order else sorted(transition_counts.items()))
        edges: dict[JointState, list[Transition]] = {}
        denominator = ((lambda item: item[0][0]) if normalization == "state"
                       else (lambda item: item[0][:2]))
        for key, group in groupby(self.counts.items(), denominator):
            group = list(group)
            total = 0
            for (s, a, t), c in group:
                if c < 1:
                    raise PreconditionError(f"transition count {c} < 1 for {(s, a, t)}")
                if len(s) != n_agents or len(t) != n_agents or len(a) != n_agents:
                    raise SchemaMismatchError(f"transition arity mismatch for "
                                              f"{(s, a, t)}; expected {n_agents}")
                total += c
            out = edges.setdefault(s, [])
            mass = 0.0
            for (s, a, t), c in group:
                out.append(edge := Transition(s, a, t, c, c / total))
                mass += edge.probability
            if not math.isclose(mass, 1.0, abs_tol=_PROB_TOLERANCE):
                raise AssertionError(f"outgoing probability mass {mass} != 1 for {key}")

        # canonical ordering by agent-major bit values; the sources come in order
        others = {*self.initial_counts, *map(itemgetter(2), self.counts)}.difference(edges)
        self.states: tuple[JointState, ...] = tuple(sorted([*edges, *others]))
        max_states = (1 << schema.n_features) ** n_agents
        if len(self.states) > max_states:
            raise AssertionError(f"state count {len(self.states)} exceeds the "
                                 f"2^|F|^N bound {max_states}")
        self.state_index: dict[JointState, int] = {s: i for i, s in enumerate(self.states)}
        self.out_edges: dict[JointState, tuple[Transition, ...]] = dict.fromkeys(
            self.state_index, ())
        self.out_edges.update(zip(edges, map(tuple, edges.values())))
        self._state_masks: dict[tuple[int, int], int] = {}

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.counts)

    @cached_property
    def query_index(self) -> QueryIndex:
        """The model's query index, built on first use, so building, loading
        and summarizing a model never pay for it."""
        return QueryIndex(self.states, self.out_edges)

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
            and self.counts == other.counts
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
    for action in dict.fromkeys(a for _, joint, _ in m.counts for a in joint):
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
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines or not lines[-1].startswith("checksum "):
        raise AbstractionFormatError(f"{path}: missing checksum line")
    body = "\n".join(lines[:-1]) + "\n"
    expected = lines[-1].split(" ", 1)[1].strip()
    actual = hashlib.sha256(body.encode()).hexdigest()
    if actual != expected:
        raise AbstractionFormatError(f"{path}: checksum mismatch (file corrupted?)")

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
        by_index = {str(i): s for i, s in enumerate(states)}

        actions: dict[str, JointAction] = {}  # one tuple per action text
        counts = {}
        key = ()
        for _ in range(int(take("transitions"))):
            idx += 1
            s_i, action, t_i, count, _prob = lines[idx].split(" ")
            if (s := by_index.get(s_i)) is None or (t := by_index.get(t_i)) is None:
                fail(f"transition {s_i} -> {t_i} on line {idx + 1} names a state "
                     f"index outside the state table")
            a = actions.get(action) or actions.setdefault(action, tuple(action.split(",")))
            row = (s, a, t)
            key = row if row > key else ordered(key, row, "transition lines")
            counts[key] = int(count)
        if idx != len(lines) - 2:
            fail(f"unexpected line {idx + 2} after the transition table")
    except (ValueError, IndexError) as exc:
        fail(f"malformed line {idx + 1} ({type(exc).__name__}: {exc})")

    def state(text: str, line: int) -> JointState:
        if text not in by_index:
            fail(f"state index {text} on line {line} is outside the state table")
        return by_index[text]

    # the header's state indices (lines 6 and 7), now that the state table is read
    m = PolicyAbstraction(schema, n_agents, counts, state(initial, 6),
                          normalization=normalization,
                          initial_counts={state(s_i, 7): c for s_i, c in init_counts})
    if m.n_states != len(states):  # saved files list only the states the model names
        k = next(k for k, s in enumerate(states) if s not in m.state_index)
        fail(f"state {k} on line {9 + k} is named by no transition or initial count")
    return m
