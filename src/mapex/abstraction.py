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
from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .domain import FeatureSchema, JointAction, JointState, encode_joint_state
from .envs.base import TraceSample
from .errors import (
    AbstractionFormatError,
    MultipleInitialStatesError,
    PreconditionError,
    SchemaMismatchError,
    TraceFormatError,
)

_PROB_TOLERANCE = 1e-9

NORMALIZATIONS = ("state", "state-action")


@dataclass(frozen=True)
class Transition:
    source: JointState
    action: JointAction
    target: JointState
    count: int
    probability: float


_ACTION = attrgetter("action")
# bin() digits '0'/'1' -> bytes 0/1, so a reversed bin() string selects items
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _select(items: Sequence, mask: int) -> Iterator:
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
    masks the states with any enabled action.
    """

    def __init__(self, states: tuple[JointState, ...],
                 out_edges: Mapping[JointState, tuple[Transition, ...]]):
        self.states = states
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
        for mask in _select(self.state_masks, actions):
            states |= mask
        return states

    def states_of(self, mask: int) -> frozenset[JointState]:
        return frozenset(_select(self.states, mask))


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
        for (s, a, t), c in transition_counts.items():
            if c < 1:
                raise PreconditionError(f"transition count {c} < 1 for {(s, a, t)}")
            if len(s) != n_agents or len(t) != n_agents or len(a) != n_agents:
                raise SchemaMismatchError(
                    f"transition arity mismatch for {(s, a, t)}; expected {n_agents}"
                )
        self.schema = schema
        self.n_agents = n_agents
        self.normalization = normalization
        self.counts = dict(transition_counts)
        self.initial_state = initial_state
        self.initial_counts = dict(initial_counts or {initial_state: 1})

        state_set = {initial_state}
        for s, _, t in self.counts:
            state_set.add(s)
            state_set.add(t)
        state_set.update(self.initial_counts)
        # canonical ordering: sorted by agent-major bit values
        self.states: tuple[JointState, ...] = tuple(sorted(state_set))
        self.state_index: dict[JointState, int] = {
            s: i for i, s in enumerate(self.states)
        }

        # a probability divides by the count out of its source state, or out
        # of its source state and action
        by_state = normalization == "state"
        totals: Counter = Counter()
        for (s, a, _), c in self.counts.items():
            totals[s if by_state else (s, a)] += c
        edges: dict[JointState, list[Transition]] = {s: [] for s in self.states}
        for (s, a, t), c in sorted(self.counts.items()):
            total = totals[s if by_state else (s, a)]
            edges[s].append(Transition(s, a, t, c, c / total))
        self.out_edges: dict[JointState, tuple[Transition, ...]] = {
            s: tuple(es) for s, es in edges.items()
        }

        # soundness checks: explicit raises, so they also run under python -O
        max_states = (1 << schema.n_features) ** n_agents
        if len(self.states) > max_states:
            raise AssertionError(
                f"state count {len(self.states)} exceeds the 2^|F|^N bound {max_states}"
            )
        mass: Counter = Counter()
        for s, es in self.out_edges.items():
            for e in es:
                mass[s if by_state else (s, e.action)] += e.probability
        for key, total in mass.items():
            if not math.isclose(total, 1.0, abs_tol=_PROB_TOLERANCE):
                raise AssertionError(
                    f"outgoing probability mass {total} != 1 for {key}"
                )

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.counts)

    @property
    def has_virtual_init(self) -> bool:
        return len(self.initial_counts) > 1

    @cached_property
    def query_index(self) -> QueryIndex:
        """The model's query index, built on first use, so building, loading
        and summarizing a model never pay for it."""
        return QueryIndex(self.states, self.out_edges)

    def enabled_actions(self, state: JointState) -> tuple[JointAction, ...]:
        """The state's distinct enabled joint actions, in first-seen order."""
        return self.query_index.enabled.get(state, ())

    def is_goal(self, state: JointState) -> bool:
        for pred_id in self.schema.task_completion_ids:
            i = self.schema.index_of(pred_id)
            if not any(bits >> i & 1 for bits in state):
                return False
        return True

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
    other transition.
    """
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
                source = encode_joint_state(sample.joint_concrete_state, schema)
            previous_next = sample.next_joint_concrete_state
            target = encode_joint_state(previous_next, schema)
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
    if not counts or first_initial is None or n_agents is None:
        raise PreconditionError("cannot build an abstraction from an empty sample stream")
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

    idx = 1
    try:
        fields = {}
        for key in ("schema", "agents", "features", "normalization", "initial",
                    "init-counts", "states"):
            parts = lines[idx].split(" ", 1)
            if parts[0] != key:
                fail(f"expected {key!r} on line {idx + 1}")
            fields[key] = parts[1] if len(parts) > 1 else ""
            idx += 1

        if fields["schema"] != schema.schema_hash():
            raise SchemaMismatchError(
                f"{path}: abstraction was built against schema {fields['schema']}, "
                f"not the supplied schema {schema.schema_hash()}"
            )
        n_agents = int(fields["agents"])
        if int(fields["features"]) != schema.n_features:
            fail("feature count disagrees with the supplied schema")

        n_states = int(fields["states"])
        states: list[JointState] = []
        for k in range(n_states):
            num, bits = lines[idx].split(" ", 1)
            if int(num) != k:
                fail(f"state table out of order at line {idx + 1}")
            states.append(tuple(int(b) for b in bits.split(",")))
            idx += 1

        by_index = {str(i): s for i, s in enumerate(states)}

        def state(text: str) -> JointState:
            if text not in by_index:
                fail(f"state index {text} on line {idx + 1} is outside the state table")
            return by_index[text]

        head = lines[idx].split()
        if head[0] != "transitions":
            fail("missing transitions header")
        n_transitions = int(head[1])
        idx += 1
        counts = {}
        for _ in range(n_transitions):
            s_i, action, t_i, count, _prob = lines[idx].split(" ")
            if s_i not in by_index or t_i not in by_index:
                fail(f"transition {s_i} -> {t_i} on line {idx + 1} names a state "
                     f"index outside the state table")
            key = (by_index[s_i], tuple(action.split(",")), by_index[t_i])
            counts[key] = int(count)
            idx += 1
        if len(counts) < n_transitions:
            fail("duplicate transition lines")
        if idx != len(lines) - 1:
            fail(f"unexpected line {idx + 1} after the transition table")

        idx = 5  # back to the header's initial and init-counts lines
        initial = state(fields["initial"])
        idx = 6
        initial_counts = {}
        for part in fields["init-counts"].split(","):
            s_i, c = part.split(":")
            initial_counts[state(s_i)] = int(c)
    except (ValueError, IndexError) as exc:
        fail(f"malformed line {idx + 1} ({type(exc).__name__}: {exc})")

    return PolicyAbstraction(
        schema,
        n_agents,
        counts,
        initial,
        normalization=fields["normalization"],
        initial_counts=initial_counts,
    )
