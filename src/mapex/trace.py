"""Trace files, in one module: the sample, the shared agent record, the
writer, the reader and the per-schema encoding of a joint state.

Writing: each simulator record's JSON text is made once, when first written,
and ``write_trace`` joins those texts; it encodes every other record per sample.

Reading: one ``iter_trace`` (or ``read_trace``) call hands out one shared
record per distinct agent-record text of the writer's layout, and two calls
share none; lines in any other layout give plain dicts.  Shared records, the
simulator's and the reader's, must not be mutated: ``state_encoder`` encodes
each once per schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from .domain import FeatureSchema, JointState, encode_agent_state, is_action_id
from .errors import TraceFormatError

_TRACE_FORMAT = "mapex-trace"
_TRACE_VERSION = 1
_encode = json.JSONEncoder(separators=(",", ":")).encode  # the trace layout
_scan = json.JSONDecoder().raw_decode
_ACTION, _NEXT = ',"action":', ',"next_state":'  # the writer's text before each
# The most agent records one reader call keeps by text; it clears them when
# full, which changes no output.  A built-in trace holds at most 360 distinct
# records (sr5 at 1000 episodes; 256 would clear it 27 times), and 512
# decoded records of ~1 KB each keep the table near 0.5 MB, whatever the
# trace length, when no record repeats.
_RECORD_TABLE_SIZE = 512


@dataclass(frozen=True)
class TraceSample:
    """One observed policy decision: (state, joint action, next state)."""

    episode_id: int
    step: int
    joint_concrete_state: tuple[Mapping[str, Any], ...]
    joint_action: tuple[str, ...]
    next_joint_concrete_state: tuple[Mapping[str, Any], ...]


class Record(dict):
    """A shared agent record that nothing changes once made: ``text`` is its
    canonical JSON text, made on first use, and ``encoded`` the (schema, bits)
    of its last encoding, which ``state_encoder`` reuses for that schema."""

    __slots__ = ("text", "encoded")

    def __init__(self, fields: Mapping[str, Any]):
        super().__init__(fields)  # a mapping, not **fields: a key may be "self"
        self.encoded = (None, 0)

    def __getattr__(self, name: str) -> str:
        # reached only while a slot is unset: the text is made on first use,
        # and from then on read from its slot
        if name != "text":
            raise AttributeError(name)
        self.text = text = _encode(self)
        return text

    def __reduce__(self):
        # a copy or a pickle is a caller's plain dict, without the cached bits
        return dict, (dict(self),)


def state_encoder(schema: FeatureSchema) -> Callable[[Iterable], JointState]:
    """``schema``'s joint-state encoder: a shared record is encoded once per schema."""

    def encode(records) -> JointState:
        bits = []
        for rec in records:
            if type(rec) is not Record:
                bits.append(encode_agent_state(rec, schema))
            elif (done := rec.encoded)[0] is schema:
                bits.append(done[1])
            else:
                rec.encoded = schema, (b := encode_agent_state(rec, schema))
                bits.append(b)
        return tuple(bits)

    return encode


def write_trace(path, domain_id: str, n_agents: int,
                samples: Iterable[TraceSample]) -> int:
    """Write samples as line-delimited JSON under a version header; returns count.

    Each joint state is encoded once: a sample whose state is the previous
    sample's next state (the same object, as the simulator hands it on)
    reuses that text.  A record the simulator made, one per (cell, liveness,
    flags) in a run, brings its own text, made once; every other record is
    encoded per sample, so a caller may change its dicts between samples.
    A joint action of exact ``str`` items is encoded once per call: equal
    tuples of other items, such as (1,) and (1.0,), encode apart.
    """
    n, action_texts = 0, {}
    with open(path, "w", encoding="utf-8") as fh:
        header = {"format": _TRACE_FORMAT, "version": _TRACE_VERSION,
                  "domain": domain_id, "agents": n_agents}
        fh.write(_encode(header) + "\n")
        previous_next, next_text = object(), ""  # object(): no sample's state is it
        for s in samples:
            state = s.joint_concrete_state
            state_text = next_text if state is previous_next else _encode(state)
            nxt = previous_next = s.next_joint_concrete_state
            next_text = ("[" + ",".join(r.text if type(r) is Record else _encode(r)
                                        for r in nxt) + "]"
                         if type(nxt) is tuple else _encode(nxt))
            action = s.joint_action
            if type(action) is not tuple or not all(type(a) is str for a in action):
                action_text = _encode(action)
            elif (action_text := action_texts.get(action)) is None:
                action_text = action_texts[action] = _encode(action)
            episode, step = s.episode_id, s.step
            fh.write(f'{{"episode":{str(episode) if type(episode) is int else _encode(episode)},'
                     f'"step":{str(step) if type(step) is int else _encode(step)},'
                     f'"state":{state_text}{_ACTION}{action_text}{_NEXT}{next_text}}}\n')
            n += 1
    return n


def read_trace(path) -> tuple[dict[str, Any], list[TraceSample]]:
    """The header and every sample of a trace file, read by ``iter_trace``."""
    samples = iter_trace(path)
    return next(samples), list(samples)


def iter_trace(path) -> Iterator[Any]:
    """Read a trace file in one forward pass: yield its checked header, then
    each sample once its line is checked, so the first fault in file order is
    the one raised.  Steps run from 0 within each episode, each state must
    equal its episode's previous next_state (and is handed on as that object),
    and state, action and next_state hold one entry per agent of the header.
    Both decodes (``_compact``, else ``json.loads``) feed one check block,
    so a fault gives the same error whatever the record's layout."""
    with open(path, "r", encoding="utf-8") as fh:
        # splitting each line again keeps str.splitlines' line ends and numbers
        lines = enumerate((part for line in fh for part in line.splitlines()), start=1)
        if (first := next(lines, (1, None))[1]) is None:
            raise TraceFormatError(f"{path}: empty trace file")
        try:
            header = json.loads(first)
        except (ValueError, RecursionError) as exc:  # bad JSON, big ints, deep nesting
            raise TraceFormatError(f"{path}: bad header: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != _TRACE_FORMAT:
            raise TraceFormatError(f"{path}: missing mapex-trace header")
        # True == 1 and 3.0 == 3, so the types are checked too
        version, agents = header.get("version"), header.get("agents")
        if type(version) is not int or version != _TRACE_VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version!r}")
        if type(agents) is not int:
            raise TraceFormatError(f"{path}: agents must be an integer, got {agents!r}")
        yield header

        def bad(what: str) -> TraceFormatError:
            return TraceFormatError(f"{path}:{lineno}: {what}")

        last: dict[int, tuple[int, Any]] = {}  # episode -> (its next step, last next_state)
        nxt = nxt_text = None  # the last next_state, and its text if read compact
        records: dict[str, Record] = {}  # this call's agent records, by their text
        for lineno, line in lines:
            if compact := _compact(line, records, nxt_text, nxt):
                rec, nxt_text = compact
            elif not line.strip():
                continue
            else:
                try:
                    rec = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise bad(f"bad record: {exc}") from None
                nxt_text = None
            try:
                episode, step = rec["episode"], rec["step"]
                state, action, nxt = (
                    tuple(rec["state"]), tuple(rec["action"]), tuple(rec["next_state"]))
            except (KeyError, TypeError):
                raise bad("record missing fields") from None
            if type(episode) is not int or type(step) is not int:
                raise bad("episode and step must be integers")
            if type(rec["action"]) is not list or not all(map(is_action_id, action)):
                raise bad("action must be a list of strings without commas or spaces")
            if not len(state) == len(action) == len(nxt) == agents:
                raise bad(f"state, action and next_state must hold {agents} agents, "
                          f"as the header says")
            want, previous = last.get(episode, (0, None))
            if step != want:
                raise bad(f"episode {episode} step {step}, expected {want}")
            if step > 0 and previous != state:
                raise bad(f"episode {episode} state at step {step} does not chain "
                          f"from the previous next_state")
            # hand on the previous next_state itself, so it is encoded once
            state = previous if step else state
            last[episode] = step + 1, nxt
            yield TraceSample(episode, step, state, action, nxt)


def _compact(line: str, records: dict[str, Record], state_text: str | None, state):
    """(record, next_state's text) as decoded from a line in the writer's
    layout, else None.  A state whose text is ``state_text`` is ``state``
    itself; each other agent list is read by ``_agents``.  It checks nothing:
    its result meets the checks a full decode's meets."""
    try:
        episode, i = _scan(line, _after(line, '{"episode":', 0))
        step, i = _scan(line, _after(line, ',"step":', i))
        i = _after(line, ',"state":', i)
        if state_text is not None and line.startswith(state_text, i):
            i += len(state_text)
        else:
            state, i = _agents(line, i, line.find(_ACTION, i) - 1, records)
        action, i = _scan(line, _after(line, _ACTION, i))
        at = _after(line, _NEXT, i)
        nxt, end = _agents(line, at, len(line) - 2, records)
    except (ValueError, RecursionError):
        return None
    if line[end:] != "}":
        return None
    return ({"episode": episode, "step": step, "state": state, "action": action,
             "next_state": nxt}, line[at:end])


def _after(line: str, text: str, at: int) -> int:
    """Where ``text``, which must start at ``at``, ends."""
    if not line.startswith(text, at):
        raise ValueError(text)
    return at + len(text)


def _agents(line: str, at: int, stop: int, records: dict[str, Record]):
    """(the agent list at ``at``, where it ends).  Each record's text ends at
    the next "},{", else at ``stop`` (where the writer's layout ends the last
    one), and is looked up in ``records``; only a text not there is decoded,
    and a dict decoded joins them as a shared ``Record``.  A hit is sound
    however its end was found: its text decoded once as one whole object, and
    an object's end is unique, so it decodes alike at any position."""
    items, end = [], _after(line, "[", at)
    while True:
        end = line.find("},{", start := end, stop) + 1 or stop
        if (rec := records.get(line[start:end])) is None:
            value, end = _scan(line, start)
            if type(value) is not dict:  # any other agent entry stays as decoded
                rec = value
            elif (rec := records.get(text := line[start:end])) is None:
                if len(records) >= _RECORD_TABLE_SIZE:
                    records.clear()
                rec = records[text] = Record(value)
        items.append(rec)
        if not line.startswith(",", end):
            return items, _after(line, "]", end)
        end += 1
