"""Grid-world plumbing shared by the built-in domains: trace records, trace
file I/O, the domain builder every grid family uses, and one episode loop
that runs any scripted policy.

Conventions: movement is 4-neighbor, one cell per step; task detection and
task eligibility use Chebyshev adjacency (distance exactly 1); agents may
share cells; a task's cell blocks movement while the task is alive and
becomes passable once completed.  Completion of a task requires every member
of one of its declared combos to be adjacent and to take the task's action at
the same step; completion flags are set only for that combo's members and,
once set, never fall within an episode.

A family states each task's combos once, in its ``GridConfig``: the world
enforces them, and ``grid_domain`` reads the alphabets and the relevance
knowledge off them.  ``run_episodes`` runs every policy: one with a
``config``, ``agent_names``, ``assign(rng)`` (once per episode) and
``step(world, assigned, rng)`` -> (joint action, each agent's next cell).

Routing: ``GridWorld`` takes the open cells and a per-cell neighbour table for
the current task liveness from a memo shared by every world of its config, and
memoises one breadth-first parent tree per start cell (``bfs_tree``); agents
that share a cell share its tree.  A world changes tables and drops its trees
only when ``resolve`` completes a task, the one event that changes which cells
are passable.  The scripted policy answers both staging reachability and its
first move (``first_move``) from the tree of the agent's cell, so each agent
costs at most one BFS per step.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..domain import (
    ActionPhrases,
    AgentSpec,
    DomainDefinition,
    FeatureSchema,
    PredicateSpec,
    RelevanceEntry,
    RelevanceKnowledge,
)
from ..errors import PreconditionError, TraceFormatError

Cell = tuple[int, int]

MOVE = "move"
WAIT = "wait"
_PLAIN_PHRASES = {MOVE: ActionPhrases("move", "moves"),
                  WAIT: ActionPhrases("wait", "waits")}

_TRACE_FORMAT = "mapex-trace"
_TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceSample:
    """One observed policy decision: (state, joint action, next state)."""

    episode_id: int
    step: int
    joint_concrete_state: tuple[Mapping[str, Any], ...]
    joint_action: tuple[str, ...]
    next_joint_concrete_state: tuple[Mapping[str, Any], ...]


def write_trace(path, domain_id: str, n_agents: int,
                samples: Iterable[TraceSample]) -> int:
    """Write samples as line-delimited JSON under a version header; returns count.

    A sample whose state is the previous sample's next state (the same
    object, as the simulator hands it on) reuses that state's JSON text, so
    each joint state is encoded once.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        header = {"format": _TRACE_FORMAT, "version": _TRACE_VERSION,
                  "domain": domain_id, "agents": n_agents}
        fh.write(encode(header) + "\n")
        previous_next, next_text = object(), ""  # object(): no sample's state is it
        for s in samples:
            state = s.joint_concrete_state
            state_text = next_text if state is previous_next else encode(state)
            previous_next = s.next_joint_concrete_state
            next_text = encode(previous_next)
            fh.write(f'{{"episode":{encode(s.episode_id)},"step":{encode(s.step)},'
                     f'"state":{state_text},"action":{encode(s.joint_action)},'
                     f'"next_state":{next_text}}}\n')
            n += 1
    return n


def read_trace(path) -> tuple[dict[str, Any], list[TraceSample]]:
    """Read a trace file; validates the header and per-episode step chaining."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: bad header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != _TRACE_FORMAT:
        raise TraceFormatError(f"{path}: missing mapex-trace header")
    if header.get("version") != _TRACE_VERSION:
        raise TraceFormatError(f"{path}: unsupported version {header.get('version')!r}")

    samples: list[TraceSample] = []
    expected: dict[int, int] = {}
    last_next: dict[int, Any] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}:{lineno}: bad record: {exc}") from None
        try:
            episode, step = rec["episode"], rec["step"]
            state, action, nxt = (
                tuple(rec["state"]), tuple(rec["action"]), tuple(rec["next_state"]))
        except (KeyError, TypeError):
            raise TraceFormatError(f"{path}:{lineno}: record missing fields") from None
        if type(episode) is not int or type(step) is not int:
            raise TraceFormatError(f"{path}:{lineno}: episode and step must be integers")
        if step != expected.get(episode, 0):
            raise TraceFormatError(
                f"{path}:{lineno}: episode {episode} step {step}, "
                f"expected {expected.get(episode, 0)}"
            )
        if step > 0:
            if last_next[episode] != state:
                raise TraceFormatError(
                    f"{path}:{lineno}: episode {episode} state at step {step} does "
                    f"not chain from the previous next_state"
                )
            # hand on the previous next_state itself, so it is encoded once
            state = last_next[episode]
        expected[episode] = step + 1
        last_next[episode] = nxt
        samples.append(TraceSample(episode, step, state, action, nxt))
    return header, samples


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass(frozen=True)
class TaskSpec:
    """A cooperative task pinned to one grid cell."""

    id: str
    cell: Cell
    action: str
    combos: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class GridConfig:
    """Static geometry of a grid domain plus its task list (declared order)."""

    rows: int
    cols: int
    walls: frozenset[Cell]
    starts: tuple[Cell, ...]
    tasks: tuple[TaskSpec, ...]


def _detect_evaluator(task_id: str):
    def evaluate(rec):
        t = rec["tasks"][task_id]
        return t["present"] and chebyshev(tuple(rec["pos"]), tuple(t["pos"])) == 1

    return evaluate


def _complete_evaluator(task_id: str):
    def evaluate(rec):
        return rec["done"][task_id]

    return evaluate


def grid_task_schema(task_phrasing) -> FeatureSchema:
    """detect/complete predicate pair per task, in task declaration order.

    ``task_phrasing`` is a sequence of (task_id, noun, done_phrase) triples,
    e.g. ("victim", "the victim", "rescued the victim").
    """
    predicates = []
    for task_id, noun, done in task_phrasing:
        predicates.append(
            PredicateSpec(
                id=f"{task_id}_detect",
                positive=f"detects {noun}",
                negative=f"does not detect {noun}",
                positive_plural=f"detect {noun}",
                negative_plural=f"do not detect {noun}",
                label=task_id,
                evaluator=_detect_evaluator(task_id),
            )
        )
        predicates.append(
            PredicateSpec(
                id=f"{task_id}_complete",
                positive=f"has {done}",
                negative=f"has not {done}",
                positive_plural=f"have {done}",
                negative_plural=f"have not {done}",
                label=task_id,
                evaluator=_complete_evaluator(task_id),
            )
        )
    return FeatureSchema(
        predicates=tuple(predicates),
        task_completion_ids=tuple(t[0] + "_complete" for t in task_phrasing),
    )


def grid_domain(domain_id: str, agent_names: Sequence[str], config: GridConfig,
                task_phrasing, verb_phrases: Mapping[str, ActionPhrases]
                ) -> DomainDefinition:
    """The definition of a grid domain, read off its task list.

    ``task_phrasing`` goes to ``grid_task_schema``; ``verb_phrases`` maps each
    task action to its phrases, in the order the agents' alphabets list them.
    An agent takes a task's action when some combo of the task names it: its
    relevance entry lists those combos, names their agents, and holds the
    task's detect/complete features.  Every alphabet ends with move and wait,
    each relevant to its agent alone.
    """
    entries = {}
    for task in config.tasks:
        features = frozenset({f"{task.id}_detect", f"{task.id}_complete"})
        for name in agent_names:
            combos = [c for c in task.combos if name in c]
            if combos:
                entries[(name, task.action)] = RelevanceEntry(
                    frozenset(m for c in combos for m in c), features,
                    tuple(frozenset((m, task.action) for m in c) for c in combos))
    agents = []
    for name in agent_names:
        verbs = [v for v in verb_phrases if (name, v) in entries]
        agents.append(AgentSpec(name, (*verbs, MOVE, WAIT)))
        for plain in (MOVE, WAIT):
            entries[(name, plain)] = RelevanceEntry(
                frozenset({name}), frozenset(), (frozenset({(name, plain)}),))
    return DomainDefinition(
        id=domain_id,
        agents=tuple(agents),
        schema=grid_task_schema(task_phrasing),
        action_phrases={**verb_phrases, **_PLAIN_PHRASES},
        relevance=RelevanceKnowledge(entries),
    )


@cache
def _open_cells(config: GridConfig, live: tuple[str, ...]
                ) -> tuple[frozenset[Cell], dict[Cell, tuple[Cell, ...]]]:
    """The open cells and every cell's open 4-neighbours while exactly the
    ``live`` tasks block their cells.  Memoised for the life of the process,
    one entry per liveness a config's episodes reach, and shared by all its
    worlds, so nothing may mutate them."""
    blocked = config.walls | {t.cell for t in config.tasks if t.id in live}
    cells = [(r, c) for r in range(config.rows) for c in range(config.cols)]
    open_cells = frozenset(x for x in cells if x not in blocked)
    # neighbour order is sorted(): (r-1, c), (r, c-1), (r, c+1), (r+1, c)
    neighbors = {
        (r, c): tuple(x for x in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
                      if x in open_cells)
        for r, c in cells
    }
    return open_cells, neighbors


class GridWorld:
    """Mutable episode state: agent positions, task liveness, completion flags."""

    def __init__(self, config: GridConfig, agent_names: Sequence[str]):
        self.config = config
        self.agent_names = tuple(agent_names)
        self.positions: list[Cell] = list(config.starts)
        self.alive: dict[str, bool] = {t.id: True for t in config.tasks}
        self.done: list[dict[str, bool]] = [
            {t.id: False for t in config.tasks} for _ in agent_names
        ]
        self._refresh()

    def _refresh(self) -> None:
        """Take the open-cell set and the neighbour table for the current
        task liveness, and drop every cached BFS tree."""
        live = tuple(t.id for t in self.config.tasks if self.alive[t.id])
        self._open, self._neighbors = _open_cells(self.config, live)
        self._trees: dict[Cell, dict[Cell, Cell]] = {}

    def passable(self, cell: Cell) -> bool:
        return cell in self._open

    def neighbors(self, cell: Cell) -> tuple[Cell, ...]:
        return self._neighbors[cell]

    def bfs_tree(self, start: Cell) -> dict[Cell, Cell]:
        """Parent of every cell reachable from ``start`` (``start`` maps to
        itself) in breadth-first order; shared by every caller with the same
        start until the next task completion."""
        tree = self._trees.get(start)
        if tree is None:
            tree = {start: start}
            queue = deque([start])
            neighbors = self._neighbors
            while queue:
                cur = queue.popleft()
                for nxt in neighbors[cur]:
                    if nxt not in tree:
                        tree[nxt] = cur
                        queue.append(nxt)
            self._trees[start] = tree
        return tree

    def joint_record(self) -> tuple[dict[str, Any], ...]:
        """Self-contained per-agent records: position, task board, own flags.
        The agents of one record share its task board dict; nothing mutates
        a record once built."""
        board = {
            t.id: {"pos": [t.cell[0], t.cell[1]], "present": self.alive[t.id]}
            for t in self.config.tasks
        }
        return tuple(
            {"pos": [r, c], "tasks": board, "done": dict(done)}
            for (r, c), done in zip(self.positions, self.done)
        )

    def all_done(self) -> bool:
        return not any(self.alive.values())

    def resolve(self, actions: Sequence[str]) -> None:
        """Apply task completions for one step's joint action."""
        name_to_index = {n: i for i, n in enumerate(self.agent_names)}
        completed = False
        for task in self.config.tasks:
            if not self.alive[task.id]:
                continue
            takers = {
                self.agent_names[i]
                for i, a in enumerate(actions)
                if a == task.action and chebyshev(self.positions[i], task.cell) == 1
            }
            for combo in task.combos:
                if set(combo) <= takers:
                    self.alive[task.id] = False
                    for name in combo:
                        self.done[name_to_index[name]][task.id] = True
                    completed = True
                    break
        if completed:
            self._refresh()


def episode_rng(seed: int, episode: int) -> random.Random:
    # string seeding is stable across platforms and Python versions
    return random.Random(f"mapex:{seed}:{episode}")


class GenericScriptedPolicy:
    """Reactive stand-in policy: combo members route to staging cells around
    their task, attempt the task action when adjacent (and, with seeded
    probability, already at Chebyshev distance 2), and idle agents take a
    seeded random walk."""

    def __init__(self, config: GridConfig, agent_names: Sequence[str]):
        self.config = config
        self.agent_names = tuple(agent_names)

    def assign(self, rng: random.Random) -> dict[str, tuple[str, ...]]:
        return {t.id: t.combos[rng.randrange(len(t.combos))] for t in self.config.tasks}

    def step(self, world: GridWorld, assigned: dict[str, tuple[str, ...]],
             rng: random.Random) -> tuple[list[str], list[Cell]]:
        actions: list[str] = []
        targets: list[Cell] = []
        for i, name in enumerate(self.agent_names):
            pos = world.positions[i]
            task = next(
                (t for t in self.config.tasks
                 if world.alive[t.id] and name in assigned[t.id]),
                None,
            )
            if task is None:
                options = [*world.neighbors(pos), pos]
                choice = options[rng.randrange(len(options))]
                actions.append(MOVE if choice != pos else WAIT)
                targets.append(choice)
                continue
            dist = chebyshev(pos, task.cell)
            if dist == 1 or (dist == 2 and rng.random() < 0.5):
                actions.append(task.action)
                targets.append(pos)
                continue
            # a staging cell in the tree is open and reachable: only the
            # start joins the tree unchecked, and an agent on a staging cell
            # (Chebyshev distance 1) took the task action above
            tree = world.bfs_tree(pos)
            staging = [c for c in _around(task.cell) if c in tree]
            if staging:
                rank = sorted(assigned[task.id]).index(name)
                step_to = first_move(tree, pos, staging[rank % len(staging)])
            else:
                step_to = pos
            actions.append(MOVE if step_to != pos else WAIT)
            targets.append(step_to)
        return actions, targets


def first_move(tree: Mapping[Cell, Cell], start: Cell, goal: Cell) -> Cell:
    """First cell of the shortest path start -> goal recorded in ``tree``, a
    ``bfs_tree(start)`` that holds ``goal``; ``start`` itself when
    goal == start."""
    while tree[goal] != start:
        goal = tree[goal]
    return goal


def _around(cell: Cell) -> list[Cell]:
    """The eight Chebyshev neighbours of ``cell`` in sorted order."""
    r, c = cell
    return [
        (r + dr, c + dc)
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
        if not (dr == 0 and dc == 0)
    ]


def run_episodes(policy, episodes: int, max_steps: int,
                 seed: int) -> Iterator[TraceSample]:
    """Run ``policy`` (see the module docstring); yields samples episode by
    episode."""
    if episodes < 1:
        raise PreconditionError(f"episodes must be >= 1, got {episodes}")
    if max_steps < 1:
        raise PreconditionError(f"max_steps must be >= 1, got {max_steps}")
    for episode in range(episodes):
        rng = episode_rng(seed, episode)
        world = GridWorld(policy.config, policy.agent_names)
        assigned = policy.assign(rng)
        state = world.joint_record()
        for step in range(max_steps):
            actions, targets = policy.step(world, assigned, rng)
            world.resolve(actions)
            world.positions[:] = targets
            next_state = world.joint_record()
            yield TraceSample(episode, step, state, tuple(actions), next_state)
            if world.all_done():
                break
            state = next_state
