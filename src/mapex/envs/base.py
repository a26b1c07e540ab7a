"""Grid-world plumbing shared by the built-in domains: the domain builder
every grid family uses, and one episode loop that runs any scripted policy.

Conventions: movement is 4-neighbor, one cell per step; task detection and
task eligibility use Chebyshev adjacency (distance exactly 1); agents may
share cells; a task's cell blocks movement while the task is alive and
becomes passable once completed.  Completion of a task requires every member
of one of its declared combos to be adjacent and to take the task's action at
the same step; completion flags are set only for that combo's members and,
once set, never fall within an episode.

A family module is data: ``TASK_PHRASING``, ``VERB_PHRASES`` and
``grid(n_agents)`` -> (agent names, ``GridConfig``).  It states each task's
combos once, in that ``GridConfig``: the world enforces them, and
``grid_domain`` reads the alphabets and the relevance knowledge off them.
``envs.get_domain`` and ``envs.simulate`` build and run every family through
``grid_domain`` and ``run_episodes``.  ``run_episodes`` runs every policy:
one with a ``config``, ``agent_names``, ``assign(rng)`` (once per episode)
and ``step(world, assigned, rng)`` -> (joint action, each agent's next cell).

Tables: each ``run_episodes`` call keeps, per task liveness, the open cells,
each cell's moves (its open 4-neighbours, then itself), one breadth-first map
per start cell from each reachable cell to the first step toward it
(``first_steps``), one first step per (cell, task cell, rank) toward a staging
cell (``route``), the task board and one agent record per (cell, flags).  Its
worlds share them, a world built alone keeps its own, and nothing outlives
the run; they are pure caches, so a world steps alike either way.  A world
changes tables only when ``resolve`` completes a task, the one event that
changes which cells are passable.  So each (liveness, cell) costs at most one
BFS per run, and a routed agent's step one lookup.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from ..domain import (
    ActionPhrases,
    AgentSpec,
    DomainDefinition,
    FeatureSchema,
    PredicateSpec,
    RelevanceEntry,
    RelevanceKnowledge,
)
from ..errors import PreconditionError
from ..trace import Record, TraceSample

Cell = tuple[int, int]

MOVE = "move"
WAIT = "wait"
_PLAIN_PHRASES = {MOVE: ActionPhrases("move", "moves"),
                  WAIT: ActionPhrases("wait", "waits")}


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass(frozen=True)
class TaskSpec:
    """A cooperative task pinned to one grid cell."""

    id: str
    cell: Cell
    action: str
    combos: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # an empty combo completes its task with no agent acting, and a task
        # with no combo leaves the policy none to draw
        if not self.combos or not all(self.combos):
            raise PreconditionError(f"task {self.id} needs combos, each naming an agent")


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
        # each combo's action set, shared by the entries of its members
        action_sets = {c: frozenset((m, task.action) for m in c) for c in task.combos}
        for name in agent_names:
            combos = [c for c in task.combos if name in c]
            if combos:
                entries[(name, task.action)] = RelevanceEntry(
                    frozenset(m for c in combos for m in c), features,
                    tuple(map(action_sets.__getitem__, combos)))
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


def _open_cells(config: GridConfig, live: tuple[str, ...]
                ) -> tuple[frozenset[Cell], dict[Cell, tuple[Cell, ...]]]:
    """The open cells, and every cell's moves while exactly the ``live``
    tasks block their cells: its open 4-neighbours, then the cell itself."""
    blocked = config.walls | {t.cell for t in config.tasks if t.id in live}
    cells = [(r, c) for r in range(config.rows) for c in range(config.cols)]
    open_cells = frozenset(x for x in cells if x not in blocked)
    # neighbour order is sorted(): (r-1, c), (r, c-1), (r, c+1), (r+1, c)
    moves = {
        (r, c): (*(x for x in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
                   if x in open_cells), (r, c))
        for r, c in cells
    }
    return open_cells, moves


class GridWorld:
    """Mutable episode state: agent positions, task liveness, completion flags.
    ``tables`` maps a task liveness to its routing tables; the worlds of one
    run share one dict, and a world given none keeps its own.  ``moves`` is
    the current liveness's table of each cell's moves."""

    def __init__(self, config: GridConfig, agent_names: Sequence[str],
                 tables: dict | None = None):
        self.config = config
        self.agent_names = tuple(agent_names)
        self._tables = {} if tables is None else tables
        self.positions: list[Cell] = list(config.starts)
        self.alive: dict[str, bool] = {t.id: True for t in config.tasks}
        self.done: list[dict[str, bool]] = [
            {t.id: False for t in config.tasks} for _ in agent_names
        ]
        self._refresh()

    def _refresh(self) -> None:
        """Take the current liveness's tables (see the module docstring); note
        each agent's flags until a completion."""
        live = tuple(t.id for t in self.config.tasks if self.alive[t.id])
        if (table := self._tables.get(live)) is None:
            board = {t.id: {"pos": [*t.cell], "present": t.id in live}
                     for t in self.config.tasks}
            table = self._tables[live] = (*_open_cells(self.config, live), {}, {}, board, {})
        self._open, self.moves, self._steps, self._routes, self._board, self._records = table
        self._flags = [tuple(done.items()) for done in self.done]

    def passable(self, cell: Cell) -> bool:
        return cell in self._open

    def first_steps(self, start: Cell) -> dict[Cell, Cell]:
        """The first cell of the breadth-first path from ``start`` to every
        cell it reaches (``start`` maps to itself); shared by every caller with
        the same start and task liveness that shares this world's tables."""
        steps = self._steps.get(start)
        if steps is None:
            steps = self._steps[start] = {start: start}
            queue = deque([start])
            moves = self.moves
            while queue:
                cur = queue.popleft()
                for nxt in moves[cur]:  # the last move, cur itself, is mapped
                    if nxt not in steps:
                        steps[nxt] = nxt if cur == start else steps[cur]
                        queue.append(nxt)
        return steps

    def route(self, cell: Cell, task_cell: Cell, rank: int) -> Cell:
        """The first step from ``cell`` toward its staging cell: of the
        Chebyshev neighbours of ``task_cell`` that ``cell`` reaches, in sorted
        order, the one at ``rank`` modulo their count, else ``cell`` itself.
        Made once per table."""
        key = cell, task_cell, rank
        if (step := self._routes.get(key)) is None:
            # a staging cell in the map is open: only the start joins it unchecked
            steps, (r, c) = self.first_steps(cell), task_cell
            staging = [x for x in ((r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                                   if dr or dc) if x in steps] or [cell]
            step = self._routes[key] = steps[staging[rank % len(staging)]]
        return step

    def joint_record(self) -> tuple[dict[str, Any], ...]:
        """Self-contained per-agent records: position, task board, own flags.
        Agents and worlds at one (cell, liveness, flags) share one record, made
        once per table; nothing mutates a record once built."""
        records, joint = self._records, []
        for key in zip(self.positions, self._flags):
            if (record := records.get(key)) is None:
                record = records[key] = Record({"pos": [*key[0]], "tasks": self._board,
                                                "done": dict(key[1])})
            joint.append(record)
        return tuple(joint)

    def all_done(self) -> bool:
        return not any(self.alive.values())

    def resolve(self, actions: Sequence[str]) -> None:
        """Apply task completions for one step's joint action."""
        completed = False
        for task in self.config.tasks:
            if not self.alive[task.id] or task.action not in actions:
                continue
            tr, tc = task.cell
            takers = {name for name, (r, c), a in zip(self.agent_names, self.positions, actions)
                      if a == task.action and max(abs(r - tr), abs(c - tc)) == 1}
            for combo in task.combos:
                if set(combo) <= takers:
                    self.alive[task.id] = False
                    for name in combo:
                        self.done[self.agent_names.index(name)][task.id] = True
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

    def assign(self, rng: random.Random) -> tuple[tuple[tuple[TaskSpec, int], ...], ...]:
        """Each agent's plan for the episode: the tasks whose drawn combo names
        it, in declaration order, each with its rank in the sorted combo."""
        combos = [t.combos[rng.randrange(len(t.combos))] for t in self.config.tasks]
        return tuple(
            tuple((t, sorted(c).index(name)) for t, c in zip(self.config.tasks, combos)
                  if name in c)
            for name in self.agent_names)

    def step(self, world: GridWorld, plans: tuple[tuple[tuple[TaskSpec, int], ...], ...],
             rng: random.Random) -> tuple[list[str], list[Cell]]:
        actions: list[str] = []
        targets: list[Cell] = []
        alive, moves = world.alive, world.moves
        for pos, plan in zip(world.positions, plans):
            for task, rank in plan:  # the first live task of the plan
                if alive[task.id]:
                    break
            else:
                choice = rng.choice(moves[pos])
                actions.append(MOVE if choice != pos else WAIT)
                targets.append(choice)
                continue
            (r, c), (tr, tc) = pos, task.cell
            dist = max(abs(r - tr), abs(c - tc))
            if dist == 1 or (dist == 2 and rng.random() < 0.5):
                actions.append(task.action)
                targets.append(pos)
                continue
            # an agent on a staging cell (distance 1) took the task action above
            step_to = world.route(pos, task.cell, rank)
            actions.append(MOVE if step_to != pos else WAIT)
            targets.append(step_to)
        return actions, targets


def run_episodes(policy, episodes: int, max_steps: int,
                 seed: int) -> Iterator[TraceSample]:
    """Run ``policy`` (see the module docstring); yields samples episode by
    episode.  The counts are checked at the call, before any sample."""
    if episodes < 1:
        raise PreconditionError(f"episodes must be >= 1, got {episodes}")
    if max_steps < 1:
        raise PreconditionError(f"max_steps must be >= 1, got {max_steps}")
    return _episodes(policy, episodes, max_steps, seed)


def _episodes(policy, episodes: int, max_steps: int, seed: int) -> Iterator[TraceSample]:
    tables: dict = {}  # the run's routing tables, by task liveness
    for episode in range(episodes):
        rng = episode_rng(seed, episode)
        world = GridWorld(policy.config, policy.agent_names, tables)
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
