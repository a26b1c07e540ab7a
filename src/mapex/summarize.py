"""Policy summarization: the most probable initial-to-goal path through the
abstraction and the task-sequence chart extracted from it.

The path search runs Dijkstra over state indices and the model's columns,
each transition row an edge weighted by ``-log`` of its entry in
``probabilities``, to the nearest goal state (a state where every
task-completion predicate holds for at least one agent) from every state of
the initial distribution, each at ``-log`` of its share; the one initial
state of a model without virtual init starts at ``-log 1 = 0``.  Ties are
broken deterministically: goal states settle in canonical state-index order,
and between equal-distance routes to a node the predecessor with the smaller
(state index, joint action) pair is kept.  Distances within
``TIE_TOLERANCE`` (1e-9) of each other are equal: equal-probability routes
can sum their ``-log`` weights to floats a few units in the last place apart
(1/3 * 1/6 against 1/18), and rounding must not decide a tie.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .abstraction import PolicyAbstraction
from .domain import JointAction, JointState
from .errors import PreconditionError, UnreachableGoalError

TIE_TOLERANCE = 1e-9

CHART_FORMATS = ("chart", "csv")


@dataclass(frozen=True)
class MostProbablePath:
    """Alternating states and actions s0 -a0-> s1 ... sk, with log probability."""

    states: tuple[JointState, ...]
    actions: tuple[JointAction, ...]
    log_probability: float

    def __len__(self) -> int:
        return len(self.states)

    @property
    def probability(self) -> float:
        return math.exp(self.log_probability)


def most_probable_path(m: PolicyAbstraction) -> MostProbablePath:
    """Highest-probability action-labeled path to a goal from a state of
    ``m.initial_distribution()``, whose share its probability includes."""
    index = m.state_index
    goals = set(map(index.__getitem__, m.goal_states()))
    if not goals:
        raise UnreachableGoalError(0)
    _, actions, targets, _ = m.columns
    probabilities, rows = m.probabilities, m.rows

    # states by index; a predecessor is a (state index, action row) pair,
    # whose order is the (state, joint action) order of the sorted tables
    dist = {index[s]: -math.log(p) for s, p in m.initial_distribution().items()}
    pred: dict[int, tuple[int, int]] = {}
    settled: set[int] = set()
    heap = [(d, i) for i, d in dist.items()]
    heapq.heapify(heap)

    goal: int | None = None
    while heap:
        _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        d = dist[u]
        if u in goals:
            goal = min([u, *(v for _, v in heap
                             if v in goals and dist[v] <= d + TIE_TOLERANCE)])
            break
        r = rows[u]
        for a, v, p in zip(actions[r], targets[r], probabilities[r]):
            if v in settled:
                continue
            nd = d - math.log(p)
            old = dist.get(v)
            if old is not None and nd >= old - TIE_TOLERANCE:
                # not shorter: a tie only trades for a smaller predecessor
                if v not in pred or nd > old + TIE_TOLERANCE or (u, a) >= pred[v]:
                    continue
            dist[v] = nd
            pred[v] = (u, a)
            if old is None or nd < old:
                heapq.heappush(heap, (nd, v))
    if goal is None:
        raise UnreachableGoalError(len(settled))

    steps = [(goal, None)]  # (state index, action to the next state), goal first
    while steps[-1][0] in pred:
        steps.append(pred[steps[-1][0]])
    steps.reverse()
    return MostProbablePath(tuple(m.states[i] for i, _ in steps),
                            tuple(m.actions[a] for _, a in steps[:-1]), -dist[goal])


@dataclass(frozen=True)
class SummaryChart:
    """Task-sequence chart: one column per step where some task completed.

    ``columns[k][i]`` is the set of task predicate ids newly satisfied by
    agent ``i`` at the k-th completion step; labels map predicate ids to the
    short task names shown in cells.
    """

    columns: tuple[tuple[frozenset[str], ...], ...]
    n_agents: int
    labels: dict[str, str]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(f"T{i + 1}" for i in range(len(self.columns)))


def summarize(m: PolicyAbstraction, path: MostProbablePath | None = None) -> SummaryChart:
    """Extract agent cooperation and task sequence along the most probable path.

    A task enters an agent's cell at the step where its completion predicate
    rises (holds at step t but not at t-1); satisfactions already present in
    the initial state count as completions at t=0.  Only columns where some
    agent completed something are kept; a task appearing in several rows of
    one column is a cooperative completion.
    """
    task_ids = m.schema.task_completion_ids
    if path is None:
        path = most_probable_path(m)
    bits = {task: 1 << m.schema.index_of(task) for task in task_ids}
    task_mask = sum(bits.values())
    columns = []
    before = (0,) * m.n_agents
    for now in path.states:
        rises = [a & ~b & task_mask for a, b in zip(now, before)]
        if any(rises):
            columns.append(tuple(frozenset(t for t, b in bits.items() if r & b) for r in rises))
        before = now
    labels = {t: m.schema.predicate(t).label or t for t in task_ids}
    return SummaryChart(tuple(columns), m.n_agents, labels)


def render_chart(chart: SummaryChart, fmt: str = "chart",
                 agent_names: tuple[str, ...] | None = None) -> str:
    """Deterministic text grid (rows = agents, columns = T1..Tk) or its CSV twin."""
    if fmt not in CHART_FORMATS:
        raise PreconditionError(f"unknown chart format {fmt!r}")
    if agent_names is None:
        agent_names = tuple(f"agent_{i}" for i in range(chart.n_agents))
    if len(agent_names) != chart.n_agents:
        raise PreconditionError(
            f"{len(agent_names)} agent names for a {chart.n_agents}-agent chart"
        )

    def cell(col: int, agent: int) -> str:
        tasks = sorted(chart.labels[t] for t in chart.columns[col][agent])
        return "+".join(tasks)

    header = ["agent"] + list(chart.column_names)
    rows = [
        [name] + [cell(c, i) for c in range(len(chart.columns))]
        for i, name in enumerate(agent_names)
    ]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [header] + rows) + "\n"
    return text_grid([header] + rows)


def text_grid(rows: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, trailing blanks cut, one line
    per row; the layout of charts, ``mapex bench`` tables and ``--help``."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows]) + "\n"
