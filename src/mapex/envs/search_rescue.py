"""Search-and-rescue grid domains.

The 3-agent variant runs on the fixed 3x6 map with a hand-scripted policy:
three seeded branches vary which UGV joins the UAV for the rescue and which
team member arrives first, giving the abstraction nondegenerate transition
probabilities while keeping every branch auditable by hand.  The rescue needs
the UAV plus one UGV, removing the obstacle needs both UGVs, and any single
agent can fight the fire, which sits behind the wall/obstacle barrier.

The 4- and 5-agent variants scale the same tasks onto a 6x6 map and use the
generic scripted engine; their layouts are artifact choices.
"""

from __future__ import annotations

import random
from typing import Iterator

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
from .base import (
    MOVE,
    WAIT,
    GridConfig,
    GridWorld,
    TaskSpec,
    TraceSample,
    chebyshev,
    episode_rng,
    run_generic_episodes,
)

RESCUE = "rescue_victim"
REMOVE = "remove_obstacle"
FIGHT = "fight_fire"


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


def _sr_schema() -> FeatureSchema:
    return grid_task_schema(
        (
            ("victim", "the victim", "rescued the victim"),
            ("fire", "the fire", "extinguished the fire"),
            ("obstacle", "the obstacle", "removed the obstacle"),
        )
    )


_SR_ACTION_PHRASES = {
    RESCUE: ActionPhrases("rescue the victim", "rescues the victim"),
    REMOVE: ActionPhrases("remove the obstacle", "removes the obstacle"),
    FIGHT: ActionPhrases("fight the fire", "fights the fire"),
    MOVE: ActionPhrases("move", "moves"),
    WAIT: ActionPhrases("wait", "waits"),
}


def _sr_relevance(ugvs: tuple[str, ...]) -> RelevanceKnowledge:
    entries = {}
    rescue_sets = tuple(frozenset({("UAV", RESCUE), (u, RESCUE)}) for u in ugvs)
    rescue_agents = frozenset({"UAV", *ugvs})
    victim_features = frozenset({"victim_detect", "victim_complete"})
    entries[("UAV", RESCUE)] = RelevanceEntry(rescue_agents, victim_features, rescue_sets)
    for u in ugvs:
        entries[(u, RESCUE)] = RelevanceEntry(
            frozenset({"UAV", u}),
            victim_features,
            (frozenset({("UAV", RESCUE), (u, RESCUE)}),),
        )
    obstacle_features = frozenset({"obstacle_detect", "obstacle_complete"})
    for u in ugvs:
        partners = tuple(
            frozenset({(u, REMOVE), (v, REMOVE)}) for v in ugvs if v != u
        )
        entries[(u, REMOVE)] = RelevanceEntry(frozenset(ugvs), obstacle_features, partners)
    fire_features = frozenset({"fire_detect", "fire_complete"})
    for name in ("UAV", *ugvs):
        entries[(name, FIGHT)] = RelevanceEntry(
            frozenset({name}), fire_features, (frozenset({(name, FIGHT)}),)
        )
        for plain in (MOVE, WAIT):
            entries[(name, plain)] = RelevanceEntry(
                frozenset({name}), frozenset(), (frozenset({(name, plain)}),)
            )
    return RelevanceKnowledge(entries)


def sr_domain(n_agents: int) -> DomainDefinition:
    """SR domain definition for 3, 4, or 5 agents (1 UAV + UGVs)."""
    if n_agents not in (3, 4, 5):
        raise PreconditionError(f"supported SR agent counts are 3, 4, 5; got {n_agents}")
    ugvs = tuple(f"UGV_{i}" for i in range(1, n_agents))
    agents = [AgentSpec("UAV", (RESCUE, FIGHT, MOVE, WAIT))]
    agents += [AgentSpec(u, (RESCUE, REMOVE, FIGHT, MOVE, WAIT)) for u in ugvs]
    return DomainDefinition(
        id=f"sr{n_agents}",
        agents=tuple(agents),
        schema=_sr_schema(),
        action_phrases=_SR_ACTION_PHRASES,
        relevance=_sr_relevance(ugvs),
    )


def sr_grid_config(n_agents: int) -> GridConfig:
    names = ["UAV"] + [f"UGV_{i}" for i in range(1, n_agents)]
    fire_combos = tuple((name,) for name in names)
    if n_agents == 3:
        return GridConfig(
            rows=3,
            cols=6,
            walls=frozenset({(0, 4), (1, 4)}),
            starts=((2, 0),) * 3,
            tasks=(
                TaskSpec("victim", (0, 2), RESCUE,
                         (("UAV", "UGV_1"), ("UAV", "UGV_2"))),
                TaskSpec("fire", (0, 5), FIGHT, fire_combos),
                TaskSpec("obstacle", (2, 4), REMOVE, (("UGV_1", "UGV_2"),)),
            ),
        )
    ugvs = names[1:]
    rescue_combos = tuple(("UAV", u) for u in ugvs)
    remove_combos = tuple(
        (a, b) for i, a in enumerate(ugvs) for b in ugvs[i + 1:]
    )
    return GridConfig(
        rows=6,
        cols=6,
        walls=frozenset({(0, 4), (1, 4), (2, 4), (4, 4), (5, 4)}),
        starts=tuple((5, 0) for _ in names),
        tasks=(
            TaskSpec("victim", (0, 2), RESCUE, rescue_combos),
            TaskSpec("fire", (0, 5), FIGHT, fire_combos),
            TaskSpec("obstacle", (3, 4), REMOVE, remove_combos),
        ),
    )


# ---------------------------------------------------------------------------
# The hand-scripted 3-agent policy.  Each branch is a literal per-agent
# timeline of (cell, action); the grid engine still owns completion rules, so
# a script inconsistent with the map fails its legality checks (explicit
# raises, so they also run under ``python -O``).
# ---------------------------------------------------------------------------

_M, _W = MOVE, WAIT

# branch weights: which UGV partners the UAV on the rescue, and who reaches
# the victim first
_SR3_BRANCHES = (
    ("uav_first_ugv2", 0.6),
    ("ugv2_first", 0.2),
    ("ugv1_first", 0.2),
)

_SR3_PLANS = {
    "uav_first_ugv2": {
        "UAV": [
            ((2, 0), _M), ((1, 0), _M), ((1, 1), _M), ((1, 2), _W),
            ((1, 2), RESCUE), ((1, 2), _M), ((1, 3), _M), ((2, 3), _M),
            ((2, 4), _M), ((2, 5), _M), ((1, 5), FIGHT), ((1, 5), None),
        ],
        "UGV_1": [
            ((2, 0), _M), ((2, 1), _M), ((2, 2), _M), ((2, 3), REMOVE),
            ((2, 3), REMOVE), ((2, 3), REMOVE), ((2, 3), _W), ((2, 3), _W),
            ((2, 3), _W), ((2, 3), _W), ((2, 3), _W), ((2, 3), None),
        ],
        "UGV_2": [
            ((2, 0), _M), ((2, 1), _M), ((2, 2), _M), ((2, 3), _M),
            ((1, 3), RESCUE), ((1, 3), REMOVE), ((1, 3), _W), ((1, 3), _W),
            ((1, 3), _W), ((1, 3), _W), ((1, 3), _W), ((1, 3), None),
        ],
    },
    "ugv2_first": {
        "UAV": [
            ((2, 0), _M), ((1, 0), _M), ((0, 0), _M), ((0, 1), RESCUE),
            ((0, 1), _M), ((1, 1), _M), ((1, 2), _M), ((1, 3), _M),
            ((2, 3), _M), ((2, 4), _M), ((2, 5), _M), ((1, 5), FIGHT),
            ((1, 5), None),
        ],
        "UGV_1": [
            ((2, 0), _M), ((2, 1), _M), ((2, 2), _M), ((2, 3), REMOVE),
            ((2, 3), REMOVE), ((2, 3), REMOVE), ((2, 3), REMOVE), ((2, 3), _W),
            ((2, 3), _W), ((2, 3), _W), ((2, 3), _W), ((2, 3), _W),
            ((2, 3), None),
        ],
        "UGV_2": [
            ((2, 0), _M), ((2, 1), _M), ((1, 1), _M), ((1, 2), RESCUE),
            ((1, 2), REMOVE), ((1, 2), _M), ((1, 3), REMOVE), ((1, 3), _W),
            ((1, 3), _W), ((1, 3), _W), ((1, 3), _W), ((1, 3), _W),
            ((1, 3), None),
        ],
    },
    "ugv1_first": {
        "UAV": [
            ((2, 0), _M), ((1, 0), _M), ((0, 0), _M), ((0, 1), RESCUE),
            ((0, 1), _M), ((1, 1), _M), ((1, 2), _M), ((1, 3), _M),
            ((2, 3), _M), ((2, 4), _M), ((2, 5), _M), ((1, 5), FIGHT),
            ((1, 5), None),
        ],
        "UGV_1": [
            ((2, 0), _M), ((2, 1), _M), ((1, 1), _M), ((1, 2), RESCUE),
            ((1, 2), REMOVE), ((1, 2), _M), ((1, 3), REMOVE), ((1, 3), _W),
            ((1, 3), _W), ((1, 3), _W), ((1, 3), _W), ((1, 3), _W),
            ((1, 3), None),
        ],
        "UGV_2": [
            ((2, 0), _M), ((2, 1), _M), ((2, 2), _M), ((2, 3), REMOVE),
            ((2, 3), REMOVE), ((2, 3), REMOVE), ((2, 3), REMOVE), ((2, 3), _W),
            ((2, 3), _W), ((2, 3), _W), ((2, 3), _W), ((2, 3), _W),
            ((2, 3), None),
        ],
    },
}

_SR3_NAMES = ("UAV", "UGV_1", "UGV_2")


def _pick_branch(rng: random.Random) -> str:
    x = rng.random()
    acc = 0.0
    for name, weight in _SR3_BRANCHES:
        acc += weight
        if x < acc:
            return name
    return _SR3_BRANCHES[-1][0]


def run_sr3_episodes(episodes: int, max_steps: int, seed: int) -> Iterator[TraceSample]:
    """Run the scripted 3-agent policy; deterministic for a fixed seed."""
    if episodes < 1:
        raise PreconditionError(f"episodes must be >= 1, got {episodes}")
    if max_steps < 1:
        raise PreconditionError(f"max_steps must be >= 1, got {max_steps}")
    config = sr_grid_config(3)
    for episode in range(episodes):
        rng = episode_rng(seed, episode)
        plans = _SR3_PLANS[_pick_branch(rng)]
        world = GridWorld(config, _SR3_NAMES)
        horizon = min(max_steps, len(plans["UAV"]) - 1)
        state = world.joint_record()
        for step in range(horizon):
            actions = []
            for i, name in enumerate(_SR3_NAMES):
                cell, action = plans[name][step]
                next_cell = plans[name][step + 1][0]
                if world.positions[i] != cell:
                    raise AssertionError(
                        f"{name} step {step}: scripted at {cell}, "
                        f"world has {world.positions[i]}")
                if action == MOVE:
                    if chebyshev(cell, next_cell) != 1:
                        raise AssertionError(
                            f"{name} step {step}: move {cell} -> {next_cell} "
                            f"is not a one-cell step")
                    if not world.passable(next_cell):
                        raise AssertionError(
                            f"{name} step {step}: move into blocked {next_cell}")
                elif cell != next_cell:
                    raise AssertionError(
                        f"{name} step {step}: {action} moves {cell} -> {next_cell}")
                actions.append(action)
            world.resolve(actions)
            for i, name in enumerate(_SR3_NAMES):
                world.positions[i] = plans[name][step + 1][0]
            next_state = world.joint_record()
            yield TraceSample(episode, step, state, tuple(actions), next_state)
            if world.all_done():
                break
            state = next_state


def run_sr_episodes(n_agents: int, episodes: int, max_steps: int,
                    seed: int) -> Iterator[TraceSample]:
    if n_agents == 3:
        return run_sr3_episodes(episodes, max_steps, seed)
    config = sr_grid_config(n_agents)
    names = ["UAV"] + [f"UGV_{i}" for i in range(1, n_agents)]
    return run_generic_episodes(config, names, episodes, max_steps, seed)
