"""Search-and-rescue grid domains.

The rescue needs the UAV plus one UGV, removing the obstacle needs two UGVs,
and any single agent can fight the fire, which sits behind the wall/obstacle
barrier.  These combos, declared once in ``grid``, are also the domain's
cooperation knowledge.

The 3-agent variant runs on the fixed 3x6 map with a hand-scripted policy,
``Sr3Script``: three seeded branches vary which UGV joins the UAV for the
rescue and which team member arrives first, giving the abstraction
nondegenerate transition probabilities while keeping every branch auditable
by hand.  The script is a policy of the shared episode loop, under the same
completion rules.

The 4- and 5-agent variants scale the same tasks onto a 6x6 map and use the
generic scripted policy; their layouts are artifact choices.
"""

from __future__ import annotations

import random

from ..domain import ActionPhrases
from .base import MOVE, WAIT, GridConfig, TaskSpec, chebyshev

RESCUE = "rescue_victim"
REMOVE = "remove_obstacle"
FIGHT = "fight_fire"

TASK_PHRASING = (
    ("victim", "the victim", "rescued the victim"),
    ("fire", "the fire", "extinguished the fire"),
    ("obstacle", "the obstacle", "removed the obstacle"),
)

# also the order of a UGV's task actions
VERB_PHRASES = {
    RESCUE: ActionPhrases("rescue the victim", "rescues the victim"),
    REMOVE: ActionPhrases("remove the obstacle", "removes the obstacle"),
    FIGHT: ActionPhrases("fight the fire", "fights the fire"),
}


def grid(n_agents: int) -> tuple[tuple[str, ...], GridConfig]:
    names = ("UAV", *(f"UGV_{i}" for i in range(1, n_agents)))
    ugvs = names[1:]
    if n_agents == 3:
        rows, walls, obstacle = 3, {(0, 4), (1, 4)}, (2, 4)
    else:
        rows, walls, obstacle = 6, {(0, 4), (1, 4), (2, 4), (4, 4), (5, 4)}, (3, 4)
    return names, GridConfig(
        rows=rows,
        cols=6,
        walls=frozenset(walls),
        starts=((rows - 1, 0),) * n_agents,
        tasks=(
            TaskSpec("victim", (0, 2), RESCUE, tuple(("UAV", u) for u in ugvs)),
            TaskSpec("fire", (0, 5), FIGHT, tuple((name,) for name in names)),
            TaskSpec("obstacle", obstacle, REMOVE,
                     tuple((a, b) for i, a in enumerate(ugvs) for b in ugvs[i + 1:])),
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
_SR3_BRANCHES = {
    "uav_first_ugv2": 0.6,
    "ugv2_first": 0.2,
    "ugv1_first": 0.2,
}

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
}

# UGV_1 partners the UAV and arrives first: the mirror image of "ugv2_first"
_SR3_PLANS["ugv1_first"] = {
    name: list(_SR3_PLANS["ugv2_first"][twin])
    for name, twin in (("UAV", "UAV"), ("UGV_1", "UGV_2"), ("UGV_2", "UGV_1"))
}


class Sr3Script:
    """The scripted 3-agent policy: ``assign`` draws a branch, and ``step``
    replays the branch's next step once it is legal in the world."""

    agent_names, config = grid(3)

    def assign(self, rng: random.Random):
        [branch] = rng.choices(list(_SR3_BRANCHES), _SR3_BRANCHES.values())
        plans = _SR3_PLANS[branch]
        # step k of every timeline: its (cell, action) and the entry after it
        return enumerate(zip(*(zip(plans[n], plans[n][1:]) for n in self.agent_names)))

    def step(self, world, assigned, rng):
        step, moves = next(assigned, (None, None))
        if moves is None:
            raise AssertionError("the script ended before every task was done")
        actions, targets = [], []
        for i, (name, ((cell, action), (next_cell, _))) in enumerate(
                zip(self.agent_names, moves)):
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
            targets.append(next_cell)
        return actions, targets
