"""Level-based-foraging-lite domains: a food item is collected when one of its
declared agent combinations acts on it together.  Variants with 2, 4, and 9
agents.  The combos stand for groups whose combined level reaches the food's
level; they are a chosen set of such groups, not every minimal one, and they
double as the cooperation knowledge.
"""

from __future__ import annotations

from ..domain import ActionPhrases
from .base import GridConfig, TaskSpec

COLLECT_1 = "collect_food_1"
COLLECT_2 = "collect_food_2"

# the declared combos per food
_SETUPS = {
    2: {
        "food_1": (("F_1", "F_2"),),            # level-2 food
        "food_2": (("F_1",), ("F_2",)),         # level-1 food
    },
    4: {
        "food_1": (("F_1", "F_2"), ("F_1", "F_3")),   # level-3 food
        "food_2": (("F_4",), ("F_2", "F_3")),         # level-2 food
    },
    9: {
        "food_1": (("F_1", "F_2"), ("F_1", "F_3", "F_4")),  # level-4 food
        "food_2": (("F_9",), ("F_5", "F_6")),               # level-2 food
    },
}


TASK_PHRASING = (
    ("food_1", "food 1", "collected food 1"),
    ("food_2", "food 2", "collected food 2"),
)

VERB_PHRASES = {
    COLLECT_1: ActionPhrases("collect food 1", "collects food 1"),
    COLLECT_2: ActionPhrases("collect food 2", "collects food 2"),
}


def grid(n_agents: int) -> tuple[tuple[str, ...], GridConfig]:
    setup = _SETUPS[n_agents]
    names = tuple(f"F_{i}" for i in range(1, n_agents + 1))
    return names, GridConfig(
        rows=6,
        cols=6,
        walls=frozenset(),
        starts=tuple((5, i % 6) for i in range(n_agents)),
        tasks=(
            TaskSpec("food_1", (1, 2), COLLECT_1, setup["food_1"]),
            TaskSpec("food_2", (3, 4), COLLECT_2, setup["food_2"]),
        ),
    )
