"""Warehouse-lite domains: robots deliver two requested items; each delivery
needs its designated pair of robots at the shelf acting together.  Variants
with 2, 4, and 19 robots; non-designated robots take a seeded random walk.
"""

from __future__ import annotations

from ..domain import ActionPhrases
from .base import GridConfig, TaskSpec

DELIVER_A = "deliver_item_a"
DELIVER_B = "deliver_item_b"

_PAIRS = {
    2: {"item_a": ("R_1", "R_2"), "item_b": ("R_1", "R_2")},
    4: {"item_a": ("R_1", "R_2"), "item_b": ("R_3", "R_4")},
    19: {"item_a": ("R_1", "R_2"), "item_b": ("R_3", "R_4")},
}


TASK_PHRASING = (
    ("item_a", "shelf A", "delivered item A"),
    ("item_b", "shelf B", "delivered item B"),
)

VERB_PHRASES = {
    DELIVER_A: ActionPhrases("deliver item A", "delivers item A"),
    DELIVER_B: ActionPhrases("deliver item B", "delivers item B"),
}


def grid(n_agents: int) -> tuple[tuple[str, ...], GridConfig]:
    pairs = _PAIRS[n_agents]
    names = tuple(f"R_{i}" for i in range(1, n_agents + 1))
    return names, GridConfig(
        rows=6,
        cols=6,
        walls=frozenset(),
        starts=tuple((5, i % 6) for i in range(n_agents)),
        tasks=(
            TaskSpec("item_a", (1, 1), DELIVER_A, (pairs["item_a"],)),
            TaskSpec("item_b", (3, 4), DELIVER_B, (pairs["item_b"],)),
        ),
    )
