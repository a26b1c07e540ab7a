"""Warehouse-lite domains: robots deliver two requested items; each delivery
needs its designated pair of robots at the shelf acting together.  Variants
with 2, 4, and 19 robots; non-designated robots take a seeded random walk.
"""

from __future__ import annotations

from typing import Iterator

from ..domain import ActionPhrases, DomainDefinition
from ..errors import PreconditionError
from .base import (
    GenericScriptedPolicy,
    GridConfig,
    TaskSpec,
    TraceSample,
    grid_domain,
    run_episodes,
)

DELIVER_A = "deliver_item_a"
DELIVER_B = "deliver_item_b"

_PAIRS = {
    2: {"item_a": ("R_1", "R_2"), "item_b": ("R_1", "R_2")},
    4: {"item_a": ("R_1", "R_2"), "item_b": ("R_3", "R_4")},
    19: {"item_a": ("R_1", "R_2"), "item_b": ("R_3", "R_4")},
}


_TASK_PHRASING = (
    ("item_a", "shelf A", "delivered item A"),
    ("item_b", "shelf B", "delivered item B"),
)

_VERB_PHRASES = {
    DELIVER_A: ActionPhrases("deliver item A", "delivers item A"),
    DELIVER_B: ActionPhrases("deliver item B", "delivers item B"),
}


def _names(n: int) -> list[str]:
    return [f"R_{i}" for i in range(1, n + 1)]


def rware_domain(n_agents: int) -> DomainDefinition:
    if n_agents not in _PAIRS:
        raise PreconditionError(
            f"supported warehouse agent counts are {sorted(_PAIRS)}; got {n_agents}"
        )
    return grid_domain(f"rware{n_agents}", _names(n_agents), rware_grid_config(n_agents),
                       _TASK_PHRASING, _VERB_PHRASES)


def rware_grid_config(n_agents: int) -> GridConfig:
    pairs = _PAIRS[n_agents]
    return GridConfig(
        rows=6,
        cols=6,
        walls=frozenset(),
        starts=tuple((5, i % 6) for i in range(n_agents)),
        tasks=(
            TaskSpec("item_a", (1, 1), DELIVER_A, (pairs["item_a"],)),
            TaskSpec("item_b", (3, 4), DELIVER_B, (pairs["item_b"],)),
        ),
    )


def run_rware_episodes(n_agents: int, episodes: int, max_steps: int,
                       seed: int) -> Iterator[TraceSample]:
    policy = GenericScriptedPolicy(rware_grid_config(n_agents), _names(n_agents))
    return run_episodes(policy, episodes, max_steps, seed)
