"""Built-in domains and their scripted stand-in policies.

Registered domain ids: sr3, sr4, sr5 (search and rescue), rware2, rware4,
rware19 (warehouse), lbf2, lbf4, lbf9 (level-based foraging).  A family
module is data: its ``TASK_PHRASING``, its ``VERB_PHRASES`` and
``grid(n_agents)`` -> (agent names, ``GridConfig``).  ``simulate`` streams
trajectory samples episode by episode; identical (domain, seed, episodes,
max_steps) always yields an identical stream.
"""

from __future__ import annotations

from types import ModuleType
from typing import Iterator

from ..domain import DomainDefinition
from ..errors import UnknownDomainError
from ..trace import TraceSample, iter_trace, read_trace, write_trace
from . import foraging, search_rescue, warehouse
from .base import GenericScriptedPolicy, grid_domain, run_episodes

DEFAULT_MAX_STEPS = 50

# domain id -> (family module, agent count): the one list of supported ids
_REGISTRY: dict[str, tuple[ModuleType, int]] = {
    "sr3": (search_rescue, 3),
    "sr4": (search_rescue, 4),
    "sr5": (search_rescue, 5),
    "rware2": (warehouse, 2),
    "rware4": (warehouse, 4),
    "rware19": (warehouse, 19),
    "lbf2": (foraging, 2),
    "lbf4": (foraging, 4),
    "lbf9": (foraging, 9),
}


def domain_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _lookup(domain_id: str) -> tuple[ModuleType, int]:
    try:
        return _REGISTRY[domain_id]
    except KeyError:
        raise UnknownDomainError(
            f"unknown domain {domain_id!r}; available: {', '.join(domain_ids())}"
        ) from None


def get_domain(domain_id: str) -> DomainDefinition:
    family, n_agents = _lookup(domain_id)
    return grid_domain(domain_id, *family.grid(n_agents),
                       family.TASK_PHRASING, family.VERB_PHRASES)


def simulate(domain_id: str, *, episodes: int, max_steps: int = DEFAULT_MAX_STEPS,
             seed: int = 42) -> Iterator[TraceSample]:
    """Stream of TraceSamples from the domain's scripted policy: the
    hand-written script for sr3, the generic policy everywhere else."""
    family, n_agents = _lookup(domain_id)
    names, config = family.grid(n_agents)
    policy = (search_rescue.Sr3Script() if domain_id == "sr3"
              else GenericScriptedPolicy(config, names))
    return run_episodes(policy, episodes, max_steps, seed)


__all__ = [
    "DEFAULT_MAX_STEPS",
    "TraceSample",
    "domain_ids",
    "get_domain",
    "iter_trace",
    "read_trace",
    "simulate",
    "write_trace",
]
