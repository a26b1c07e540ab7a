"""Built-in domains and their scripted stand-in policies.

Registered domain ids: sr3, sr4, sr5 (search and rescue), rware2, rware4,
rware19 (warehouse), lbf2, lbf4, lbf9 (level-based foraging).  ``simulate``
streams trajectory samples episode by episode; identical (domain, seed,
episodes, max_steps) always yields an identical stream.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..domain import DomainDefinition
from ..errors import UnknownDomainError
from .base import TraceSample, read_trace, write_trace
from .foraging import lbf_domain, run_lbf_episodes
from .search_rescue import run_sr_episodes, sr_domain
from .warehouse import run_rware_episodes, rware_domain

DEFAULT_MAX_STEPS = 50

# domain id -> (family's domain builder, its episode runner, agent count)
_REGISTRY: dict[str, tuple[Callable[[int], DomainDefinition], Callable, int]] = {
    "sr3": (sr_domain, run_sr_episodes, 3),
    "sr4": (sr_domain, run_sr_episodes, 4),
    "sr5": (sr_domain, run_sr_episodes, 5),
    "rware2": (rware_domain, run_rware_episodes, 2),
    "rware4": (rware_domain, run_rware_episodes, 4),
    "rware19": (rware_domain, run_rware_episodes, 19),
    "lbf2": (lbf_domain, run_lbf_episodes, 2),
    "lbf4": (lbf_domain, run_lbf_episodes, 4),
    "lbf9": (lbf_domain, run_lbf_episodes, 9),
}


def domain_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _lookup(domain_id: str) -> tuple:
    try:
        return _REGISTRY[domain_id]
    except KeyError:
        raise UnknownDomainError(
            f"unknown domain {domain_id!r}; available: {', '.join(domain_ids())}"
        ) from None


def get_domain(domain_id: str) -> DomainDefinition:
    build, _, n_agents = _lookup(domain_id)
    return build(n_agents)


def simulate(domain_id: str, *, episodes: int, max_steps: int = DEFAULT_MAX_STEPS,
             seed: int = 42) -> Iterator[TraceSample]:
    """Stream of TraceSamples from the domain's scripted policy."""
    _, run, n_agents = _lookup(domain_id)
    return run(n_agents, episodes, max_steps, seed)


__all__ = [
    "DEFAULT_MAX_STEPS",
    "TraceSample",
    "domain_ids",
    "get_domain",
    "read_trace",
    "simulate",
    "sr_domain",
    "rware_domain",
    "lbf_domain",
    "write_trace",
]
