import itertools
import time
from types import SimpleNamespace

import pytest

from mapex import boolmin, build_abstraction, cli, get_domain, simulate, write_trace


@pytest.fixture(scope="session")
def sr3_domain():
    return get_domain("sr3")


@pytest.fixture(scope="session")
def sr3_samples():
    return list(simulate("sr3", episodes=200, seed=42))


@pytest.fixture(scope="session")
def sr3_abstraction(sr3_domain, sr3_samples):
    return build_abstraction(sr3_samples, sr3_domain.schema)


@pytest.fixture(scope="session")
def sr3_trace_path(tmp_path_factory, sr3_samples, sr3_domain):
    path = tmp_path_factory.mktemp("traces") / "sr3.jsonl"
    write_trace(path, "sr3", sr3_domain.n_agents, sr3_samples)
    return path


@pytest.fixture
def fake_clock(monkeypatch):
    """``time.monotonic`` as mapex.cli and mapex.boolmin call it: a counter
    that steps one second per call, so a deadline of ``--timeout N`` passes
    at the (N+1)-th deadline poll, exactly and without sleeping."""
    ticks = itertools.count()
    clock = SimpleNamespace(monotonic=lambda: float(next(ticks)),
                            perf_counter=time.perf_counter)
    for module in (cli, boolmin):
        monkeypatch.setattr(module, "time", clock)
    return ticks
