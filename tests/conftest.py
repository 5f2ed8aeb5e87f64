import pytest

from misodof import mc


@pytest.fixture(autouse=True)
def threaded_pool(monkeypatch):
    """Runs with workers > 1 use the thread pool on any host: the pool is
    sized min(workers, blocks, usable CPUs), and results never depend on it."""
    monkeypatch.setattr(mc, "usable_cpus", lambda: 8)
