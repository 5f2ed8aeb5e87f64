import os

import pytest

from misodof import mc


@pytest.fixture(autouse=True)
def forked_workers(monkeypatch):
    """Runs with workers > 1 fork worker processes on any host, however
    cheap their blocks: they are min(workers, blocks, usable CPUs), as the
    fork budget is 0, and results never depend on them."""
    monkeypatch.setattr(mc, "usable_cpus", lambda: 8)
    monkeypatch.setattr(mc, "FORK_COST_S", 0.0)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind (waitpid gave pid {pid})")
