import pytest

from fraclap import core


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count for one test, on a fresh pool that is shut down after it."""
    monkeypatch.setattr(core, "_pool", None)
    yield lambda n: monkeypatch.setattr(core, "_usable_cpus", lambda: n)
    if core._pool is not None:
        core._pool.shutdown()
