import pytest

from skeinrep.scalars import QuantumParams


@pytest.fixture
def fresh_contexts(monkeypatch):
    """An empty table of interned contexts, so every level and root the test
    uses starts with cold memos; the old table comes back after the test.
    The fixture's value, called, swaps in another empty table."""
    def reset():
        monkeypatch.setattr(QuantumParams, "_interned", {})

    reset()
    return reset
