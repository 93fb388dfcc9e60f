import numpy as np
import pytest


class ScriptedRng:
    """Stand-in for a Generator when a test needs exact uniform draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self._draws.pop(0)
        block, self._draws = self._draws[:size], self._draws[size:]
        assert len(block) == size, "script ran out of draws"
        return np.array(block)


@pytest.fixture
def scripted_rng():
    return ScriptedRng


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
