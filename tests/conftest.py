import pytest
from hypothesis import HealthCheck, settings

from greensched import schedulers

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")


@pytest.fixture
def engine_plays(monkeypatch):
    """A list that grows by one for every engine run in the test."""
    plays = []
    play = schedulers._play

    def counted(*args):
        plays.append(None)
        return play(*args)

    monkeypatch.setattr(schedulers, "_play", counted)
    return plays
