import pytest

from singquandles import corpus, kernels
from singquandles.core import FiniteSingquandle


@pytest.fixture(scope="session")
def xz4():
    return corpus.load("X-Z4")


@pytest.fixture(scope="session")
def yz4():
    return corpus.load("Y-Z4")


@pytest.fixture(scope="session")
def xz8a():
    return corpus.load("X-Z8-a")


@pytest.fixture(scope="session")
def xz8b():
    return corpus.load("X-Z8-b")


@pytest.fixture(params=["numpy"])
def backend(request):
    """The kernels' implementation, numpy alone.  A one-value parameter,
    so the ids of the tests that take it keep their ``numpy`` part."""
    return request.param


@pytest.fixture
def structure_calls(monkeypatch):
    """Counts of FiniteSingquandle.profiles and .closure calls, on every
    structure, from the moment the fixture is set up."""
    calls = {"profiles": 0, "closure": 0}
    for name in calls:
        orig = getattr(FiniteSingquandle, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(FiniteSingquandle, name, counted)
    return calls


@pytest.fixture
def closure_rows(monkeypatch):
    """The number of seed rows handed to kernels.closures, over all calls
    from the moment the fixture is set up, under the key "rows"."""
    calls = {"rows": 0}
    orig = kernels.closures

    def counted(tables, seeds, n):
        calls["rows"] += len(seeds)
        return orig(tables, seeds, n)
    monkeypatch.setattr(kernels, "closures", counted)
    return calls
