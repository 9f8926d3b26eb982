from concurrent.futures import Future

import hypothesis
import pytest

from oslc import simulate

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=60, print_blob=True
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace the simulator's process pool with one that runs every task at
    submit, in this process, on a machine that claims three usable CPUs.

    Returns the list of ``max_workers`` of every pool opened, so a test can
    count pools without starting a single worker process.
    """
    opened = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            opened.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(simulate, "_POOL_SPEC", None)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    return opened
