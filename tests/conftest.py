import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record the max_workers of every process pool the solver opens.

    The stand-in pool runs its jobs in the test process, so no process is
    ever spawned however many workers are requested.
    """
    sizes: list[int] = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return sizes
