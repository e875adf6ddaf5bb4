import signal

import pytest


@pytest.fixture(autouse=True)
def time_limit():
    """Fails a walk that never ends: the layered walk has no visited set,
    so a faulty deduplication loops instead of returning.  Every test
    runs under it, as most of them build orbit tables."""
    def stop(signum, frame):
        raise TimeoutError("the walk did not end within 60 s")
    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
