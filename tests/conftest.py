import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# the slowest test takes a few seconds: one still running after this long is
# taken to loop, and fails naming itself instead of hanging the whole run
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "setitimer"):  # no interval timers off POSIX
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} still running after "
                           f"{TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
