import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

TIME_LIMIT_S = 60  # the longest any one test may run


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT_S.  It is not an Exception, so hypothesis
    passes it straight up instead of shrinking the example on it, and
    pytest records the test as failed and goes on to the next."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test that runs past TIME_LIMIT_S, naming it, so a defect that
    makes a kernel loop or crawl fails the suite instead of hanging it.

    The alarm can land on an instruction with no line number, whose
    traceback pytest cannot print, so the exception is raised again here
    without the interrupted frames."""
    def expire(signum, frame):
        raise TimeLimitExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    except TimeLimitExceeded:
        raise TimeLimitExceeded("%s ran past %d s" % (
            item.nodeid, TIME_LIMIT_S)) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
