"""A time limit on every test.

The modular gcd has no cap on primes or evaluation points by design, so a
broken engine loops instead of failing.  Each test gets TEST_SECONDS of
wall time from SIGALRM (pytest-timeout is not a dependency); past that it
fails with TimeLimitExceeded, a BaseException, so neither the CLI's error
handling nor hypothesis's shrinking swallows it and retries.
"""

import signal

import pytest

TEST_SECONDS = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_SECONDS."""


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded("the test ran past %d s" % TEST_SECONDS)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
