import functools
import time

import pytest

from padic_fixvec import verify


@pytest.fixture(scope="session")
def default_report():
    """default_report(suite) -> (report, elapsed seconds) of that verify
    suite at the default budget. Each suite runs at most once per session,
    timed when it runs."""

    @functools.cache
    def run(suite):
        started = time.perf_counter()
        report = verify.SUITES[suite]()
        return report, time.perf_counter() - started

    return run
