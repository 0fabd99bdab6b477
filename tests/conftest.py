import functools
import time

import pytest

from padic_fixvec import verify
from padic_fixvec.budget import ENV_BUDGET


@pytest.fixture(scope="session")
def default_report():
    """default_report(suite) -> (report, elapsed seconds) of that verify
    suite at the default budget, with PADIC_FIXVEC_BUDGET unset. Each suite
    runs at most once per session, timed when it runs."""

    @functools.cache
    def run(suite):
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv(ENV_BUDGET, raising=False)
            started = time.perf_counter()
            report = verify.SUITES[suite]()
            return report, time.perf_counter() - started

    return run
