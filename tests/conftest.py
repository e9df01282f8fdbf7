import re

import pytest
from hypothesis import HealthCheck, settings

from helpers import blas_env

settings.register_profile(
    "suite",
    deadline=None,  # numpy warm-up can blow the default per-example deadline
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def two_workers(monkeypatch):
    """fit_ensemble trains members in 2 threads, whatever the host's CPUs and
    BLAS settings (the default unpinned BLAS gives 1 worker)."""
    blas_env(monkeypatch, cpus=2, openblas="1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    verdicts = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if m:
                num = int(m.group(1))
                if status == "passed":
                    verdicts.setdefault(num, "PASS")
                else:
                    verdicts[num] = "FAIL"
    if not verdicts:
        return
    try:
        from test_acceptance import CRITERIA
    except Exception:
        CRITERIA = {}
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        desc = CRITERIA.get(num, "")
        terminalreporter.write_line(f"criterion {num}: {verdicts[num]} - {desc}")
