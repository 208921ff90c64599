"""Shared pytest configuration.

Loads one ``hypothesis`` profile for every property test: examples drawn
from a seed fixed by each test's source, so a run is reproducible, and no
per-example deadline, since exact arithmetic on a shared host varies in
time.  Prints a one-line pass/fail verdict per acceptance criterion at the
end of the run (sourced from the outcomes of tests/test_acceptance.py).
"""

import pytest
from hypothesis import settings

settings.register_profile("lctplane", derandomize=True, deadline=None)
settings.load_profile("lctplane")

_ACCEPTANCE_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance.py" not in str(item.fspath):
        return
    doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
    _ACCEPTANCE_RESULTS[item.name] = (report.passed, doc)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        passed, doc = _ACCEPTANCE_RESULTS[name]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {doc}")
