"""Shared pytest wiring: the acceptance-criteria summary block and the
Hypothesis profile.

Tests marked ``@pytest.mark.acceptance(num, title)`` are collected into a
final terminal section with one PASS/FAIL line per criterion, so the
deliverable checks can be read off the bottom of any full run.

The default Hypothesis profile draws the same examples on every run and
keeps no example database, so two runs test the same inputs. Hypothesis
still caches the literals it reads from source files; that cache goes to
a temporary directory removed after the run, so no ``.hypothesis/``
directory is left behind.
"""

import shutil
import tempfile

import pytest
from hypothesis import configuration, settings

settings.register_profile("atcadet", derandomize=True, database=None)
settings.load_profile("atcadet")

_ACCEPTANCE = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title): one deliverable acceptance criterion",
    )
    config.hypothesis_home = tempfile.mkdtemp(prefix="atcadet-hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


def pytest_collection_modifyitems(items):
    for item in items:
        mark = item.get_closest_marker("acceptance")
        if mark is not None:
            num, title = mark.args
            _ACCEPTANCE.setdefault(num, {"title": title, "outcome": "NOT RUN"})


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("acceptance")
    if mark is None:
        return
    rec = _ACCEPTANCE.get(mark.args[0])
    if rec is None:
        return
    if report.failed:
        rec["outcome"] = "FAIL"
    elif report.when == "call" and rec["outcome"] != "FAIL":
        rec["outcome"] = "SKIP" if report.skipped else "PASS"
    elif report.when == "setup" and report.skipped and rec["outcome"] == "NOT RUN":
        rec["outcome"] = "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        rec = _ACCEPTANCE[num]
        terminalreporter.write_line(
            f"criterion {num:02d} {rec['outcome']:<7} {rec['title']}"
        )
