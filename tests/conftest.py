"""Shared pytest wiring: collects the acceptance result lines and prints
them as a summary section at the end of the run, visible without -s, and
holds the n = 2, omega = 0.5 run that test_integrate and test_dp5 share."""

from __future__ import annotations

import pytest

from lanestab import IntegratorOptions, integrate, make_params

_CRITERION_LINES: list[str] = []


@pytest.fixture
def record_criterion():
    def _record(number: int, passed: bool, detail: str) -> None:
        word = "PASS" if passed else "FAIL"
        _CRITERION_LINES.append(f"criterion {number:02d} {word}  {detail}")
    return _record


@pytest.fixture(scope="module")
def run_n2_omega_half():
    return integrate(make_params(2, 0.5), IntegratorOptions(zeta_end=30.0))


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)
