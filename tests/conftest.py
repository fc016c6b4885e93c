import tracemalloc

import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collects one pass/fail line per acceptance criterion; the lines are
    echoed in the terminal summary."""
    return _ACCEPTANCE_LINES


@pytest.fixture
def traced_peak():
    """Peak bytes traced while a function runs; numpy reports its array
    buffers."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
