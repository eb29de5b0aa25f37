import os

import pytest

# the worked example threaded through most module docs: R 126 -> 10, S 78 -> 8
B_EXAMPLE = ((1, 1, 1), (-1, 0, 2), (3, 5, 6))
B_EXAMPLE_REDUCED = ((0, 1, 0), (1, 0, 1), (-1, 0, 2))

# verdict lines collected by test_acceptance, echoed after the test report so
# they are visible without -s
ACCEPTANCE_LINES = []


@pytest.fixture
def b_example():
    return B_EXAMPLE


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src/ ahead of PYTHONPATH;
    # name the package the run actually tests
    import cubify
    return "cubify imported from %s" % os.path.dirname(cubify.__file__)
