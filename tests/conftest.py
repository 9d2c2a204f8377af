import warnings

# On a failing property, hypothesis's pytest plugin imports libcst to write
# its patch, and that import raises a mypy_extensions DeprecationWarning,
# which the "error" warning filter would turn into an INTERNALERROR that
# hides the falsifying example and stops the run.  Importing libcst once
# here, with that warning ignored, leaves the filter as it is everywhere else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance summary lines after capture is released."""
    try:
        from test_acceptance import ACCEPT_LINES
    except ImportError:
        return
    if ACCEPT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPT_LINES:
            terminalreporter.write_line(line)
