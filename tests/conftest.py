"""Suite-wide pytest hooks."""

import warnings

import pytest


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """After a failure, import Hypothesis's report module with deprecations ignored.

    Hypothesis imports ``hypothesis.extra._patching`` to report a failing
    property. Its import of ``libcst`` can raise a ``DeprecationWarning``,
    which ``-W error`` would turn into an INTERNALERROR that hides the
    falsifying example. The import takes about a second, so passing and
    expected-to-fail tests skip it.
    """
    if call.excinfo is None or item.get_closest_marker("xfail"):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass
