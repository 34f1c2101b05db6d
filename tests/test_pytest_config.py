"""The project's pytest configuration reports every failure.

``filterwarnings = ["error"]`` turns warnings into errors. A warning raised
by a plugin while it reports a failure would then end the session with an
INTERNALERROR and hide every later result, so a failing hypothesis test
must still be reported as an ordinary failure.
"""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


def test_failing_property_test_is_reported_and_later_tests_run(pytester):
    pytester.makefile(".toml", pyproject=(ROOT / "pyproject.toml").read_text())
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.stdout.fnmatch_lines(["*Falsifying example*", "*1 failed, 1 passed*"])
