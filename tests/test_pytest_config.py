"""The repository's pytest configuration reports every failure.

filterwarnings = ["error"] turns warnings into errors.  hypothesis, while
reporting a falsified example, touches mypy_extensions.TypedDict, whose
DeprecationWarning would then abort the whole run with INTERNALERROR and
leave later tests unreported; the configuration ignores that one warning.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")

FAILING_TESTS = textwrap.dedent(
    """
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(deadline=None, max_examples=5, database=None)
    @given(st.integers())
    def test_given_fails(x):
        assert x != x


    def test_plain_fails():
        assert False
    """
)


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_two_failures.py").write_text(FAILING_TESTS)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two_failures.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert "INTERNALERROR" not in res.stdout
    assert "2 failed" in res.stdout
