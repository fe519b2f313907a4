"""The repository's pytest settings, run on a test of their own."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_fails(x):
        assert x < 10
    """
)


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # Warnings are errors here, so one raised while hypothesis reports a
    # failure would end the pytest run as an INTERNALERROR (exit 3) without
    # the falsifying example.
    test = tmp_path / "test_failing.py"
    test.write_text(FAILING)
    args = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test)]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *args], capture_output=True, text=True, cwd=tmp_path, timeout=120
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
