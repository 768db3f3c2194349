"""The repo's pytest warning filters make every warning an error, yet a
failing property test is still reported as one failure among the others.

When a hypothesis test fails, hypothesis imports libcst to explain the
failure, and that import raises mypy_extensions' "TypedDict is deprecated"
DeprecationWarning. Under a bare "error" filter the warning ends the whole
session with INTERNALERROR, so no later test runs. pyproject.toml ignores
that one message and keeps "error" for every other warning."""

import subprocess
import sys

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(request, tmp_path):
    # the filters as pytest read them from pyproject.toml, run on a failing
    # property test followed by a passing one
    assert request.config.inipath.name == "pyproject.toml"
    filters = request.config.getini("filterwarnings")
    assert filters[0] == "error"
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    ini = "[pytest]\nfilterwarnings =\n" + "".join(f"    {line}\n" for line in filters)
    (tmp_path / "pytest.ini").write_text(ini, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", "pytest.ini", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
