"""Project-wide checks: the package's import boundaries and the pytest configuration."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "antimagic"


def imports(path):
    """(level, module, imported names) for each import statement in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or "", tuple(alias.name for alias in node.names)


def test_package_imports_only_the_standard_library():
    outside = [
        (path.name, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for level, module, _ in imports(path)
        if level == 0 and module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_verifier_takes_only_the_trace_from_the_construction():
    taken = [
        (module, names)
        for level, module, names in imports(PACKAGE / "verification.py")
        if level and (module == "construction" or "construction" in names)
    ]
    assert taken == [("construction", ("ConstructionTrace",))]


FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 5

def test_passes():
    pass
"""


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    # Reporting a failing hypothesis example imports libcst, which warns on
    # import; the warning filters must not turn that into an internal error.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
