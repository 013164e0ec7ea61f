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


def test_oracle_takes_only_verify_antimagic_from_the_verifier():
    # The oracle's recount must stay independent of the verifier it checks.
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "verification"
        for alias in node.names
    }
    module_reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "verification"]
    attributes = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "verification"
    ]
    assert len(module_reads) == len(attributes)  # the module is only read through an attribute
    assert names | set(attributes) == {"verify_antimagic"}


def test_oracle_recount_reads_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    (recount,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "sums_distinct"]
    read = {node.id for statement in recount.body for node in ast.walk(statement) if isinstance(node, ast.Name)}
    assert imported >= {"verification", "OrientedLabeling"}
    assert read & imported == set()


IMPORT_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import antimagic, antimagic.cli, antimagic.generators, antimagic.oracle
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_inspect_or_traceback():
    # Importing is a large share of a one-instance CLI run, and these modules
    # (with the ast, dis and tokenize that inspect loads) serve no correct run.
    # The site module may have loaded some of them already: only the import's
    # own additions count.
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "antimagic.cli" in added
    assert added & {"dataclasses", "inspect", "traceback"} == set()


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
