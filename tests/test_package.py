import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincorr

SRC = str(Path(spincorr.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]

# the closed-form path: `import spincorr` loads these modules and exports
# these names
EXPORTS = {
    "cg": ["cg_squared"],
    "errors": ["ConstraintError", "InvalidQuantumNumberError", "SpincorrError"],
    "halfint": ["format_half_integer", "parse_half_integer"],
    "pathcount": ["Priors", "probability_table"],
    "selection": ["allowed_m_pairs", "check_triangle", "g12_range", "j12_range"],
}
# the oracles, imported from their own modules only
ORACLES = {
    "quantum_numbers": ["counts4_from_qn4", "counts8_from_qn8", "f_factor",
                        "j12_bounds_constrained", "pair_counts4", "phi", "qn4_from_counts",
                        "qn4_of_corrseq", "qn4_of_packed", "qn8_from_counts", "witness_triple"],
    "sequences": ["BitSeq", "CorrSeq", "alphabet", "apply_map", "correlate", "count_symbols",
                  "render"],
}
MODULE_OF = {name: module for module, names in {**EXPORTS, **ORACLES}.items() for name in names}
# the package modules each source file imports, at any depth of its syntax
# tree, so a function-level import counts
IMPORT_MAP = {
    "__init__": {"cg", "errors", "halfint", "pathcount", "selection"},
    "brute": {"errors", "quantum_numbers", "sequences"},
    "cg": {"selection"},
    "cli": {"cg", "errors", "halfint", "pathcount", "selection", "selftest"},
    "errors": set(),
    "halfint": {"errors"},
    "pathcount": {"errors", "halfint", "records", "selection"},
    "quantum_numbers": {"errors", "selection", "sequences"},
    "records": set(),
    "selection": {"errors"},
    "selftest": {"brute", "pathcount", "quantum_numbers", "selection", "sequences"},
    "sequences": {"records"},
}
SUBMODULES = sorted(set(IMPORT_MAP) - {"__init__"})


def test_all_lists_the_exports():
    assert sorted(spincorr.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(spincorr.__all__) == 12


def test_star_import_and_dir_give_every_export():
    namespace = {}
    exec("from spincorr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(spincorr.__all__)
    assert set(spincorr.__all__) | set(EXPORTS) <= set(dir(spincorr))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute_resolves(name):
    # no name the package binds shadows a submodule: once imported, the
    # package attribute is the module
    module = importlib.import_module(f"spincorr.{name}")
    assert getattr(spincorr, name) is module


@pytest.mark.parametrize("name", sorted(MODULE_OF))
def test_export_is_the_defining_module_binding(name):
    # every public name is defined where it is imported from, and the
    # package binds the closed-form names and none of the oracles
    module = importlib.import_module(f"spincorr.{MODULE_OF[name]}")
    value = getattr(module, name)
    assert value.__module__ == module.__name__
    assert getattr(spincorr, name, None) is (value if MODULE_OF[name] in EXPORTS else None)


@pytest.mark.parametrize(
    "module, name",
    [(spincorr, "no_such_name"), (spincorr, "l12_bounds"),
     (spincorr.pathcount, "no_such_name"), (spincorr.pathcount, "l12_bounds")],
)
def test_unknown_name_raises_attribute_error(module, name):
    with pytest.raises(AttributeError, match=name):
        getattr(module, name)


def test_phi_is_one_function_everywhere():
    # phi and f_factor are oracles: neither the package nor the table
    # module pathcount names them, and every module that does binds the one
    # defined in quantum_numbers
    from spincorr import quantum_numbers

    for module in (spincorr, spincorr.pathcount):
        assert not hasattr(module, "phi")
        assert not hasattr(module, "f_factor")
    for name in SUBMODULES:
        module = importlib.import_module(f"spincorr.{name}")
        for oracle in ("phi", "f_factor"):
            assert getattr(module, oracle, None) in (None, getattr(quantum_numbers, oracle))


def test_projection_rule_is_raised_in_selection_only():
    # selection.require_projection is the one raise site of -j <= m <= j
    sources = sorted((ROOT / "src" / "spincorr").glob("*.py"))
    assert sources
    assert [p.name for p in sources if "must satisfy" in p.read_text()] == ["selection.py"]


def test_record_construction_is_defined_in_records_only():
    # records.Record is the one home of _make; the three records inherit it
    # instead of restating it
    sources = sorted((ROOT / "src" / "spincorr").glob("*.py"))
    assert [p.name for p in sources if "def _make" in p.read_text()] == ["records.py"]


def package_imports(path):
    """The spincorr names that the source file at `path` imports from, at
    any depth of its syntax tree: `from .errors import X` gives errors, and
    `from . import brute` gives brute."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = ".".join(filter(None, ["spincorr" if node.level else "", node.module]))
            targets = [f"{dotted}.{alias.name}" for alias in node.names]
        else:
            continue
        imported.update(t.split(".")[1] for t in targets if t.startswith("spincorr."))
    return imported


def import_map():
    """Each source file's module name, mapped to the package modules it imports."""
    paths = sorted((ROOT / "src" / "spincorr").glob("*.py"))
    modules = {p.stem for p in paths}
    return {p.stem: package_imports(p) & modules for p in paths}


def reached_from(module):
    """The package modules that `module` imports directly or through others."""
    graph, reached, todo = import_map(), set(), [module]
    while todo:
        for name in graph[todo.pop()] - reached:
            reached.add(name)
            todo.append(name)
    return reached


def test_import_map():
    # the layering, read from the source without importing it: the package
    # init imports the closed-form path only, neither cli nor an oracle
    assert import_map() == IMPORT_MAP


def test_selection_is_a_leaf():
    # the spin rules import nothing of the package but its errors, so every
    # module, the table path included, can call them
    assert reached_from("selection") == {"errors"}


def test_sequences_is_a_leaf():
    # the sequence layer builds on records alone: the enumeration cap, and
    # with it errors, lives in brute
    assert reached_from("sequences") == {"records"}


def test_quantum_numbers_keeps_doubled_integers():
    # the four- and eight-number sets hold doubled integers only; halfint and cli
    # turn them into fractions or text at the edges, so the quantum numbers
    # never reach halfint
    assert reached_from("quantum_numbers") == {"errors", "records", "selection", "sequences"}


def run_python(*argv):
    # -S keeps the site hooks of the interpreter's installation, which may
    # import anything, out of the check
    return subprocess.run([sys.executable, "-S", *argv], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": SRC})


def test_bare_import_loads_only_the_closed_form_path():
    done = run_python("-c", "import sys, spincorr\n"
                      "print(*sorted(m for m in sys.modules if m.startswith('spincorr.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "spincorr.cg", "spincorr.errors", "spincorr.halfint", "spincorr.pathcount",
        "spincorr.records", "spincorr.selection",
    ]


def test_module_entry_point_runs_with_warnings_as_errors():
    # runpy warns when `python -m spincorr.cli` finds spincorr.cli already
    # imported, as it would be if the package init imported it
    done = run_python("-W", "error", "-m", "spincorr.cli", "prob",
                      "--n", "6", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[1:] == [
        "6,1,1,1,0,1,-1,8,17,0.470588", "6,1,1,1,0,0,0,1,17,0.058824",
        "6,1,1,1,0,-1,1,8,17,0.470588",
    ]


GUARDED_SESSION = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x is None


def test_passes():
    pass
"""


def test_failing_property_test_leaves_the_session_running(tmp_path):
    # the repository's warning filters turn warnings into errors; one that a
    # plugin emits while reporting a failed hypothesis test must not abort
    # the session and hide the results after it
    (tmp_path / "test_guarded.py").write_text(GUARDED_SESSION)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_guarded.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    report = done.stdout + done.stderr
    assert done.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "1 failed, 1 passed" in done.stdout, report
