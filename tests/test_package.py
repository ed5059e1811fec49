import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincorr

SRC = str(Path(spincorr.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [
    "cg_squared", "convergence_scan",
    "BudgetExceededError", "ConstraintError", "InvalidQuantumNumberError",
    "SpincorrError",
    "format_half_integer", "parse_half_integer",
    "Priors", "k_bounds", "probability_table",
    "QN4", "QN8", "counts4_from_qn4", "counts8_from_qn8", "f_factor",
    "j12_bounds_constrained", "phi", "qn4_from_counts", "qn4_of_corrseq",
    "qn8_from_counts",
    "allowed_m_pairs", "check_triangle", "g12_range", "j12_range",
    "BitSeq", "CorrSeq", "apply_map", "correlate", "count_symbols",
]
SUBMODULES = [
    "brute", "cg", "cli", "errors", "halfint", "pathcount", "quantum_numbers",
    "records", "selection", "selftest", "sequences",
]


def test_all_lists_the_exports():
    assert len(EXPORTS) == 30
    assert sorted(spincorr.__all__) == sorted(EXPORTS)


def test_trusted_constructors_are_not_exported():
    # BitSeq/CorrSeq/QN4._trusted skip validation, so they stay private:
    # reachable on their classes only, and test_all_lists_the_exports
    # still counts 30 exports
    for record in (spincorr.BitSeq, spincorr.CorrSeq, spincorr.QN4):
        assert hasattr(record, "_trusted")
    assert not [name for name in spincorr.__all__ if name.startswith("_")]
    assert "_trusted" not in dir(spincorr)


def test_star_import_and_dir_give_every_export():
    namespace = {}
    exec("from spincorr import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert set(EXPORTS) | set(SUBMODULES) <= set(dir(spincorr))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute_resolves(name):
    assert getattr(spincorr, name) is importlib.import_module(f"spincorr.{name}")


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_defining_module_binding(name):
    value = getattr(spincorr, name)
    assert getattr(importlib.import_module(value.__module__), name) is value


@pytest.mark.parametrize(
    "module, name",
    [(spincorr, "no_such_name"), (spincorr, "l12_bounds"),
     (spincorr.pathcount, "no_such_name"), (spincorr.pathcount, "l12_bounds")],
)
def test_unknown_name_raises_attribute_error(module, name):
    with pytest.raises(AttributeError, match=name):
        getattr(module, name)


def test_phi_is_one_function_everywhere():
    # phi and f_factor are oracles: the table module pathcount names neither
    assert not hasattr(spincorr.pathcount, "phi")
    assert not hasattr(spincorr.pathcount, "f_factor")
    assert spincorr.phi is spincorr.quantum_numbers.phi
    assert spincorr.f_factor is spincorr.quantum_numbers.f_factor


def test_projection_rule_is_raised_in_selection_only():
    # selection.require_projection is the one raise site of -j <= m <= j
    sources = sorted((ROOT / "src" / "spincorr").glob("*.py"))
    assert sources
    assert [p.name for p in sources if "must satisfy" in p.read_text()] == ["selection.py"]


def test_record_construction_is_defined_in_records_only():
    # records.Record is the one home of _make and _trusted; the five
    # records inherit them instead of restating them
    sources = sorted((ROOT / "src" / "spincorr").glob("*.py"))
    for definition in ("def _make", "def _trusted"):
        assert [p.name for p in sources if definition in p.read_text()] == ["records.py"]


def test_bare_import_loads_no_submodule_until_asked():
    script = (
        "import sys, spincorr\n"
        "print(sorted(m for m in sys.modules if m.startswith('spincorr.')))\n"
        "print(spincorr.cg.__name__, spincorr.Priors.__module__)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=30, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "spincorr.cg spincorr.pathcount"]


def package_modules_loaded_by(module):
    """The spincorr submodules that `import spincorr.<module>` loads, sorted."""
    script = (
        f"import sys, spincorr.{module}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('spincorr.')))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=30, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_selection_is_a_leaf():
    # the spin rules import nothing of the package but its errors, so every
    # module, the table path included, can call them
    assert package_modules_loaded_by("selection") == ["spincorr.errors", "spincorr.selection"]


def test_sequences_is_a_leaf():
    # the sequence layer builds on records alone: the enumeration cap, and
    # with it errors, lives in brute
    assert package_modules_loaded_by("sequences") == ["spincorr.records", "spincorr.sequences"]


def test_quantum_numbers_keeps_doubled_integers():
    # QN4 and QN8 hold doubled integers only; halfint and cli turn them into
    # fractions or text at the edges, so the quantum numbers never load halfint
    assert package_modules_loaded_by("quantum_numbers") == [
        "spincorr.errors", "spincorr.quantum_numbers", "spincorr.records",
        "spincorr.selection", "spincorr.sequences",
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
