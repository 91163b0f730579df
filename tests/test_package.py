"""The names the package root offers.

The root keeps the entry points the README shows, the two lattice calls and
the report types, and the error classes; every other name is imported from
its module.  The benchmark's session and tracer reach verdict,
EnumerationCapExceeded and norm_minus_one_vectors through the root.  Each
module's __all__ lists the public functions and classes it defines.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import seifert_gate

PUBLIC = {
    "verdict",
    "validate_multiplicities",
    "mp_family",
    "transverse_contact_exists",
    "diagonalize",
    "norm_minus_one_vectors",
    "DiagonalizationCertificate",
    "ObstructionReport",
    "Verdict",
    "SeifertGateError",
    "TooFewFibers",
    "MultiplicityTooSmall",
    "NotCoprime",
    "DivisionByZero",
    "InvalidRange",
    "EnumerationCapExceeded",
    "RankTooLarge",
    "NotDiagonalizable",
    "CertificateViolation",
    "InvalidParameter",
}


def test_public_names_are_pinned():
    names = {
        name
        for name, value in vars(seifert_gate).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == PUBLIC


def test_src_has_no_assert_statement():
    # python -O strips assert statements, so no check in the package may be one
    paths = sorted(Path(seifert_gate.__file__).parent.glob("*.py"))
    assert {"cli.py", "lattice.py", "obstruction.py"} <= {path.name for path in paths}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("name", ["seifert", "plumbing", "lattice", "obstruction", "families", "cli"])
def test_module_all_lists_what_the_module_defines(name):
    # every entry names something in the module, and the functions and
    # classes among them are exactly the public ones the module defines
    module = importlib.import_module(f"seifert_gate.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    exported = {entry for entry in module.__all__ if _defined_here(module, getattr(module, entry))}
    defined = {
        key for key, value in vars(module).items() if not key.startswith("_") and _defined_here(module, value)
    }
    assert exported == defined


def _defined_here(module, value):
    return (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == module.__name__
