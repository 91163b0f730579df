"""The names the package root offers.

The root keeps the entry points the README shows, the two lattice calls and
the report types, and the error classes; every other name is imported from
its module.  The benchmark's session and tracer reach verdict,
EnumerationCapExceeded and norm_minus_one_vectors through the root.
"""

import inspect

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

