"""Exact-arithmetic embedding obstruction certificates for Brieskorn homology spheres.

The pipeline: multiplicities -> Seifert invariants -> negative-definite
star-shaped plumbing -> lattice computations (diagonalizability, sharp
pairing, correction term) -> twist/slope arithmetic -> verdict.

The package root holds the entry points and the error classes; every other
name lives in its module (seifert, plumbing, lattice, obstruction, families).
"""

from .errors import (
    CertificateViolation,
    DivisionByZero,
    EnumerationCapExceeded,
    InvalidParameter,
    InvalidRange,
    MultiplicityTooSmall,
    NotCoprime,
    NotDiagonalizable,
    RankTooLarge,
    SeifertGateError,
    TooFewFibers,
)
from .families import mp_family, transverse_contact_exists
from .lattice import DiagonalizationCertificate, diagonalize, norm_minus_one_vectors
from .obstruction import ObstructionReport, Verdict, verdict
from .seifert import validate_multiplicities

__version__ = "0.1.0"
