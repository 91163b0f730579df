import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest

from seifert_gate import (
    CertificateViolation,
    DiagonalizationCertificate,
    EnumerationCapExceeded,
    InvalidParameter,
    NotDiagonalizable,
    RankTooLarge,
    diagonalize,
    norm_minus_one_vectors,
    validate_multiplicities,
)
from seifert_gate import lattice, obstruction, plumbing
from seifert_gate.plumbing import (
    MAX_SEARCH_RANK,
    IntersectionForm,
    intersection_form,
)
from seifert_gate.lattice import (
    _characteristic_parity,
    _greedy_descent,
    _split_off_units,
    d_invariant,
    dual_class,
    max_sharp_pairing,
)
from seifert_gate.obstruction import twist_lower_bound, verdict
from oracles import (
    box_d_invariant,
    box_norm_minus_one,
    brute_force_sharp_max,
    cholesky_form,
    complement_by_gram,
    dense,
    dense_cholesky,
    form_for,
    form_from_matrix,
    gauss_inverse,
    integer_levels,
    mat_mul,
    per_unit_units_check,
    quad_value,
    transpose,
    units_are_orthonormal,
)
from test_golden import CAP, CORPORA, GOLDEN


def d_of(f, cap=lattice.DEFAULT_ENUMERATION_CAP):
    """d of a form, from the certificate diagonalize builds at that cap."""
    return d_invariant(diagonalize(f, cap))


def minus_identity(n):
    return form_from_matrix([[-int(i == j) for j in range(n)] for i in range(n)])


E8 = form_for((2, 3, 5))
DIAGONALIZABLE_SMALL = [(2, 3, 7), (2, 3, 13), (3, 4, 5), (2, 5, 7), (2, 3, 19), (2, 5, 11)]


class TestNormMinusOneVectors:
    def test_rank_one(self):
        f = form_from_matrix([[-1]])
        assert norm_minus_one_vectors(f) == [(1,)]

    def test_e8_has_none(self):
        assert norm_minus_one_vectors(E8) == []

    def test_diagonal_rank_two(self):
        f = form_from_matrix([[-1, 0], [0, -1]])
        assert norm_minus_one_vectors(f) == [(1, 0), (0, 1)]

    def test_norms_and_sign_normalization(self):
        for a in DIAGONALIZABLE_SMALL:
            f = form_for(a)
            vs = norm_minus_one_vectors(f)
            assert vs == sorted(vs, reverse=True)
            for v in vs:
                assert quad_value(dense(f), v) == -1
                assert next(c for c in v if c != 0) > 0

    @pytest.mark.parametrize("a", [(2, 3, 7), (2, 3, 13), (3, 4, 5), (2, 5, 7), (2, 3, 19)])
    def test_matches_box_enumeration_up_to_rank_six(self, a):
        f = form_for(a)
        assert f.m <= 6
        assert norm_minus_one_vectors(f) == box_norm_minus_one(dense(f))

    @pytest.mark.parametrize(
        "rows",
        [
            [[-2, 1], [1, -1]],
            [[-2, 1, 0], [1, -2, 1], [0, 1, -1]],
            [[-3, 1, 1], [1, -1, 0], [1, 0, -1]],
            [[-2, -1, -2], [-1, -2, -2], [-2, -2, -3]],
            [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -1]],
        ],
    )
    def test_matches_box_enumeration_with_half_integer_centres(self, rows):
        # a completion entry of 1/2 puts some level's centre on a rounding tie
        f = form_from_matrix(rows)
        assert abs(f.det) == 1
        completion = cholesky_form([[-x for x in row] for row in rows])
        assert any(x.denominator == 2 for row in completion[1] for _, x in row)
        assert f.levels == integer_levels(completion)
        assert norm_minus_one_vectors(f) == box_norm_minus_one(rows)

    def test_box_enumeration_diagonal(self):
        f = form_from_matrix([[-1, 0], [0, -1]])
        assert norm_minus_one_vectors(f) == box_norm_minus_one([[-1, 0], [0, -1]])

    def test_cap_is_enforced(self):
        with pytest.raises(EnumerationCapExceeded):
            norm_minus_one_vectors(E8, cap=3)
        f = form_for((5, 7, 11, 13))
        with pytest.raises(EnumerationCapExceeded):
            d_of(f, cap=1000)

    def test_rejects_indefinite(self):
        # no indefinite form exists to search
        with pytest.raises(ValueError, match="negative definite"):
            form_from_matrix([[1, 0], [0, -1]])


class TestDiagonalize:
    def test_2_3_13_certificate(self):
        f = form_for((2, 3, 13))
        cert = diagonalize(f)
        assert cert.present
        e_cols = [list(col) for col in zip(*cert.E)]
        # E^T Q E == -I, checked entry-exactly via plain matrix products
        et_q_e = mat_mul(mat_mul(transpose([list(r) for r in cert.E]), dense(f)), [list(r) for r in cert.E])
        minus_identity = [[-1 if i == j else 0 for j in range(f.m)] for i in range(f.m)]
        assert et_q_e == minus_identity
        assert len(e_cols) == f.m

    def test_e8_absent_with_witness(self):
        cert = diagonalize(E8)
        assert not cert.present
        assert len(cert.units) == 0

    def test_diagonal_gives_identity(self):
        f = form_from_matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
        cert = diagonalize(f)
        assert cert.present
        assert cert.E == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_small_brieskorn_forms_diagonalizable(self):
        for a in DIAGONALIZABLE_SMALL:
            cert = diagonalize(form_for(a))
            assert cert.present

    def test_partial_unit_sublattice_witness(self):
        # the form splits off three (-1) summands but is not diagonalizable
        cert = diagonalize(form_for((2, 3, 23)))
        assert not cert.present
        assert len(cert.units) == 3

    def test_rejects_non_unimodular(self):
        f = form_from_matrix([[-2]])
        with pytest.raises(ValueError):
            diagonalize(f)


class TestCapRule:
    """One rule for a node budget, lattice.validate_cap, wherever a cap enters."""

    # verdict's refusals are in test_obstruction.py
    @pytest.mark.parametrize("cap", [True, 0, 10**4 + 0.5, "100"], ids=["bool", "zero", "float", "str"])
    @pytest.mark.parametrize(
        "entry",
        [
            norm_minus_one_vectors,
            diagonalize,
            lambda f, cap: DiagonalizationCertificate(form=f, units=(), nodes=0, cap=cap),
        ],
        ids=["norm_minus_one_vectors", "diagonalize", "certificate"],
    )
    def test_a_cap_that_is_no_positive_integer_is_refused(self, entry, cap):
        with pytest.raises(InvalidParameter, match="cap must be an int >= 1"):
            entry(E8, cap)

    def test_a_numpy_integer_cap_is_read_as_an_int(self):
        cert = diagonalize(E8, np.int64(29))
        assert type(cert.cap) is int and cert == diagonalize(E8, 29)
        assert norm_minus_one_vectors(E8, np.int32(29)) == []
        with pytest.raises(EnumerationCapExceeded):
            diagonalize(E8, np.int64(28))


MINUS_I2 = form_from_matrix([[-1, 0], [0, -1]])


class TestCertificateCheck:
    """Integer entries, norms -1 and distinctness up to sign, on a unimodular form."""

    def test_accepts_the_standard_basis_in_any_sign_and_order(self):
        cert = DiagonalizationCertificate(form=MINUS_I2, units=((0, -1), (1, 0)), nodes=0, cap=1)
        assert cert.present

    @pytest.mark.parametrize(
        "form, units",
        [
            # Gram matrix -I over Q, but not in Z^2
            (MINUS_I2, ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))),
            (MINUS_I2, ((1.0, 0.0), (0.0, 1.0))),
            (MINUS_I2, ((1, 1),)),  # norm -2
            (MINUS_I2, ((1, 0), (1, 0))),  # repeated
            (MINUS_I2, ((1, 0), (-1, 0))),  # with its negative
            (MINUS_I2, ((1,),)),  # short
            (form_from_matrix([[-2, 1], [1, -2]]), ()),  # det 3
        ],
        ids=["rational", "float", "norm-2", "repeated", "negated", "short", "det-3"],
    )
    def test_rejects(self, form, units):
        with pytest.raises(ValueError):
            DiagonalizationCertificate(form=form, units=units, nodes=0, cap=1)

    # The norms read the off-diagonal entries from upper, which holds none at
    # rank 1 and one at rank 2.  Accepting (1, 1) needs the entry, and
    # (1, -1), of norm -5, would pass with the entry's sign flipped.
    @pytest.mark.parametrize(
        "rows, forged",
        [([[-1]], (2,)), ([[-1, 1], [1, -2]], (1, -1))],
        ids=["rank-1", "rank-2-one-entry"],
    )
    def test_reads_zero_and_one_off_diagonal_entries(self, rows, forged):
        f = form_from_matrix(rows)
        assert len(f.upper[2]) == f.m - 1
        units = tuple(norm_minus_one_vectors(f))
        assert units == (((1,),) if f.m == 1 else ((1, 1), (1, 0)))
        assert DiagonalizationCertificate(form=f, units=units, nodes=0, cap=1).present
        with pytest.raises(ValueError, match="self-intersection -1"):
            DiagonalizationCertificate(form=f, units=(forged,), nodes=0, cap=1)
        with pytest.raises(ValueError, match="integer vectors"):
            DiagonalizationCertificate(form=f, units=(tuple(map(float, units[0])),), nodes=0, cap=1)

    # Each unit's norm is reached from the unit before it through the entries
    # that are not the same objects as that unit's: those alone are
    # type-checked and fed into Q w, so equal values are compared as objects.
    def test_equal_entries_that_are_distinct_objects_are_accepted(self):
        # -I_3 in the basis B, whose inverse has the columns (1, 300, 300), (0, 1, 300), (0, 0, 1)
        b = [[1, 0, 0], [-300, 1, 0], [89700, -300, 1]]
        f = form_from_matrix([[-sum(r[i] * r[j] for r in b) for j in range(3)] for i in range(3)])
        big = [int(str(300)) for _ in range(3)]
        units = ((1, big[0], big[1]), (0, 1, big[2]), (0, 0, 1))
        assert big[1] == big[2] and big[1] is not big[2] and units_are_orthonormal(f, units)
        assert DiagonalizationCertificate(form=f, units=units, nodes=0, cap=1).present

    def test_a_float_equal_to_the_previous_units_int_is_refused(self):
        f = form_from_matrix([[-1, 1], [1, -2]])
        assert DiagonalizationCertificate(form=f, units=((1, 1), (1, 0)), nodes=0, cap=1).present
        with pytest.raises(ValueError, match="integer vectors"):
            DiagonalizationCertificate(form=f, units=((1, 1), (1.0, 0)), nodes=0, cap=1)

    def test_a_float_after_a_wrong_norm_is_refused_as_the_oracle_refuses_it(self):
        units = ((1, 1), (0.0, 1))  # norm -2, then a float
        with pytest.raises(ValueError, match="integer vectors") as oracle:
            per_unit_units_check(MINUS_I2, units)
        with pytest.raises(ValueError, match="integer vectors") as library:
            DiagonalizationCertificate(form=MINUS_I2, units=units, nodes=0, cap=1)
        assert str(library.value) == str(oracle.value)

    def test_no_form_exists_where_cauchy_schwarz_fails(self):
        # on diag(-1, -1, 1), (1, 0, 0) and (1, 1, 1) have norm -1 and pair to -1
        with pytest.raises(ValueError, match="negative definite"):
            form_from_matrix(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))


class TestDualClass:
    def test_defining_property(self):
        # D = Q^-1 e_1 pairs to delta_1j with the vertex basis, so D.D = D_1
        for a in [(2, 3, 7), (2, 3, 13), (3, 4, 5)]:
            f = form_for(a)
            q = dense(f)
            d = [row[0] for row in gauss_inverse(q)]
            for j in range(f.m):
                assert sum(d[i] * q[i][j] for i in range(f.m)) == (j == 0)
            assert dual_class(f) == d[0]


class TestMaxSharpPairing:
    def test_rank_one(self):
        f = form_from_matrix([[-1]])
        assert max_sharp_pairing(diagonalize(f), dual_class(f)) == 1

    def test_diagonal_rank_two(self):
        f = form_from_matrix([[-1, 0], [0, -1]])
        assert max_sharp_pairing(diagonalize(f), dual_class(f)) == 1

    def test_2_3_7_value(self):
        f = form_for((2, 3, 7))
        assert max_sharp_pairing(diagonalize(f), dual_class(f)) == 10

    def test_2_3_13_value_and_parity(self):
        f = form_for((2, 3, 13))
        p = max_sharp_pairing(diagonalize(f), dual_class(f))
        assert p == 16
        assert p % 2 == 0 and p * p >= 78

    def test_not_diagonalizable_raises(self):
        with pytest.raises(NotDiagonalizable):
            max_sharp_pairing(diagonalize(E8), dual_class(E8))

    def test_matches_brute_force_over_sharp_vectors(self):
        for a in DIAGONALIZABLE_SMALL:
            f = form_for(a)
            cert = diagonalize(f)
            assert f.m <= 12
            p = max_sharp_pairing(cert, dual_class(f))
            oracle = brute_force_sharp_max(dense(f), [list(r) for r in cert.E])
            assert p == oracle

    def test_l1_l2_inequalities(self):
        # what follows from sum E_0k^2 = A, the one check on P, on the small
        # diagonalizable tuples and every gap line of both golden corpora
        gap_lines = [
            tuple(doc["input"])
            for name in CORPORA
            for doc in map(json.loads, (GOLDEN / name).read_text().splitlines())
            if doc.get("verdict") == "obstructed_floer_gap"
        ]
        assert len(gap_lines) == 59
        for a in DIAGONALIZABLE_SMALL + gap_lines:
            report = verdict(a, cap=CAP)
            big_a = report.multiplicities.product
            p = max_sharp_pairing(report.certificate, dual_class(report.form))
            assert p == report.tau.P
            assert p >= 1 - twist_lower_bound(big_a)
            assert (p - big_a) % 2 == 0
            assert report.gap_lower >= 2
            assert report.tau.smooth_tau_upper_sharp <= report.tau.smooth_tau_upper_paper


class TestDInvariant:
    def test_rank_one(self):
        assert d_of(form_from_matrix([[-1]])) == 0

    def test_e8_value(self):
        assert d_of(E8) == 2

    def test_e8_matches_box_search(self):
        assert box_d_invariant(dense(E8)) == 2

    def test_diagonalizable_cases_are_zero(self):
        for a in DIAGONALIZABLE_SMALL:
            assert d_of(form_for(a)) == 0

    @pytest.mark.parametrize(
        "rows",
        [
            [[-1]],
            [[-1, 0], [0, -1]],
            [[-2, 1], [1, -2]],
        ],
    )
    def test_small_forms_match_box_search(self, rows):
        f = form_from_matrix(rows)
        if abs(f.det) == 1:
            assert d_of(f) == box_d_invariant(rows)

    def test_plumbing_forms_match_box_search(self):
        for a in [(2, 3, 7), (2, 3, 13), (3, 4, 5), (2, 3, 11)]:
            f = form_for(a)
            assert d_of(f) == box_d_invariant(dense(f))

    def test_known_correction_terms(self):
        # frozen values for the standard orientation (singularity link)
        expected = {(2, 3, 5): 2, (2, 3, 7): 0, (2, 3, 11): 2, (2, 3, 13): 0}
        for a, value in expected.items():
            assert d_of(form_for(a)) == value

    def test_unit_splitting_agrees_with_direct_search(self):
        from seifert_gate.lattice import _coset_minimum

        for a in [(2, 3, 11), (2, 3, 23), (2, 5, 13), (2, 7, 9)]:
            f = form_for(a)
            direct = (f.m - _coset_minimum(f, 10**8)[0]) / 4
            assert d_of(f) == direct

    def test_rejects_non_unimodular(self):
        f = form_from_matrix([[-2, 1], [1, -2]])
        with pytest.raises(ValueError):
            d_invariant(DiagonalizationCertificate(form=f, units=(), nodes=0, cap=1))

    @pytest.mark.parametrize(
        "a, complement",
        [
            ((2, 3, 11), True),
            ((2, 3, 23), True),
            ((2, 5, 13), True),
            ((2, 7, 9), True),
            ((3, 4, 11), False),
            # the seeds of these two move away from the parity vector
            ((3, 11, 13), True),
            ((5, 8, 17), True),
        ],
    )
    def test_greedy_seed_value_and_coset(self, a, complement):
        f = form_for(a)
        if complement:
            units = diagonalize(f).units
            assert 0 < len(units) < f.m
            f = _split_off_units(f, units)
        parity = _characteristic_parity(f)
        seed, value = _greedy_descent(f, parity[:])
        assert value == quad_value([[-x for x in row] for row in dense(f)], seed)
        assert [c % 2 for c in seed] == parity

    @pytest.mark.parametrize("f", [form_for((2, 3, 13)), form_for((2, 3, 23)), E8])
    def test_value_is_a_fraction(self, f):
        # k == m, 0 < k < m and k == 0 units; the golden corpus prints 2.0 as 2
        assert type(d_of(f)) is Fraction

    def test_complement_rows_equal_the_dense_gram_route(self):
        # every pairwise-coprime triple of range(2, 30) with 0 < k < m units; the
        # census draws its triples from range(2, 16), so it is covered too
        seen = 0
        for a in combinations(range(2, 30), 3):
            if any(gcd(x, y) > 1 for x, y in combinations(a, 2)):
                continue
            f = form_for(a)
            units = diagonalize(f).units
            if not 0 < len(units) < f.m:
                continue
            sub, expected = _split_off_units(f, units), complement_by_gram(f, units)
            assert (sub.diagonal, sub.upper, sub.det, sub.minors, sub.levels) == (
                expected.diagonal, expected.upper, expected.det, expected.minors, expected.levels
            ), a
            seen += 1
        assert seen == 369


# Fewest search nodes each call needs.  The search must visit exactly these
# nodes in this order, or some tuple's cap outcome moves.
MINIMAL_CAPS = [
    # tuple, diagonalize, d_invariant
    ((2, 3, 5), 29, 32),
    ((2, 3, 13), 20, 20),
    ((3, 4, 11), 93, 4043),
    ((7, 8, 11), 137, 4979),
    ((5, 8, 13), 168, 141842),
]


class TestSearchIsPinned:
    @pytest.mark.parametrize("a, n_diag, n_d", MINIMAL_CAPS)
    def test_diagonalize_minimal_cap(self, a, n_diag, n_d):
        f = form_for(a)
        assert diagonalize(f, cap=n_diag).nodes == n_diag
        with pytest.raises(EnumerationCapExceeded):
            diagonalize(f, cap=n_diag - 1)

    @pytest.mark.parametrize("a, n_diag, n_d", MINIMAL_CAPS)
    def test_d_invariant_minimal_cap(self, a, n_diag, n_d):
        f = form_for(a)
        value = d_invariant(diagonalize(f, cap=n_d))
        with pytest.raises(EnumerationCapExceeded):
            d_invariant(diagonalize(f, cap=n_d - 1))
        # the d search continues a certificate's budget from its nodes, so the
        # units found within n_diag nodes, given the cap n_d, give the same d
        cert = diagonalize(f, cap=n_diag)
        assert cert.nodes == n_diag and cert.cap == n_diag
        assert d_invariant(DiagonalizationCertificate(form=f, units=cert.units, nodes=n_diag, cap=n_d)) == value
        if n_d > n_diag:
            with pytest.raises(EnumerationCapExceeded):
                d_invariant(DiagonalizationCertificate(form=f, units=cert.units, nodes=n_diag, cap=n_d - 1))

    def test_reused_certificate_must_be_orthonormal(self):
        f = form_for((2, 3, 13))
        cert = diagonalize(f)
        u = cert.units[0]
        # each has norm -1, but Q(u, u) = -1 where orthogonality needs 0
        for units in [(u, u), (u, tuple(-c for c in u))]:
            with pytest.raises(ValueError):
                DiagonalizationCertificate(form=f, units=units, nodes=0, cap=1)
        with pytest.raises(ValueError):
            DiagonalizationCertificate(form=f, units=cert.units, nodes=-1, cap=1)
        with pytest.raises(ValueError, match=r"node count must be in \[0, 19\], got 20"):
            DiagonalizationCertificate(form=f, units=cert.units, nodes=cert.nodes, cap=cert.nodes - 1)
        with pytest.raises(ValueError):
            DiagonalizationCertificate(form=f, units=(u[:-1],), nodes=0, cap=1)

    @pytest.mark.parametrize("nodes", [29.5, True, "3"])
    def test_certificate_node_count_must_be_an_integer(self, nodes):
        # d_invariant continues the count, so a float would run, and return d
        with pytest.raises(ValueError, match=r"node count must be in \[0, 10000\]"):
            DiagonalizationCertificate(form=form_for((2, 3, 5)), units=(), nodes=nodes, cap=10**4)

    def test_certificate_keeps_a_numpy_node_count_as_an_int(self):
        cert = DiagonalizationCertificate(form=form_for((2, 3, 5)), units=(), nodes=np.int64(29), cap=10**4)
        assert cert.nodes == 29 and type(cert.nodes) is int

    def test_certificate_freezes_its_units(self):
        # as a form freezes its entries: a list of lists is kept as tuples, so it
        # hashes and cannot grow past its check
        minus_i2 = IntersectionForm(diagonal=(-1, -1), upper=((), (), ()))
        cert = DiagonalizationCertificate(form=minus_i2, units=[[1, 0], [0, 1]], nodes=0, cap=1)
        same = DiagonalizationCertificate(form=minus_i2, units=((1, 0), (0, 1)), nodes=0, cap=1)
        assert cert == same and hash(cert) == hash(same) and cert.present
        with pytest.raises(AttributeError):
            cert.units.append((1, 1))

    def test_certificate_of_an_equal_form_is_reused(self):
        f = form_for((2, 3, 23))
        copy = form_from_matrix(dense(f))
        assert copy is not f
        assert d_invariant(diagonalize(copy)) == d_of(f) == 2

    def test_reused_certificate_is_not_checked_again(self, monkeypatch):
        f = form_for((2, 3, 13))
        cert = diagonalize(f)
        calls = []
        real = lattice._pairing

        def counting(v, qw):
            calls.append(1)
            return real(v, qw)

        monkeypatch.setattr(lattice, "_pairing", counting)
        assert d_invariant(cert) == 0
        assert calls == []

    @pytest.mark.parametrize(
        "a",
        [(2, 3, 6 * n + 1) for n in range(2, 51, 6)]
        + [(5, 8, 13), (11, 14, 15), (2, 3, 5, 7, 11, 13)],
    )
    def test_sparse_square_completion_matches_dense(self, a):
        # the sparse Fraction oracle against the dense one entry for entry,
        # and the form's integer levels against both
        f = form_for(a)
        g = [[-x for x in row] for row in dense(f)]
        d, u = cholesky_form(g)
        dense_d, dense_u = dense_cholesky(g)
        assert d == dense_d
        assert f.levels == integer_levels((d, u))
        assert f.det == (-1) ** f.m * prod(dense_d)
        for i, row in enumerate(u):
            columns = [j for j, _ in row]
            assert columns == sorted(columns)
            assert all(j > i and x != 0 for j, x in row)
            as_dense = [Fraction(0)] * len(g)
            for j, x in row:
                as_dense[j] = x
            assert as_dense == dense_u[i]


def test_rank_limit():
    # the first path descends through all 900 levels before the cap stops it
    with pytest.raises(EnumerationCapExceeded):
        norm_minus_one_vectors(minus_identity(MAX_SEARCH_RANK), cap=2 * MAX_SEARCH_RANK)
    # no form above the limit exists to search
    with pytest.raises(RankTooLarge) as excinfo:
        minus_identity(MAX_SEARCH_RANK + 1)
    assert str(excinfo.value) == f"form of rank 901 is above the search limit {MAX_SEARCH_RANK}"
    with pytest.raises(RankTooLarge, match="rank 1003 "):
        verdict((2, 3, 6001))


def test_searches_do_not_recurse():
    # far below the rank of either form, so any recursion per level would fail
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        with pytest.raises(EnumerationCapExceeded):
            norm_minus_one_vectors(minus_identity(MAX_SEARCH_RANK), cap=2 * MAX_SEARCH_RANK)
        report = verdict((2, 3, 1801))
    finally:
        sys.setrecursionlimit(old)
    assert report.form.m == 303 and report.certificate.present and report.d_inv == 0


def test_rank_is_rejected_before_the_legs_are_expanded(monkeypatch):
    def unreachable(numerator, denominator):
        raise AssertionError("neg_cf called")

    monkeypatch.setattr(plumbing, "neg_cf", unreachable)
    start = time.perf_counter()
    with pytest.raises(RankTooLarge) as excinfo:
        verdict((2, 3, 6 * 10**9 + 1))
    assert time.perf_counter() - start < 1
    assert str(excinfo.value) == "form of rank 1000000003 is above the search limit 900"


def test_rank_is_rejected_before_the_form_is_built(monkeypatch):
    def unreachable(graph):
        raise AssertionError("intersection_form called")

    monkeypatch.setattr(obstruction, "intersection_form", unreachable)
    for a, m in [((2, 3, 6001), 1003), ((2, 3, 60001), 10003)]:
        with pytest.raises(RankTooLarge) as excinfo:
            verdict(a)
        assert str(excinfo.value) == f"form of rank {m} is above the search limit {MAX_SEARCH_RANK}"


def test_fiber_count_is_rejected_before_validation(monkeypatch):
    # n fibers give rank >= n + 1, so 900 fibers are rejected unvalidated
    def unreachable(raw):
        raise AssertionError("validate_multiplicities called")

    monkeypatch.setattr(obstruction, "validate_multiplicities", unreachable)
    with pytest.raises(RankTooLarge) as excinfo:
        verdict(range(2, 902))
    assert str(excinfo.value) == f"900 fibers give a rank above the search limit {MAX_SEARCH_RANK}"
    with pytest.raises(AssertionError, match="validate_multiplicities called"):
        verdict(range(2, 901))


def test_certificate_checks_survive_optimize():
    """Under python -O, forged certificates, bad forms and bad verdict inputs are rejected."""
    script = """
from fractions import Fraction

from seifert_gate import (
    CertificateViolation, DiagonalizationCertificate, InvalidRange, RankTooLarge, diagonalize, verdict,
)
from seifert_gate import _linalg, plumbing
from seifert_gate.lattice import max_sharp_pairing
from seifert_gate.obstruction import TwistBound, twist_lower_bound
from seifert_gate.families import mpl_family, transverse_contact_exists
from seifert_gate.plumbing import IntersectionForm, PlumbingGraph, neg_cf
from seifert_gate.seifert import NormalizedPresentation, SeifertPresentation, validate_multiplicities

assert False, "asserts are stripped"


def refuse(what, error, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except error:
        return
    raise SystemExit(f"{what} accepted")


def certificate(form, units):
    return DiagonalizationCertificate(form=form, units=units, nodes=0, cap=1)


f = verdict((2, 3, 13)).form
u = diagonalize(f).units[0]
refuse("forged certificate", ValueError, certificate, f, (u, u))
# E's first row has squared norm 78 = -D.D; a dual class claiming D.D = -77 is refused
refuse("forged dual class", CertificateViolation, max_sharp_pairing, diagonalize(f), Fraction(-77))
minus_i2 = IntersectionForm([-1, -1], [[], [], []])
rational = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
refuse("rational units", ValueError, certificate, minus_i2, rational)
# a zero unit beside (1, 1), of norm -2, keeps the norms' sum at -2; only a check of each norm refuses it
refuse("zero unit", ValueError, certificate, minus_i2, ((0, 0), (1, 1)))
refuse("det 3 certificate", ValueError, certificate, IntersectionForm([-2, -2], [[0], [1], [1]]), ())
refuse("indefinite form", ValueError, IntersectionForm, [1, -1], [[], [], []])
# eliminated from its legs' continuants, this star's second leg meets a zero pivot
refuse("indefinite star", ValueError, plumbing.intersection_form, PlumbingGraph(-1, ((-2,), (-2,), (-2,))))
for upper in (
    [[0], [1], [0]],  # a zero entry
    [[0, 0], [1, 1], [1, 1]],  # a repeated key
    [[1, 0], [2, 1], [1, 1]],  # unsorted
    [[1], [0], [1]],  # below the diagonal
    [[0], [3], [1]],  # past the last row
    [[0, 1], [1], [1, 1]],  # tuples of unequal length
):
    refuse(f"malformed upper {upper}", ValueError, IntersectionForm, [-3, -3, -3], upper)
refuse("rank 0", ValueError, IntersectionForm, [], [[], [], []])
refuse("rank 901", RankTooLarge, IntersectionForm, [-1] * 901, [[], [], []])
refuse("forged twist bound", TypeError, TwistBound, A=10, tw_min=5)
refuse("twist_lower_bound(0)", ValueError, twist_lower_bound, 0)
refuse("empty leg", ValueError, PlumbingGraph, -1, ((-2,), ()))
refuse("leg weight -1", ValueError, PlumbingGraph, -1, ((-2, -1),))
refuse("float multiplicity", TypeError, verdict, (2.5, 3, 5))
# 30 * (1/2 + 1/3 + 1/5) = 31, not 1
m235 = validate_multiplicities((2, 3, 5))
refuse("forged presentation", CertificateViolation, SeifertPresentation, m235, (1, 1, 1))
refuse("coefficients of the wrong length", ValueError, SeifertPresentation, m235, (-1, 1))
# 30 * (-1.0/2 + 1/3 + 1/5) = 1: the identity holds, so only the type check refuses it
refuse("float coefficient", TypeError, SeifertPresentation, m235, (-1.0, 1, 1))
refuse("float fiber fraction", TypeError, NormalizedPresentation, -1, (0.5, 0.25, 0.2))
refuse("normalized fraction 1", InvalidRange, NormalizedPresentation, -2, (Fraction(1),))
refuse("fiber fraction 0", InvalidRange, NormalizedPresentation, -1, (Fraction(1, 2), Fraction(0), Fraction(1, 3)))
refuse("five-fiber transverse test", InvalidRange, transverse_contact_exists, mpl_family(3, 2))
plumbing._evaluate_cf = lambda entries: (1, 1)
refuse("expansion that does not evaluate back", CertificateViolation, neg_cf, 13, -2)
# a star step whose shared entry leaves a remainder
_linalg.divmod = lambda a, b: (a // b, 1)
refuse("inexact star step", CertificateViolation, plumbing.intersection_form, PlumbingGraph(-2, ((-2,), (-2,))))
"""
    src = str(Path(lattice.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "call, numerators",
    [(dual_class, lambda x, det: (x, det + 1)), (_characteristic_parity, lambda x, det: (x, 2 * det))],
)
def test_solve_results_are_checked(monkeypatch, call, numerators):
    # a solve whose result breaks Q D = e_1, or makes Q^-1 diag(Q) fractional
    real = lattice._linalg.solve
    monkeypatch.setattr(lattice._linalg, "solve", lambda *args: numerators(*real(*args)))
    with pytest.raises(CertificateViolation):
        call(form_for((2, 3, 13)))


def test_dual_inverse_consistency_with_oracle():
    f = form_for((2, 3, 13))
    d = dual_class(f)
    assert d == gauss_inverse(dense(f))[0][0]
    assert d == Fraction(-78)
