from fractions import Fraction

import pytest

from seifert_gate import (
    CharacteristicVector,
    DiagonalizationCertificate,
    EnumerationCapExceeded,
    IntersectionForm,
    NotDiagonalizable,
    build_plumbing,
    d_invariant,
    diagonalize,
    dual_class,
    intersection_form,
    max_sharp_pairing,
    norm_minus_one_vectors,
    normalize,
    solve_unnormalized,
    validate_multiplicities,
)
from seifert_gate.obstruction import ceil_sqrt
from oracles import (
    box_d_invariant,
    box_norm_minus_one,
    brute_force_sharp_max,
    dense_cholesky,
    gauss_inverse,
    mat_mul,
    quad_value,
    transpose,
)


def form_for(a):
    m = validate_multiplicities(a)
    return intersection_form(build_plumbing(normalize(solve_unnormalized(m)), m))


E8 = form_for((2, 3, 5))
DIAGONALIZABLE_SMALL = [(2, 3, 7), (2, 3, 13), (3, 4, 5), (2, 5, 7), (2, 3, 19), (2, 5, 11)]


class TestNormMinusOneVectors:
    def test_rank_one(self):
        f = IntersectionForm.from_matrix([[-1]])
        assert norm_minus_one_vectors(f) == [(1,)]

    def test_e8_has_none(self):
        assert norm_minus_one_vectors(E8) == []

    def test_diagonal_rank_two(self):
        f = IntersectionForm.from_matrix([[-1, 0], [0, -1]])
        assert norm_minus_one_vectors(f) == [(1, 0), (0, 1)]

    def test_norms_and_sign_normalization(self):
        for a in DIAGONALIZABLE_SMALL:
            f = form_for(a)
            vs = norm_minus_one_vectors(f)
            assert vs == sorted(vs, reverse=True)
            for v in vs:
                assert quad_value(f.Q, v) == -1
                assert next(c for c in v if c != 0) > 0

    @pytest.mark.parametrize("a", [(2, 3, 7), (2, 3, 13), (3, 4, 5), (2, 5, 7), (2, 3, 19)])
    def test_matches_box_enumeration_up_to_rank_six(self, a):
        f = form_for(a)
        assert f.m <= 6
        assert norm_minus_one_vectors(f) == box_norm_minus_one([list(r) for r in f.Q])

    def test_box_enumeration_diagonal(self):
        f = IntersectionForm.from_matrix([[-1, 0], [0, -1]])
        assert norm_minus_one_vectors(f) == box_norm_minus_one([[-1, 0], [0, -1]])

    def test_cap_is_enforced(self):
        with pytest.raises(EnumerationCapExceeded):
            norm_minus_one_vectors(E8, cap=3)
        f = form_for((5, 7, 11, 13))
        with pytest.raises(EnumerationCapExceeded):
            d_invariant(f, cap=1000)

    def test_rejects_indefinite(self):
        f = IntersectionForm.from_matrix([[1, 0], [0, -1]])
        with pytest.raises(ValueError):
            norm_minus_one_vectors(f)


class TestDiagonalize:
    def test_2_3_13_certificate(self):
        f = form_for((2, 3, 13))
        cert = diagonalize(f)
        assert cert.present
        e_cols = [list(col) for col in zip(*cert.E)]
        # E^T Q E == -I, checked entry-exactly via plain matrix products
        et_q_e = mat_mul(mat_mul(transpose([list(r) for r in cert.E]), [list(r) for r in f.Q]), [list(r) for r in cert.E])
        minus_identity = [[-1 if i == j else 0 for j in range(f.m)] for i in range(f.m)]
        assert et_q_e == minus_identity
        assert len(e_cols) == f.m

    def test_e8_absent_with_witness(self):
        cert = diagonalize(E8)
        assert not cert.present
        assert cert.norm_one_count == 0
        assert cert.span_rank == 0

    def test_diagonal_gives_identity(self):
        f = IntersectionForm.from_matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
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
        assert cert.norm_one_count == 3
        assert cert.span_rank == 3

    def test_rejects_non_unimodular(self):
        f = IntersectionForm.from_matrix([[-2]])
        with pytest.raises(ValueError):
            diagonalize(f)


class TestDualClass:
    def test_defining_property(self):
        for a in [(2, 3, 7), (2, 3, 13), (3, 4, 5)]:
            f = form_for(a)
            d = dual_class(f)
            m = f.m
            for j in range(m):
                pairing = sum(d.D[i] * f.Q[i][j] for i in range(m))
                assert pairing == (1 if j == 0 else 0)
            assert d.self_intersection == d.D[0]


class TestMaxSharpPairing:
    def test_rank_one(self):
        f = IntersectionForm.from_matrix([[-1]])
        assert max_sharp_pairing(diagonalize(f), dual_class(f)) == 1

    def test_diagonal_rank_two(self):
        f = IntersectionForm.from_matrix([[-1, 0], [0, -1]])
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
            oracle = brute_force_sharp_max(
                [list(r) for r in f.Q], [list(r) for r in cert.E]
            )
            assert p == oracle

    def test_l1_l2_inequalities(self):
        for a in DIAGONALIZABLE_SMALL:
            f = form_for(a)
            big_a = -int(dual_class(f).self_intersection)
            p = max_sharp_pairing(diagonalize(f), dual_class(f))
            assert p >= ceil_sqrt(big_a)
            assert (p - big_a) % 2 == 0


class TestDInvariant:
    def test_rank_one(self):
        assert d_invariant(IntersectionForm.from_matrix([[-1]])) == 0

    def test_e8_value(self):
        assert d_invariant(E8) == 2

    def test_e8_matches_box_search(self):
        assert box_d_invariant([list(r) for r in E8.Q]) == 2

    def test_diagonalizable_cases_are_zero(self):
        for a in DIAGONALIZABLE_SMALL:
            assert d_invariant(form_for(a)) == 0

    @pytest.mark.parametrize(
        "rows",
        [
            [[-1]],
            [[-1, 0], [0, -1]],
            [[-2, 1], [1, -2]],
        ],
    )
    def test_small_forms_match_box_search(self, rows):
        f = IntersectionForm.from_matrix(rows)
        if abs(f.det) == 1:
            assert d_invariant(f) == box_d_invariant(rows)

    def test_plumbing_forms_match_box_search(self):
        for a in [(2, 3, 7), (2, 3, 13), (3, 4, 5), (2, 3, 11)]:
            f = form_for(a)
            assert d_invariant(f) == box_d_invariant([list(r) for r in f.Q])

    def test_known_correction_terms(self):
        # frozen values for the standard orientation (singularity link)
        expected = {(2, 3, 5): 2, (2, 3, 7): 0, (2, 3, 11): 2, (2, 3, 13): 0}
        for a, value in expected.items():
            assert d_invariant(form_for(a)) == value

    def test_unit_splitting_agrees_with_direct_search(self):
        from seifert_gate.lattice import _coset_minimum, _NodeBudget

        for a in [(2, 3, 11), (2, 3, 23), (2, 5, 13), (2, 7, 9)]:
            f = form_for(a)
            direct = (f.m - _coset_minimum(f, _NodeBudget(10**8))) / 4
            assert d_invariant(f) == direct

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            d_invariant(IntersectionForm.from_matrix([[-2, 1], [1, -2]]))


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
        cert = diagonalize(f, cap=n_diag)
        values = []
        for reuse in (None, cert):
            values.append(d_invariant(f, cap=n_d, cert=reuse))
            with pytest.raises(EnumerationCapExceeded):
                d_invariant(f, cap=n_d - 1, cert=reuse)
        assert values[0] == values[1]

    def test_reused_certificate_must_match_the_form(self):
        cert = diagonalize(form_for((2, 3, 13)))
        for other in [(2, 3, 7), (2, 5, 7)]:  # rank 4; rank 5 like (2, 3, 13)
            with pytest.raises(ValueError):
                d_invariant(form_for(other), cert=cert)

    def test_reused_certificate_must_be_orthonormal(self):
        f = form_for((2, 3, 13))
        cert = diagonalize(f)
        u = cert.units[0]
        # each has norm -1, but Q(u, u) = -1 where orthogonality needs 0
        for units in [(u, u), (u, tuple(-c for c in u))]:
            forged = DiagonalizationCertificate(E=None, units=units, nodes=0)
            with pytest.raises(ValueError):
                d_invariant(f, cert=forged)
        with pytest.raises(ValueError):
            d_invariant(f, cert=DiagonalizationCertificate(E=cert.E, units=cert.units, nodes=-1))

    @pytest.mark.parametrize(
        "a",
        [(2, 3, 6 * n + 1) for n in range(2, 51, 6)]
        + [(5, 8, 13), (11, 14, 15), (2, 3, 5, 7, 11, 13)],
    )
    def test_sparse_square_completion_matches_dense(self, a):
        f = form_for(a)
        g = [[-x for x in row] for row in f.Q]
        d, u = f.completion
        dense_d, dense_u = dense_cholesky(g)
        assert d == dense_d
        for i, row in enumerate(u):
            columns = [j for j, _ in row]
            assert columns == sorted(columns)
            assert all(j > i and x != 0 for j, x in row)
            as_dense = [Fraction(0)] * len(g)
            for j, x in row:
                as_dense[j] = x
            assert as_dense == dense_u[i]


def test_characteristic_vector_validation():
    f = form_for((2, 3, 7))
    diag = tuple(f.Q[i][i] for i in range(f.m))
    assert CharacteristicVector(diag).is_characteristic_for(f)
    assert not CharacteristicVector((0,) * f.m).is_characteristic_for(f)


def test_dual_inverse_consistency_with_oracle():
    f = form_for((2, 3, 13))
    inv = gauss_inverse([list(r) for r in f.Q])
    d = dual_class(f)
    assert list(d.D) == [inv[0][j] for j in range(f.m)]
    assert d.self_intersection == Fraction(-78)
