import random
from fractions import Fraction

import pytest

from seifert_gate import (
    IntersectionForm,
    InvalidRange,
    PlumbingGraph,
    SingularMatrix,
    build_plumbing,
    diagonalize,
    intersection_form,
    inverse_first_column,
    neg_cf,
    normalize,
    solve_unnormalized,
    validate_multiplicities,
)
from seifert_gate.lattice import _split_off_units
from oracles import cofactor_det, gauss_inverse, random_coprime_tuples


def graph_for(a):
    m = validate_multiplicities(a)
    return build_plumbing(normalize(solve_unnormalized(m)), m)


def form_for(a):
    return intersection_form(graph_for(a))


def complement_for(a):
    """The unit-free orthogonal complement that d_invariant searches: a dense form."""
    f = form_for(a)
    return _split_off_units(f, diagonalize(f).units)


GAP_LADDER = [(2, 3, 6 * n + 1) for n in range(2, 51, 6)]


class TestNegCf:
    def test_integer_input(self):
        assert neg_cf(2, -1).entries == (-2,)

    def test_all_minus_two_chain(self):
        assert neg_cf(5, -4).entries == (-2, -2, -2, -2)

    def test_two_step(self):
        cf = neg_cf(13, -2)
        assert cf.entries == (-7, -2)
        assert cf.value() == Fraction(-13, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidRange):
            neg_cf(1, -1)
        with pytest.raises(InvalidRange):
            neg_cf(3, 5)

    def test_round_trip_randomized(self):
        # 1000 random rationals in (-10^6, -1)
        rng = random.Random(271828)
        for _ in range(1000):
            q = rng.randrange(1, 1000)
            p = rng.randrange(q + 1, q * 10**6)
            x = Fraction(-p, q)
            assert -(10**6) < x < -1
            cf = neg_cf(-p, q)
            assert all(k <= -2 for k in cf.entries)
            assert cf.value() == x


class TestBuildPlumbing:
    def test_poincare_is_e8_tree(self):
        m = validate_multiplicities((2, 3, 5))
        g = build_plumbing(normalize(solve_unnormalized(m)), m)
        assert g.center_weight == -2
        assert g.legs == ((-2,), (-2, -2), (-2, -2, -2, -2))
        assert g.size == 8
        assert all(w == -2 for w in g.weights)

    def test_2_3_7(self):
        m = validate_multiplicities((2, 3, 7))
        g = build_plumbing(normalize(solve_unnormalized(m)), m)
        assert g.center_weight == -1
        assert g.legs == ((-2,), (-3,), (-7,))

    def test_2_3_13(self):
        m = validate_multiplicities((2, 3, 13))
        g = build_plumbing(normalize(solve_unnormalized(m)), m)
        assert g.center_weight == -1
        assert g.legs == ((-2,), (-3,), (-7, -2))

    def test_vertex_order_labels(self):
        m = validate_multiplicities((2, 3, 13))
        g = build_plumbing(normalize(solve_unnormalized(m)), m)
        assert g.vertex_order == ((0, 0), (1, 1), (2, 1), (3, 1), (3, 2))


class TestIntersectionForm:
    def test_2_3_7_matrix(self):
        f = form_for((2, 3, 7))
        assert f.Q == (
            (-1, 1, 1, 1),
            (1, -2, 0, 0),
            (1, 0, -3, 0),
            (1, 0, 0, -7),
        )
        assert abs(f.det) == 1
        assert f.negative_definite

    def test_e8_unimodular_negative_definite(self):
        f = form_for((2, 3, 5))
        assert abs(f.det) == 1
        assert f.negative_definite
        assert f.m == 8

    def test_single_vertex(self):
        f = intersection_form(PlumbingGraph(center_weight=-1, legs=()))
        assert f.Q == ((-1,),)
        assert f.det == -1
        assert f.negative_definite

    def test_structure_counts(self):
        rng = random.Random(5)
        for t in random_coprime_tuples(rng, 30):
            g = graph_for(t)
            f = intersection_form(g)
            m = f.m
            assert m == 1 + sum(len(leg) for leg in g.legs)
            assert all(f.Q[i][j] == f.Q[j][i] for i in range(m) for j in range(m))
            ones = sum(
                1 for i in range(m) for j in range(i + 1, m) if f.Q[i][j] == 1
            )
            assert ones == m - 1  # tree edges
            assert len(g.edges) == m - 1

    def test_determinant_matches_cofactor_expansion(self):
        for a in [(2, 3, 5), (2, 3, 7), (2, 3, 13), (3, 4, 5)]:
            f = form_for(a)
            if f.m <= 8:
                assert f.det == cofactor_det([list(r) for r in f.Q])

    def test_from_matrix_det_matches_cofactor_expansion(self):
        forms = [
            [[-1]],
            [[-2, 1], [1, -2]],
            [[-3, 1, 1], [1, -3, 1], [1, 1, -3]],
            [list(r) for r in form_for((2, 3, 5)).Q],
            [list(r) for r in complement_for((2, 3, 23)).Q],
        ]
        for rows in forms:
            f = IntersectionForm.from_matrix(rows)
            assert f.negative_definite
            assert f.det == cofactor_det(rows)

    def test_det_equals_h1_up_to_sign(self):
        rng = random.Random(6)
        for t in random_coprime_tuples(rng, 40):
            assert abs(form_for(t).det) == 1

    def test_from_matrix_definiteness(self):
        f = IntersectionForm.from_matrix([[-1, 0], [0, -1]])
        assert f.det == 1 and f.negative_definite
        g = IntersectionForm.from_matrix([[1, 0], [0, -1]])
        assert not g.negative_definite
        h = IntersectionForm.from_matrix([[0, 1], [1, 0]])
        assert not h.negative_definite and h.det == -1


class TestInverseEntry:
    def test_known_values(self):
        assert inverse_first_column(form_for((2, 3, 5)))[0] == -30
        assert inverse_first_column(form_for((2, 3, 7)))[0] == -42
        f = intersection_form(PlumbingGraph(center_weight=-1, legs=()))
        assert inverse_first_column(f)[0] == -1

    def test_matches_product_randomized(self):
        rng = random.Random(7)
        for t in random_coprime_tuples(rng, 40):
            m = validate_multiplicities(t)
            assert inverse_first_column(form_for(t))[0] == -m.product

    def test_star_solve_agrees_with_dense(self):
        for f in [form_for(a) for a in GAP_LADDER] + [complement_for((2, 3, 23))]:
            inv = gauss_inverse([list(r) for r in f.Q])
            assert inverse_first_column(f) == [inv[i][0] for i in range(f.m)]

    def test_large_leg_tuple(self):
        # b~ with a long all-(-2) chain; exercises the linear-time solver
        f = form_for((2, 3, 1661))
        assert abs(f.det) == 1 and f.negative_definite
        assert inverse_first_column(f)[0] == -2 * 3 * 1661

    def test_singular_rejected(self):
        f = IntersectionForm.from_matrix([[0]])
        with pytest.raises(SingularMatrix):
            inverse_first_column(f)[0]

    def test_not_negative_definite_rejected(self):
        for rows in ([[0, 1], [1, 0]], [[1, 0], [0, -1]]):
            with pytest.raises(ValueError):
                inverse_first_column(IntersectionForm.from_matrix(rows))
