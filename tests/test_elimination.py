"""The fraction-free elimination every form carries, against its Fraction oracle.

IntersectionForm eliminates -Q once in integers (_linalg.eliminate) and
keeps of it only the leading minors and the scaled levels, whose feeds are
the pivot rows by column; its determinant, minors, levels and the solves
read from them must equal what the rational square completion in
tests/oracles.py gives, exactly, and both must refuse the same matrices.
A star in plumbing order takes its pivot rows from its legs' continuants,
any other form Bareiss steps: the two routes must give the same minors and
levels, or refuse at the same pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_gate import _linalg
from seifert_gate.lattice import _split_off_units
from seifert_gate.plumbing import PlumbingGraph, intersection_form
from oracles import cholesky_form, dense, form_entries, form_for, form_from_matrix, integer_levels, solve_completion
from test_golden import CORPORA, corpus_certificates
from test_independent_routes import coprime_tuples


def assert_matches_oracle(form):
    """det, minors, levels and the solves for -e_1 and -diag(Q) agree with the oracle."""
    q = dense(form)
    d, u = cholesky_form([[-x for x in row] for row in q])
    assert form.det == (-1) ** form.m * prod(d)
    assert form.minors == tuple(prod(d[:i]) for i in range(form.m + 1))
    assert form.levels == integer_levels((d, u))
    for rhs in ([-int(i == 0) for i in range(form.m)], [-q[i][i] for i in range(form.m)]):
        x, det = _linalg.solve(form.minors, form.levels, rhs)
        assert det == prod(d)
        assert [Fraction(xi, det) for xi in x] == solve_completion(d, u, rhs)


@st.composite
def negative_definite(draw):
    """-(A^T A + D) for a random integer A and a positive diagonal D."""
    m = draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=m, max_size=m))
    diag = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    return [
        [-sum(a[k][i] * a[k][j] for k in range(m)) - diag[i] * (i == j) for j in range(m)]
        for i in range(m)
    ]


@st.composite
def symmetric(draw):
    """A random symmetric integer matrix with a mostly negative diagonal."""
    m = draw(st.integers(1, 6))
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = draw(st.integers(-6, 1))
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    return rows


@settings(max_examples=60, derandomize=True, deadline=None)
@given(negative_definite())
def test_elimination_matches_the_oracle_on_definite_forms(rows):
    assert_matches_oracle(form_from_matrix(rows))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(symmetric())
def test_elimination_refuses_what_the_oracle_refuses(rows):
    g = [[-x for x in row] for row in rows]
    try:
        cholesky_form(g)
    except ValueError:
        with pytest.raises(ValueError, match="not positive definite"):
            _linalg.eliminate(*form_entries(rows))
        with pytest.raises(ValueError, match="negative definite"):
            form_from_matrix(rows)
    else:
        assert_matches_oracle(form_from_matrix(rows))


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_elimination_matches_the_oracle_on_the_corpus(name):
    for _, cert in corpus_certificates(name):
        assert_matches_oracle(cert.form)
        if not cert.present:
            assert_matches_oracle(_split_off_units(cert.form, cert.units))


def test_diagonal_and_upper_are_the_independent_entries_of_q():
    f = form_from_matrix([[-2, 1, 0], [1, -3, 2], [0, 2, -5]])
    assert (f.diagonal, f.upper) == ((-2, -3, -5), ((0, 1), (1, 2), (1, 2)))


def bareiss_only():
    """Turns the star route off: every form takes Bareiss steps."""
    return mock.patch.object(_linalg, "_star_shape", return_value=None)


def star_route():
    """A spy on the star route: called once per elimination that takes it."""
    return mock.patch.object(_linalg, "_star", wraps=_linalg._star)


def eliminate_or_refusal(entries):
    """_linalg.eliminate(*entries), or the message of the ValueError it raised."""
    try:
        return _linalg.eliminate(*entries)
    except ValueError as e:
        return str(e)


def continuant(weights):
    """Determinant of the path matrix with these weights on the diagonal and 1 beside it."""
    prev, cur = 0, 1
    for w in weights:
        prev, cur = cur, w * cur - prev
    return cur


def star_det(e0, legs):
    """det Q of a star from its legs' continuants D_j: (e0 - sum_j D'_j / D_j) prod_j D_j,
    D'_j the continuant of leg j without its first vertex."""
    schur = e0 - sum(Fraction(continuant(leg[1:]), continuant(leg)) for leg in legs)
    return int(schur * prod(continuant(leg) for leg in legs))


@st.composite
def stars(draw):
    """Q of a star, centre first and each leg outward, definite or not."""
    legs = draw(st.lists(st.lists(st.integers(-5, -1), min_size=1, max_size=4), max_size=5))
    m = 1 + sum(map(len, legs))
    q = [[0] * m for _ in range(m)]
    q[0][0], i = draw(st.integers(-6, -1)), 1
    for leg in legs:
        prev = 0
        for w in leg:
            q[i][i], q[prev][i], q[i][prev] = w, 1, 1
            prev, i = i, i + 1
    return q


def test_star_route_matches_bareiss_on_the_corpora_and_coprime_tuples():
    tuples = [t for name in sorted(CORPORA) for t in CORPORA[name]] + list(coprime_tuples())
    entries = [(f.diagonal, f.upper) for f in map(form_for, tuples)]
    with star_route() as star:
        by_star = [_linalg.eliminate(*e) for e in entries]
    assert star.call_count == len(tuples)
    with bareiss_only():
        for t, e, expected in zip(tuples, entries, by_star):
            assert _linalg.eliminate(*e) == expected, t


@settings(max_examples=150, derandomize=True, deadline=None)
@given(stars())
def test_star_route_agrees_with_bareiss_or_refuses_at_the_same_pivot(q):
    entries = form_entries(q)
    with star_route() as star:
        by_star = eliminate_or_refusal(entries)
    with bareiss_only():
        assert eliminate_or_refusal(entries) == by_star
    assert star.call_count == 1
    if not isinstance(by_star, str):
        assert_matches_oracle(form_from_matrix(q))


def star_2_3_13():
    return dense(form_for((2, 3, 13)))


def permuted(q, order):
    return [[q[i][j] for j in order] for i in order]


def with_edge(q, i, j, x):
    q = [row[:] for row in q]
    q[i][j] = q[j][i] = x
    return q


# (2,3,13): centre 0, legs 1, 2 and 3-4; each matrix is written when its test runs
@pytest.mark.parametrize(
    "matrix",
    [
        lambda: permuted(star_2_3_13(), [4, 3, 2, 1, 0]),  # tips first, centre last
        lambda: permuted(star_2_3_13(), [1, 0, 2, 3, 4]),  # the centre second
        lambda: permuted(star_2_3_13(), [0, 1, 2, 4, 3]),  # a leg inward
        lambda: with_edge(star_2_3_13(), 0, 3, -1),  # an edge -1
        lambda: with_edge([[-5, 1, 0], [1, -5, 1], [0, 1, -5]], 0, 1, 2),  # an edge 2 at the centre
        lambda: with_edge([[-5, 1, 0], [1, -5, 1], [0, 1, -5]], 1, 2, 2),  # an edge 2 along a leg
        # a vertex past the centre with no inner edge: each is definite, and a
        # star check that did not ask for the edge would refuse it
        lambda: [[-1, 0], [0, -1]],  # -I_2
        lambda: [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],  # -I_3
        lambda: [[-2, 1, 0], [1, -2, 0], [0, 0, -3]],  # a centre with one leg, and an isolated vertex
    ],
    ids=[
        "tips-first", "centre-second", "leg-inward", "edge-minus-1", "centre-edge-2", "leg-edge-2",
        "minus-I2", "minus-I3", "isolated-vertex",
    ],
)
def test_other_shapes_take_bareiss(matrix):
    q = matrix()
    with star_route() as star:
        form = form_from_matrix(q)
    assert not star.called
    assert form.minors == tuple(_linalg._bareiss(form.diagonal, form.upper)[0])
    assert_matches_oracle(form)


def test_a_star_of_800_legs_builds_from_its_continuants():
    # centre first, Bareiss steps filled this star densely and took 187 s
    legs = ((-2,),) * 800
    form = intersection_form(PlumbingGraph(-800, legs))
    assert form.det == star_det(-800, legs) == -400 * 2**800
