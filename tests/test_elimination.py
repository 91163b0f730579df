"""The fraction-free elimination every form carries, against its Fraction oracle.

IntersectionForm eliminates -Q once in integers (_linalg.eliminate) and
keeps of it only the leading minors and the scaled levels, whose feeds are
the pivot rows by column; its determinant, minors, levels and the solves
read from them must equal what the rational square completion in
tests/oracles.py gives, exactly, and both must refuse the same matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_gate import _linalg
from seifert_gate.lattice import _split_off_units
from oracles import cholesky_form, dense, form_from_matrix, integer_levels, solve_completion
from test_golden import CORPORA, corpus_certificates


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
            _linalg.eliminate([[(j, x) for j, x in enumerate(row) if x] for row in g])
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


def test_rows_are_the_nonzeros_of_q():
    rows = [[-2, 1, 0], [1, -3, 0], [0, 0, -1]]
    f = form_from_matrix(rows)
    assert f.rows == (((0, -2), (1, 1)), ((0, 1), (1, -3)), ((2, -1),))
