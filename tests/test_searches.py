"""Both lattice searches against their Fraction-level oracles.

The library compares every level in integers, after scaling the form's
square completion once; tests/oracles.py keeps the same searches on the
Fraction levels.  Each pair must agree on the result (the vectors, the coset
minimum or the cap outcome) and on the nodes spent, since the node counts
decide every cap outcome the golden corpus and MINIMAL_CAPS pin.  At a cap
outcome both sides stop at node cap + 1, so the exception is compared alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert_gate import DiagonalizationCertificate, EnumerationCapExceeded
from seifert_gate.lattice import (
    DEFAULT_ENUMERATION_CAP,
    _coset_minimum,
    _fixed_norm_enumeration,
    _split_off_units,
)
import oracles
from oracles import Budget, dense, form_for, form_from_matrix, fraction_coset_minimum, fraction_norm_enumeration
from test_golden import CORPORA


def coprime_triples(top):
    return [
        t
        for t in combinations(range(2, top), 3)
        if all(gcd(x, y) == 1 for x, y in combinations(t, 2))
    ]


def outcome(search, form, cap):
    """A library search's (result, nodes spent), or EnumerationCapExceeded at the cap."""
    try:
        return search(form, cap)
    except EnumerationCapExceeded:
        return EnumerationCapExceeded


def oracle_outcome(oracle, form, cap):
    """The same for an oracle, which charges a Budget one node at a time."""
    budget = Budget(cap)
    try:
        return oracle(form, budget), budget.used
    except EnumerationCapExceeded:
        return EnumerationCapExceeded


def compare_searches(form, cap):
    """Run both searches as d_invariant does, each beside its oracle; return the outcomes.

    The coset search runs on the complement of the (-1)-vectors, and not at
    all when they span the form.
    """
    units = outcome(_fixed_norm_enumeration, form, cap)
    assert units == oracle_outcome(fraction_norm_enumeration, form, cap)
    if units is EnumerationCapExceeded or len(units[0]) == form.m:
        return units, None
    sub = _split_off_units(form, units[0])
    minimum = outcome(_coset_minimum, sub, cap)
    expected = oracle_outcome(fraction_coset_minimum, sub, cap)
    assert minimum == expected
    if minimum is not EnumerationCapExceeded:
        assert type(minimum[0]) is type(expected[0])
    return units, minimum


GOLDEN_TUPLES = sorted({t for tuples in CORPORA.values() for t in tuples})


@pytest.mark.parametrize(
    "a", GOLDEN_TUPLES + [(5, 21, 26), (2, 3, 5, 7, 11, 13)], ids=lambda a: ",".join(map(str, a))
)
def test_searches_match_the_fraction_oracle(a):
    units, minimum = compare_searches(form_for(a), DEFAULT_ENUMERATION_CAP)
    # each of these ends within the default cap
    assert units is not EnumerationCapExceeded
    assert minimum is not EnumerationCapExceeded


def test_cap_is_reached_on_both_sides():
    units, minimum = compare_searches(form_for((13, 15, 37)), 10**5)
    assert units is not EnumerationCapExceeded
    assert minimum is EnumerationCapExceeded


# On Sigma(2, 3, 6n + 1) scale = c = den = 1, so the enumeration spends
# almost all of its nodes in chains below a spent norm, which it
# back-substitutes.  Two long rungs, too slow for the Fraction oracle, pin
# those chains' charging: each finds its m vectors in exactly these nodes,
# and one node less is the cap outcome.
@pytest.mark.parametrize(
    "a, nodes", [((2, 3, 1201), 20909), ((2, 3, 5329), 398277)], ids=["2,3,1201", "2,3,5329"]
)
def test_long_chains_spend_the_pinned_nodes(a, nodes):
    form = form_for(a)
    units, used = _fixed_norm_enumeration(form, nodes)
    assert used == nodes
    assert DiagonalizationCertificate(form=form, units=tuple(units), nodes=used, cap=nodes).present
    with pytest.raises(EnumerationCapExceeded):
        _fixed_norm_enumeration(form, nodes - 1)


# Each search charges nodes in batches where the oracles charge one at a
# time: the enumeration a level's whole interval, the coset search every
# failed level's 2 or 3 nodes (a failed nearest point and its neighbours, or
# a failed closer side and the farther one).  A cap that falls inside a batch
# must still stop both.  The examples put the cap one short of and at the
# nodes each search needs: (5, 8, 13)'s enumeration spends 168, and
# (3, 4, 11)'s coset search 3950 after its enumeration's 93, the last 2 of
# them its top level's closing batch, inside which cap 3948 falls.  A cap
# is at least 1 node (lattice.validate_cap refuses 0).
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(coprime_triples(20)), st.integers(1, 2000))
@example((5, 8, 13), 167)
@example((5, 8, 13), 168)
@example((3, 4, 11), 3948)
@example((3, 4, 11), 3949)
@example((3, 4, 11), 3950)
def test_cap_outcomes_match_the_oracle_under_batched_charging(a, cap):
    units, minimum = compare_searches(form_for(a), cap)
    for result in filter(None, (units, minimum)):
        assert result is EnumerationCapExceeded or result[1] <= cap


# The completion of Sigma(2, 5, 9) has u_ij = -1/2 at three levels, the
# central one among them, and both searches meet centres on exact rounding
# ties (test_tie_example_meets_exact_ties_in_both_searches).
TIES = (2, 5, 9)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.sampled_from(coprime_triples(40)))
@example(TIES)
def test_searches_match_the_oracle_on_drawn_triples(a):
    compare_searches(form_for(a), 2 * 10**4)


def test_tie_example_meets_exact_ties_in_both_searches(monkeypatch):
    # The oracles round -shift to an integer, and floor (centre - p)/2 + 1/2:
    # a tie is a half-integer argument to round, an integer one to floor.
    seen = {round: [], floor: []}

    def recording(fn):
        def wrapped(x):
            seen[fn].append(Fraction(x))
            return fn(x)

        return wrapped

    monkeypatch.setattr(oracles, "round", recording(round), raising=False)
    monkeypatch.setattr(oracles, "floor", recording(floor))
    compare_searches(form_for(TIES), 2 * 10**4)
    assert any(x.denominator == 2 for x in seen[round])
    assert any(x.denominator == 1 for x in seen[floor])


# -E8 + (-1) in a scrambled basis, searched whole.  Its coset minimum is 1
# under either tie rule, but rounding the coset search's ties down, or taking
# hi before lo at equal distance, spends other nodes than the oracle does.
TIE_ORDER = (
    (-2, 1, 2, -1, 1, 0, 0, 0, 0),
    (1, -2, 0, 0, 0, 0, 0, 0, -2),
    (2, 0, -9, 6, 0, 0, 0, 0, 5),
    (-1, 0, 6, -6, 0, 0, 0, 0, -3),
    (1, 0, 0, 0, -2, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, -6, 3, 0),
    (0, 0, 0, 0, 0, 0, 3, -2, 0),
    (0, -2, 5, -3, 0, 0, 0, 0, -5),
)


def test_coset_search_breaks_ties_as_the_oracle_does():
    f = form_from_matrix(TIE_ORDER)
    expected = oracle_outcome(fraction_coset_minimum, f, 10**4)
    assert outcome(_coset_minimum, f, 10**4) == expected == (1, 476)


# Each search keeps every level's shift current through form.levels' feeds:
# a move of x_j updates each level that column j feeds.  On a three-fiber
# star a level reads at most three columns and most columns feed one level;
# in a basis scrambled by elementary operations the completion fills in, so
# most columns feed many levels and a level reads many columns.
MINUS_E8_PLUS_MINUS_ONE = [row + [0] for row in dense(form_for((2, 3, 5)))] + [[0] * 8 + [-1]]


def scrambled(matrix, ops):
    """B^T Q B, for B the product of the column operations col_j += k col_i in ops."""
    q = [list(row) for row in matrix]
    for i, j, k in ops:
        if i != j:
            for row in q:
                row[j] += k * row[i]
            q[j] = [a + k * b for a, b in zip(q[j], q[i])]
    return q


@st.composite
def scrambled_forms(draw):
    """-I_n (n <= 9) or -E8 + (-1), in a basis changed by n to 3n elementary operations."""
    n = draw(st.integers(1, 10))
    base = MINUS_E8_PLUS_MINUS_ONE if n == 10 else [[-int(i == j) for j in range(n)] for i in range(n)]
    rank = len(base)
    index, sign = st.integers(0, rank - 1), st.sampled_from((-1, 1))
    return scrambled(base, draw(st.lists(st.tuples(index, index, sign), min_size=rank, max_size=3 * rank)))


DENSE_EXAMPLE = scrambled(
    MINUS_E8_PLUS_MINUS_ONE, [(i, (i + 1 + i * i) % 9, (-1) ** i) for i in range(9)] * 2
)


def test_a_scrambled_basis_makes_columns_feed_many_levels():
    feeds = form_from_matrix(DENSE_EXAMPLE).levels[3]
    assert sum(len(levels) > 3 for levels in feeds) >= 3


def block_sum(*blocks):
    """The dense block-diagonal matrix of the given square blocks, in order."""
    n, at = sum(map(len, blocks)), 0
    q = [[0] * n for _ in range(n)]
    for b in blocks:
        for i, row in enumerate(b):
            q[at + i][at : at + len(b)] = row
        at += len(b)
    return q


# A column j that feeds no level (Q_ij = 0 for every i < j) moves only its own
# level, and the enumeration lowers no bound for it: its docstring proves
# that such a level leaves its one value only on a climb that spends the
# norm.  Each block's first column feeds none, so -1 blocks above, between
# and below -E8 and Sigma(2, 3, 7)'s form put such columns at every height.
MINUS_ONE, SIGMA_2_3_7 = [[-1]], dense(form_for((2, 3, 7)))
FEEDLESS_EXAMPLES = [
    block_sum(MINUS_ONE, MINUS_ONE, MINUS_ONE),
    block_sum(MINUS_ONE, dense(form_for((2, 3, 5))), MINUS_ONE, MINUS_ONE),
    block_sum(SIGMA_2_3_7, MINUS_ONE, MINUS_ONE, SIGMA_2_3_7, MINUS_ONE),
]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(scrambled_forms())
@example(DENSE_EXAMPLE)
@example(FEEDLESS_EXAMPLES[0])
@example(FEEDLESS_EXAMPLES[1])
@example(FEEDLESS_EXAMPLES[2])
def test_searches_match_the_oracle_on_dense_feeds(matrix):
    form = form_from_matrix(matrix)
    units = _fixed_norm_enumeration(form, DEFAULT_ENUMERATION_CAP)[0]
    forms = [form] if len(units) in (0, form.m) else [form, _split_off_units(form, units)]
    for f in forms:
        for cap in (10**3, 10**6):
            assert outcome(_fixed_norm_enumeration, f, cap) == oracle_outcome(fraction_norm_enumeration, f, cap)
            minimum = outcome(_coset_minimum, f, cap)
            expected = oracle_outcome(fraction_coset_minimum, f, cap)
            assert minimum == expected
            if minimum is not EnumerationCapExceeded:
                assert type(minimum[0]) is type(expected[0])

