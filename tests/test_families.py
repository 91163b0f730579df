import random
import time
from fractions import Fraction
from math import floor

import pytest

from seifert_gate import InvalidParameter, InvalidRange, mp_family, transverse_contact_exists
from seifert_gate.families import mpl_family
from seifert_gate.seifert import NormalizedPresentation
from oracles import transverse_search


class TestFamilies:
    def test_mp_values(self):
        assert mp_family(2).r == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert mp_family(3).r == (Fraction(2, 3), Fraction(1, 3), Fraction(1, 3))
        assert mp_family(2).e0 == -1

    def test_mp_rejects_small_p(self):
        with pytest.raises(InvalidParameter):
            mp_family(1)

    def test_mpl_matches_mp_for_ell_one(self):
        assert sorted(mpl_family(2, 1).r) == sorted(mp_family(2).r)
        assert mpl_family(2, 1).e0 == -1

    def test_mpl_alternation(self):
        data = mpl_family(3, 2)
        assert data.e0 == -2
        assert data.r == (
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(1, 3),
        )

    def test_mpl_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            mpl_family(2, 0)
        with pytest.raises(InvalidParameter):
            mpl_family(1, 1)

    def test_mpl_refuses_ell_above_the_fiber_limit_before_building(self):
        # 2 * 10**9 + 1 fractions would not fit in memory; the bound comes first
        with pytest.raises(InvalidParameter, match="ell must be <= 449, got 1000000000"):
            mpl_family(2, 10**9)


class TestTransverseTest:
    def test_mp_family_has_no_witness(self):
        # Up to order both are M(-1; (p-1)/p, 1/p, 1/p), so r1 + r2 = 1, and
        # the family view prints "witness": null for every three-fiber member.
        for p in range(2, 500):
            for data in (mp_family(p), mpl_family(p, 1)):
                assert not transverse_contact_exists(data).present

    def test_five_fibers_are_out_of_range(self):
        with pytest.raises(InvalidRange, match="applies to three singular fibers, got 5"):
            transverse_contact_exists(mpl_family(3, 2))

    def test_m3_interval_empty(self):
        w = transverse_contact_exists(mp_family(3))
        assert not w.present
        assert w.searched_m_below == 3  # m in {1, 2} exhausted

    def test_witness_found(self):
        data = NormalizedPresentation(
            e0=-1, r=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
        )
        w = transverse_contact_exists(data)
        assert (w.a, w.m) == (3, 5)

    def test_witness_inequalities_recheck(self):
        data = NormalizedPresentation(
            e0=-1, r=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
        )
        w = transverse_contact_exists(data)
        r1, r2, r3 = sorted(data.r, reverse=True)
        from math import gcd

        assert gcd(w.a, w.m) == 1 and 0 < w.a < w.m
        assert w.m * r1 < w.a < w.m * (1 - r2)
        assert w.m * r3 < 1

    def test_permutation_invariance(self):
        base = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
        results = set()
        import itertools

        for perm in itertools.permutations(base):
            w = transverse_contact_exists(NormalizedPresentation(e0=-1, r=perm))
            results.add((w.a, w.m))
        assert results == {(3, 5)}


class TestTransverseSearchBound:
    @staticmethod
    def as_tuple(w):
        return w.a, w.m, w.searched_m_below

    def test_mp_family_matches_the_plain_loop(self):
        for p in range(2, 61):
            data = mp_family(p)
            assert self.as_tuple(transverse_contact_exists(data)) == transverse_search(data.r)

    def test_random_triples_match_the_plain_loop(self):
        # both sides of r1 + r2 = 1, with and without a witness
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            r = tuple(Fraction(rng.randrange(1, q), q) for q in rng.choices(range(2, 30), k=3))
            ours = self.as_tuple(transverse_contact_exists(NormalizedPresentation(-1, r)))
            assert ours == transverse_search(r)
            r1, r2, _ = sorted(r, reverse=True)
            seen.add((r1 + r2 >= 1, ours[0] is not None))
        assert seen == {(True, False), (False, True), (False, False)}

    def test_near_one_sums_match_the_plain_loop(self):
        # r1 + r2 within 1/2000 of 1: the interval (r1, 1 - r2) is short or empty
        rng = random.Random(12)
        seen = set()
        for _ in range(1500):
            q1, q2, q3 = (rng.randrange(2, 3001) for _ in range(3))
            r1 = Fraction(rng.randrange(1, q1), q1)
            r2 = Fraction(floor((1 - r1) * q2) - rng.randrange(2), q2)
            if not (0 < r2 < 1 and 1 - r1 - r2 <= Fraction(1, 2000)):
                continue
            r = (r1, r2, Fraction(1, q3))
            ours = self.as_tuple(transverse_contact_exists(NormalizedPresentation(-1, r)))
            assert ours == transverse_search(r)
            seen.add((r1 + r2 >= 1, ours[0] is not None))
        assert seen == {(True, False), (False, True), (False, False)}

    def test_gap_of_a_billionth_is_immediate(self):
        # a/m - 1/2 = (2a - m)/2m >= 1/2m forces m > 10**9, and m must be odd
        r = (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 2 * 10**9), Fraction(1, 10**12))
        start = time.perf_counter()
        w = transverse_contact_exists(NormalizedPresentation(-1, r))
        assert time.perf_counter() - start < 1
        assert self.as_tuple(w) == (500000001, 1000000001, 1000000002)

    def test_mp_family_at_a_billion_is_immediate(self):
        w = transverse_contact_exists(mp_family(10**9))
        assert not w.present and w.searched_m_below == 10**9

