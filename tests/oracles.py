"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written along a different route than the
library code: cofactor determinants, Gauss-Jordan inverses, exhaustive box
enumerations, and the square completion, its integer levels and its solves
in ``Fraction`` arithmetic that the library's fraction-free elimination must
reproduce.  Slow but simple; correctness over speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt, lcm, prod
from operator import itemgetter, mul, neg
from typing import Sequence

import numpy as np

from seifert_gate import EnumerationCapExceeded, _linalg, validate_multiplicities
from seifert_gate._linalg import IntegerLevels
from seifert_gate.lattice import _characteristic_parity, _greedy_descent
from seifert_gate.obstruction import fiber_boundary_slope
from seifert_gate.plumbing import IntersectionForm, build_plumbing, intersection_form
from seifert_gate.seifert import normalize, solve_unnormalized

# (d, u) with x^T G x = sum_i d[i] * (x_i + sum_{(j, u_ij) in u[i]} u_ij x_j)^2
Completion = tuple[list[Fraction], list[list[tuple[int, Fraction]]]]


def dense(form):
    """The form's m x m matrix Q as lists, written out from its sparse rows."""
    out = [[0] * form.m for _ in form.rows]
    for row, sparse in zip(out, form.rows):
        for j, x in sparse:
            row[j] = x
    return out


def form_from_matrix(matrix):
    """The form of a dense square integer matrix, built from the nonzeros of its rows."""
    q = [list(map(int, row)) for row in matrix]
    if any(len(row) != len(q) for row in q):
        raise ValueError("matrix must be square")
    return IntersectionForm(rows=[[(j, x) for j, x in enumerate(row) if x] for row in q])


def form_for(a):
    """The plumbing's form of Sigma(a), built as verdict builds it."""
    m = validate_multiplicities(a)
    return intersection_form(build_plumbing(normalize(solve_unnormalized(m))))


def complement_by_gram(form, units):
    """The units' orthogonal complement by the dense route.

    Each projected basis vector is written out coordinate by coordinate, and
    the complement's Gram matrix B Q B^T, over the dense Q, is turned into a
    form by form_from_matrix; the library writes its sparse rows directly.
    """
    m, q = form.m, dense(form)
    projected = []
    for i in range(m):
        x = [int(i == j) for j in range(m)]
        for u in units:
            p = sum(q[i][j] * u[j] for j in range(m))  # Q(e_i, u)
            for j in range(m):
                x[j] += p * u[j]
        projected.append(x)
    basis = _linalg.row_lattice_basis(projected)
    return form_from_matrix(mat_mul(mat_mul(basis, q), transpose(basis)))


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion (fine up to ~9x9)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def gauss_inverse(rows):
    """Exact inverse via Gauss-Jordan over Fraction."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        inv[k], inv[piv] = inv[piv], inv[k]
        s = a[k][k]
        a[k] = [x / s for x in a[k]]
        inv[k] = [x / s for x in inv[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[k])]
    return inv


def quad_value(rows, v):
    """v^T M v for a dense matrix."""
    n = len(v)
    return sum(v[i] * rows[i][j] * v[j] for i in range(n) for j in range(n))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def sign_normalize(v):
    lead = next(c for c in v if c != 0)
    return tuple(v) if lead > 0 else tuple(-c for c in v)


def units_are_orthonormal(form, units):
    """Every pairing of the units: Q(u_i, u_j) = -1 if i == j else 0.

    The pairwise Gram check DiagonalizationCertificate once ran, over dense
    images Q u; it now checks only entries, norms and signs, which imply this
    on a negative definite form.
    """
    images = [[sum(x * w[j] for j, x in enumerate(row)) for row in dense(form)] for w in units]
    return all(
        sum(a * b for a, b in zip(v, images[j])) == (-1 if i == j else 0)
        for i, v in enumerate(units)
        for j in range(i, len(units))
    )


def per_unit_units_check(form, units):
    """The units' check DiagonalizationCertificate ran unit by unit, as it was.

    Integer entries and length m, then Q(u, u) = -1 for each unit in turn
    (the diagonal, plus twice the nonzeros above it, read through
    itemgetters padded by two pairs of weight 0, as one index gives no
    tuple), then no two units equal up to sign; ValueError with the
    library's message at the first that fails.
    """
    m = form.m
    if not all(len(v) == m and all(map(isinstance, v, itertools.repeat(int))) for v in units):
        raise ValueError(f"units must be integer vectors of length {m}")
    diag = form.diagonal
    cols, partners, entries = form.upper
    at_cols, at_partners, entries = itemgetter(0, 0, *cols), itemgetter(0, 0, *partners), (0, 0, *entries)
    for u in units:
        on_diag = sum(map(mul, diag, map(mul, u, u)))
        off_diag = sum(map(mul, entries, map(mul, at_cols(u), at_partners(u))))
        if on_diag + 2 * off_diag != -1:
            raise ValueError("units must have self-intersection -1")
    if len({max(v, tuple(map(neg, v))) for v in units}) != len(units):
        raise ValueError("units must be distinct up to sign")


def box_norm_minus_one(qrows):
    """All v with v^T Q v = -1 (one per +-pair), by exhaustive box enumeration.

    The box uses the exact bound v_i^2 <= (-Q^{-1})_ii; enumeration is chunked
    over the first two coordinates so rank 6 stays tractable.
    """
    n = len(qrows)
    qinv = gauss_inverse(qrows)
    bounds = [isqrt(int(-qinv[i][i])) for i in range(n)]
    qn = np.array(qrows, dtype=np.int64)
    out = set()
    if n == 1:
        for v0 in range(-bounds[0], bounds[0] + 1):
            if qrows[0][0] * v0 * v0 == -1:
                out.add((v0,))
    else:
        if n == 2:
            tail = np.zeros((1, 0), dtype=np.int64)
        else:
            tail_ranges = [range(-b, b + 1) for b in bounds[2:]]
            tail = np.array(list(itertools.product(*tail_ranges)), dtype=np.int64).reshape(-1, n - 2)
        for v0 in range(-bounds[0], bounds[0] + 1):
            for v1 in range(-bounds[1], bounds[1] + 1):
                head = np.empty((tail.shape[0], 2), dtype=np.int64)
                head[:, 0] = v0
                head[:, 1] = v1
                full = np.concatenate([head, tail], axis=1)
                norms = np.einsum("ij,jk,ik->i", full, qn, full)
                for row in full[norms == -1]:
                    out.add(tuple(int(x) for x in row))
    return sorted({sign_normalize(v) for v in out}, reverse=True)


def box_min_characteristic(qrows):
    """Exhaustive minimum of -kappa^T Q^{-1} kappa over the characteristic coset.

    A greedy +-2 descent from the 0/1 parity vector supplies a radius c; every
    coset vector with value <= c satisfies kappa_i^2 <= c * (-Q_ii), so the box
    search is exhaustive for the minimum.
    """
    n = len(qrows)
    qinv = gauss_inverse(qrows)
    ginv = [[-x for x in row] for row in qinv]

    def f(v):
        return quad_value(ginv, v)

    best = [qrows[i][i] % 2 for i in range(n)]
    best_val = f(best)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for step in (2, -2):
                cand = best[:]
                cand[i] += step
                val = f(cand)
                if val < best_val:
                    best, best_val = cand, val
                    improved = True
    c = best_val
    bounds = []
    for i in range(n):
        radicand = c * (-qrows[i][i])
        bounds.append(isqrt(radicand.numerator // radicand.denominator) if radicand > 0 else 0)
    axes = []
    for i, b in enumerate(bounds):
        par = qrows[i][i] % 2
        lo = -b + ((par - (-b)) % 2)
        axes.append(range(lo, b + 1, 2))
    total = prod(len(ax) for ax in axes)
    assert total <= 5 * 10**6, f"box too large for the oracle: {total}"
    minimum = best_val
    for kappa in itertools.product(*axes):
        val = f(list(kappa))
        if val < minimum:
            minimum = val
    return minimum


def box_d_invariant(qrows):
    """d-invariant by exhaustive characteristic-coset search."""
    n = len(qrows)
    return (n - box_min_characteristic(qrows)) / 4


def brute_force_sharp_max(qrows, e_rows):
    """Max of the dual pairing with nu_1 over all 2^m sharp vectors.

    Sharp vectors are the sums of signed dual-orthonormal-basis elements;
    their nu-basis coordinates are E^{-T} * signs, and the pairing is taken
    through Q^{-1} directly rather than through any norm identity.
    """
    n = len(qrows)
    qinv = gauss_inverse(qrows)
    einv = gauss_inverse(e_rows)
    best = None
    for signs in itertools.product((1, -1), repeat=n):
        kappa = [sum(einv[i][k] * signs[i] for i in range(n)) for k in range(n)]
        assert all(x.denominator == 1 for x in kappa)
        assert all((int(kappa[k]) - qrows[k][k]) % 2 == 0 for k in range(n))
        val = sum(kappa[k] * qinv[0][k] for k in range(n))
        if best is None or val > best:
            best = val
    return best


def random_coprime_tuples(rng, count, max_product=10**4, length=3, lo=2, hi=120):
    """Distinct sorted pairwise-coprime tuples with bounded product."""
    out = []
    seen = set()
    while len(out) < count:
        t = tuple(sorted(rng.randrange(lo, hi) for _ in range(length)))
        if len(set(t)) < length:
            continue
        if any(gcd(t[i], t[j]) > 1 for i in range(length) for j in range(i + 1, length)):
            continue
        if prod(t) > max_product or t in seen:
            continue
        seen.add(t)
        out.append(t)
    return out


def per_twist_slope_checks(p, g, kn_range):
    """The last-fiber slope bound 1 - b_n/a_n >= -s_n(k_n), one named check per twist.

    The sampled form of the check that verify_twist_chain proves for the
    whole half-line k_n <= -1 at once.
    """
    kn_list = tuple(kn_range)
    assert kn_list and all(kn <= -1 for kn in kn_list)
    n = len(p.pairs)
    checks = []
    an, bn = p.pairs[n - 1]
    un, vn = g.u[n - 1], g.v[n - 1]
    lhs = 1 - Fraction(bn, an)
    for kn in kn_list:
        rhs = -fiber_boundary_slope(an, bn, un, vn, kn)
        checks.append((f"last_fiber_slope_bound_k={kn}", lhs >= rhs))
    return tuple(checks)


def dense_cholesky(g):
    """Square completion x^T G x = sum_i d[i] * (x_i + sum_{j>i} u[i][j] x_j)^2, dense.

    The O(m^3) in-order elimination over every entry, zeros included; the
    library's sparse version must agree with it entry for entry.
    """
    m = len(g)
    work = [[Fraction(x) for x in row] for row in g]
    d = [Fraction(0)] * m
    u = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        assert work[i][i] > 0, "form is not positive definite"
        d[i] = work[i][i]
        for j in range(i + 1, m):
            u[i][j] = work[i][j] / d[i]
        for k in range(i + 1, m):
            for l in range(k, m):
                work[k][l] -= d[i] * u[i][k] * u[i][l]
                work[l][k] = work[k][l]
    return d, u


def dense_intersection_matrix(graph):
    """The plumbing's m x m matrix, dense: weights on the diagonal, 1 for each edge.

    Vertices are numbered centre first, then leg by leg from the centre
    outward; each leg's first vertex meets the centre.
    """
    weights = [graph.center_weight] + [w for leg in graph.legs for w in leg]
    m = len(weights)
    rows = [[0] * m for _ in range(m)]
    for i, w in enumerate(weights):
        rows[i][i] = w
    start = 1
    for leg in graph.legs:
        path = [0] + list(range(start, start + len(leg)))
        for a, b in zip(path, path[1:]):
            rows[a][b] = rows[b][a] = 1
        start += len(leg)
    return rows


def fraction_neg_cf(numerator, denominator):
    """Entries of the negative continued fraction of numerator/denominator < -1, in Fractions."""
    x = Fraction(numerator, denominator)
    entries = []
    while x.denominator != 1:
        k = floor(x)
        entries.append(k)
        x = -1 / (x - k)
    entries.append(int(x))
    return tuple(entries)


def entrywise_neg_cf(numerator, denominator):
    """The same expansion on the integer pair p/q, q > 0, unreduced, one entry per step.

    One step takes k = floor(p/q) and maps p/q to -q/(p - k q); the last entry
    is p/q itself once it is an integer.
    """
    p, q = (numerator, denominator) if denominator > 0 else (-numerator, -denominator)
    entries = []
    while p % q:
        k = p // q
        entries.append(k)
        p, q = -q, p - k * q
    entries.append(p // q)
    return tuple(entries)


def transverse_search(r):
    """(a, m, searched_m_below) of the transverse criterion, by walking every m with m*r3 < 1.

    The plain loop over m and a, with no shortcut for empty intervals.
    """
    r1, r2, r3 = sorted(r, reverse=True)
    m = 1
    while m * r3 < 1:
        a = int(m * r1) + 1
        while a < m * (1 - r2):
            if 0 < a < m and gcd(a, m) == 1:
                return a, m, m + 1
            a += 1
        m += 1
    return None, None, m


@dataclass
class Budget:
    """Search nodes used against a cap, as the oracles count them."""

    cap: int
    used: int = 0


def spend(budget: Budget) -> None:
    """Charge one node to budget, raising at the first node past its cap.

    The oracles charge one node at a time, so their cap outcome leaves
    used == cap + 1; the library's searches charge in batches and must stop
    at the same node.
    """
    budget.used += 1
    if budget.used > budget.cap:
        raise EnumerationCapExceeded(f"lattice search exceeded {budget.cap} nodes")


def fraction_norm_enumeration(form, budget: Budget) -> list[tuple[int, ...]]:
    """Bounded search for all v with v^T Q v = -1, one per +-pair, in Fraction levels.

    The library's enumeration before its levels were scaled to integers; it
    must find the same vectors and spend the same nodes from ``budget``.
    """
    m = form.m
    d, u = cholesky_form([[-x for x in row] for row in dense(form)])
    found: list[tuple[int, ...]] = []
    x = [0] * m

    def descend(level: int, remaining: Fraction, leading_zero: bool) -> None:
        if level < 0:
            if remaining == 0 and not leading_zero:
                found.append(tuple(x))
            return
        shift = sum(uj * x[j] for j, uj in u[level])
        # The feasible x_i form an interval around -shift: walk up from the
        # nearest integer, then down, each side to its first infeasible value.
        # With every higher coordinate 0, shift is 0 and only x_i >= 0 is walked.
        if leading_zero:
            sides: tuple[tuple[int, int], ...] = ((0, 1),)
        else:
            start = round(-shift)
            sides = ((start, 1), (start - 1, -1))
        for xi, step in sides:
            while (term := d[level] * (xi + shift) ** 2) <= remaining:
                spend(budget)
                x[level] = xi
                descend(level - 1, remaining - term, leading_zero and xi == 0)
                xi += step
        x[level] = 0

    descend(m - 1, Fraction(1), True)
    normalized = []
    for v in found:
        lead = next(c for c in v if c != 0)
        normalized.append(v if lead > 0 else tuple(-c for c in v))
    return sorted(normalized, reverse=True)


def fraction_coset_minimum(form, budget: Budget) -> Fraction:
    """Exact minimum of z^T(-Q)z over the characteristic coset z = Q^{-1}diag(Q) mod 2.

    Branch and bound over the form's square completion of -Q, in zig-zag
    order: nearest coset point first, then outward; each side of a level is
    monotone in the partial value, so a failed side stays failed even as the
    incumbent shrinks.

    The library's coset search before its levels were scaled to integers; it
    must return the same minimum and spend the same nodes from ``budget``.
    """
    m = form.m
    d, u = cholesky_form([[-x for x in row] for row in dense(form)])
    parity = _characteristic_parity(form)
    # a Fraction, so that d = (m - best) / 4 stays exact when no leaf beats the seed
    best = Fraction(_greedy_descent(form, parity[:])[1])
    x = [0] * m
    half = Fraction(1, 2)

    def descend(level: int, acc: Fraction) -> None:
        nonlocal best
        if level < 0:
            if acc < best:
                best = acc
            return
        shift = sum(uj * x[j] for j, uj in u[level])
        center = -shift
        nearest = parity[level] + 2 * floor((center - parity[level]) / 2 + half)
        lo, hi = nearest - 2, nearest + 2
        spend(budget)
        term = d[level] * (nearest + shift) ** 2
        if acc + term < best:
            x[level] = nearest
            descend(level - 1, acc + term)
        lo_alive = hi_alive = True
        while lo_alive or hi_alive:
            if lo_alive and (not hi_alive or center - lo <= hi - center):
                xi, is_lo = lo, True
            else:
                xi, is_lo = hi, False
            spend(budget)
            term = d[level] * (xi + shift) ** 2
            if acc + term < best:
                x[level] = xi
                descend(level - 1, acc + term)
                if is_lo:
                    lo -= 2
                else:
                    hi += 2
            elif is_lo:
                lo_alive = False
            else:
                hi_alive = False
        x[level] = 0

    descend(m - 1, Fraction(0))
    return best


def cholesky_form(g: Sequence[Sequence[Fraction | int]]) -> Completion:
    """Rational square completion of a positive definite form, on sparse rows.

    Returns (d, u) with x^T G x = sum_i d[i] * (x_i + sum_j u_ij x_j)^2,
    eliminating in the given index order.  Each u[i] lists the nonzero
    (j, u_ij), all with j > i, in increasing j.  Only nonzero and filled-in
    entries are updated, so a tree form costs O(fill) rather than O(m^3).
    Raises ValueError if G is not positive definite.
    """
    upper = [
        {j: Fraction(x) for j, x in enumerate(row) if j >= i and x}
        for i, row in enumerate(g)
    ]
    d: list[Fraction] = []
    u: list[list[tuple[int, Fraction]]] = []
    for i, row in enumerate(upper):
        di = row.pop(i, Fraction(0))
        if di <= 0:
            raise ValueError("form is not positive definite")
        ui = sorted((j, x / di) for j, x in row.items() if x)
        for a, (k, uk) in enumerate(ui):
            target = upper[k]
            for l, ul in ui[a:]:
                target[l] = target.get(l, 0) - di * uk * ul
        d.append(di)
        u.append(ui)
    return d, u


def integer_levels(completion: Completion) -> IntegerLevels:
    """The levels of a square completion, scaled to integers once.

    den_i is the lcm of the denominators of the u_ij, so U_i = den_i * u_i is
    an integer row and d_i (x_i + shift)^2 = (d_i / den_i^2)(den_i x_i + S)^2
    with S = U_i . x an integer; scale is the lcm of the denominators of the
    d_i / den_i^2, and c_i = scale * d_i / den_i^2.  A search then compares
    every level's term with its budget, times scale, in integers.  Returned
    as form.levels holds them: (scale, dens, cs, feeds), feeds[j] the
    (i, U_ij) of column j in increasing i.
    """
    d, u = completion
    dens = [lcm(*(x.denominator for _, x in row)) for row in u]
    weights = [di / (den * den) for di, den in zip(d, dens)]
    scale = lcm(*(w.denominator for w in weights))
    cs = tuple(int(w * scale) for w in weights)
    feeds = tuple(
        tuple((i, int(x * den)) for i, (den, row) in enumerate(zip(dens, u)) for k, x in row if k == j)
        for j in range(len(u))
    )
    return scale, tuple(dens), cs, feeds


def solve_completion(
    d: list[Fraction], u: list[list[tuple[int, Fraction]]], rhs: Sequence[Fraction | int]
) -> list[Fraction]:
    """Solve G x = rhs, given the square completion (d, u) of G.

    G = U^T diag(d) U with U unit upper triangular, so one forward pass over
    the sparse rows of u, a division by d and one backward pass solve it.
    """
    y = [Fraction(b) for b in rhs]
    for i, row in enumerate(u):
        for j, uij in row:
            y[j] -= uij * y[i]
    x = [Fraction(0)] * len(y)
    for i in reversed(range(len(y))):
        x[i] = y[i] / d[i] - sum(uij * x[j] for j, uij in u[i])
    return x


def inverse_gluing_u(p):
    """u_i = -b_i^(-1) mod a_i, by a modular inverse of each of the presentation's b_i."""
    return tuple(-pow(bi, -1, ai) % ai for ai, bi in p.pairs)


def crt_balanced_d(moduli, residues):
    """The largest negative x with x = r_i mod m_i, by the Chinese remainder theorem.

    For pairwise coprime moduli and residues not all 0.
    """
    total = prod(moduli)
    x = sum(r * (total // m) * pow(total // m, -1, m) for r, m in zip(residues, moduli))
    return x % total - total


def tau_steps(norm, a, stop):
    """Delta(n) = 1 - e0 n - sum_i ceil(n w_i / a_i), w_i = -b~_i, for 0 <= n < stop.

    The steps of Laufer's computation sequence, tau(n + 1) = tau(n) + Delta(n),
    read off normalize's e0 and b~_i and the multiplicities a_i alone.
    """
    pairs = list(zip(norm.tilde_b, a))
    return [1 - norm.e0 * n + sum((n * tb) // ai for tb, ai in pairs) for n in range(stop)]


def semigroup_steps(values):
    """[n in G] - [N0 - n in G] for 0 <= n <= N0 + 1, where G = <qr, pr, pq>.

    N0 = pqr - qr - pr - pq for the triple (p, q, r).  G is sieved for
    membership: n > 0 is in G exactly when n - g is, for some generator g.
    """
    p, q, r = values
    gens = (q * r, p * r, p * q)
    top = p * q * r - sum(gens)
    member = [True] + [False] * (top + 1)
    for n in range(1, top + 2):
        member[n] = any(member[n - g] for g in gens if g <= n)
    return [member[n] - (n <= top and member[top - n]) for n in range(top + 2)]


def dedekind_sum(h, k):
    """s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((h r/k)), ((x)) = x - floor(x) - 1/2 off the integers and 0 on them."""

    def sawtooth(x):
        return Fraction(0) if x.denominator == 1 else x - floor(x) - Fraction(1, 2)

    return sum((sawtooth(Fraction(r, k)) * sawtooth(Fraction(h * r, k)) for r in range(1, k)), Fraction(0))


def scanned_tau_minimum(values):
    """(min tau, its minimizers) of Laufer's sequence, scanned from 0 to N (see tau_d_invariant)."""
    mult = validate_multiplicities(values)
    big_a = mult.product
    stop = big_a * len(mult.a) - sum(big_a // a for a in mult.a) - big_a + 1
    norm = normalize(solve_unnormalized(mult))
    taus = list(itertools.accumulate(tau_steps(norm, mult.a, stop), initial=0))
    lowest = min(taus)
    return lowest, [n for n, tau in enumerate(taus) if tau == lowest]


def tau_d_invariant(values, tau_minimum=scanned_tau_minimum):
    """(d, P) of Sigma(values) from Laufer's computation sequence, with no lattice search.

    tau(0) = 0 and tau(n + 1) = tau(n) + Delta(n) (tau_steps); then
    d = (K^2 + m)/4 - 2 min tau, with K^2 = k^T Q^-1 k and k_i = -Q_ii - 2 on
    the plumbing's form (Nemethi; Can-Karakurt), and
    P = max over the minimizers n of tau of |k.D + 2n|, k.D = (Q^-1 k)_0.  Past
    N = ceil(A (sum_i (1 - 1/a_i) - 1)) + 1 every step is at least
    1 + n/A - sum_i (1 - 1/a_i) > 0, so the scan stops there.  K^2 and k.D
    come from one integer solve on the form's minors and levels, re-checked
    against its rows.  tau_minimum gives (min tau, its minimizers): the full
    scan, scanned_tau_minimum, by default, or windowed_tau_minimum, which a
    property test pins to it and which scans far fewer points.
    """
    norm = normalize(solve_unnormalized(validate_multiplicities(values)))
    form = intersection_form(build_plumbing(norm))
    k = [-x - 2 for i, row in enumerate(form.rows) for j, x in row if j == i]
    x, det = _linalg.solve(form.minors, form.levels, [-ki for ki in k])  # Q x = det k
    assert all(sum(q * x[j] for j, q in row) == det * ki for row, ki in zip(form.rows, k))
    k2 = Fraction(sum(ki * xi for ki, xi in zip(k, x)), det)
    lowest, argmins = tau_minimum(values)
    p = max(abs(Fraction(x[0], det) + 2 * n) for n in argmins)
    return (k2 + form.m) / 4 - 2 * lowest, p


def windowed_tau_minimum(values):
    """(min tau, its minimizers) of Laufer's sequence, from a closed window around tau's vertex.

    With G_i(r) = sum_{j<r} floor(j b~_i / a_i), tabled for r <= a_i, and
    n = q a_i + r, tau(n) = n - e0 n(n-1)/2 + sum_i [q G_i(a_i)
    + b~_i a_i q(q-1)/2 + G_i(r) + q b~_i r].  Since e0 - sum_i b~_i/a_i = -1/A,
    tau(n) = (n - c)^2/(2A) + tau0 + sum_i P_i(n mod a_i) with c = (N0 + 1)/2
    and the a_i-periodic P_i(r) = (a_i - 1) r/(2 a_i) - sum_{s<r} {s b~_i/a_i};
    the vertex c is checked by tau0 coming out equal at floor(c) and floor(c) + 1.
    With L_i = min P_i, every minimizer n has
    (n - c)^2/(2A) <= tau(floor(c)) - tau0 - sum_i L_i = w^2/(2A), so the scan
    covers [floor(c - w), ceil(c + w)] from 0 on (a point more each side).  It
    is not clipped at N0 + 1: on the gap branch minimizers lie past it, as for
    (2, 3, 7), whose minimizers are 0, 2, ..., 6 with N0 = 1.
    """
    mult = validate_multiplicities(values)
    norm = normalize(solve_unnormalized(mult))
    big_a = mult.product
    fibers = []  # (a_i, b~_i, G_i(0..a_i), P_i(0..a_i - 1))
    for a, tb in zip(mult.a, norm.tilde_b):
        tables, periodic, fractional = [0], [], Fraction(0)
        for r in range(a):
            tables.append(tables[-1] + r * tb // a)
            periodic.append(Fraction((a - 1) * r, 2 * a) - fractional)
            fractional += Fraction(r * tb % a, a)
        fibers.append((a, tb, tables, periodic))

    def tau(n):
        total = n - norm.e0 * n * (n - 1) // 2
        for a, tb, tables, _ in fibers:
            q, r = divmod(n, a)
            total += q * tables[a] + tb * a * q * (q - 1) // 2 + tables[r] + q * tb * r
        return total

    n_zero = big_a * (len(mult.a) - 2) - sum(big_a // a for a in mult.a)
    c = Fraction(n_zero + 1, 2)
    floor_c = (n_zero + 1) // 2
    assert floor_c >= 0, values

    def offset(n):
        return tau(n) - sum(periodic[n % a] for a, _, _, periodic in fibers) - (n - c) ** 2 / (2 * big_a)

    tau0 = offset(floor_c)
    assert offset(floor_c + 1) == tau0, values
    reach = isqrt(floor(2 * big_a * (tau(floor_c) - tau0 - sum(min(periodic) for *_, periodic in fibers))))
    window = range(max(0, floor_c - reach - 1), floor_c + reach + 3)
    taus = [tau(n) for n in window]
    lowest = min(taus)
    return lowest, [n for n, value in zip(window, taus) if value == lowest]


def lazy_pool_handover(ranks, times, jobs, cpus, pool_after_s):
    """(k, W): the distinct tuple from which a batch hands the rest to a pool
    of W workers, or None, by the lazy two-cursor rule.

    ranks[k] is the tree rank of distinct tuple k and times[k] what evaluating
    it in-process costs.  The batch weighs the tuples done only at a check,
    and those to come only until their squared ranks pass the break-even
    left * (W - 1) * spent >= pool_after_s * W * done; it then keeps both
    running sums up to date after each evaluation.  The CLI weighs every
    tuple at the first check instead, and must hand over where this does.
    """
    spent = 0.0
    weights = []  # squared ranks of the first len(weights) tuples
    done = left = 0  # their sums over tuples [0, k) and [k, len(weights))
    for k in range(len(ranks)):
        workers = min(jobs, len(ranks) - k, cpus)
        if workers > 1 and spent >= pool_after_s:
            while len(weights) < k:
                weights.append(ranks[len(weights)] ** 2)
                done += weights[-1]
            need = pool_after_s * workers * done
            while left * (workers - 1) * spent < need and len(weights) < len(ranks):
                weights.append(ranks[len(weights)] ** 2)
                left += weights[-1]
            if left * (workers - 1) * spent >= need:
                return k, workers
        spent += times[k]
        if k < len(weights):
            done += weights[k]
            left -= weights[k]
    return None
