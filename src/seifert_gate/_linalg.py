"""Exact linear algebra for small integer quadratic forms.

Everything here works over arbitrary-precision integers; no floating point
and no fractions are used anywhere.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

# (minors, pivots): minors[i] is the leading i x i minor of G (minors[0] = 1),
# pivots[i] the nonzero (j, N_ij), j > i, of row i of G after i fraction-free
# steps, whose diagonal entry N_ii is minors[i + 1]
Elimination = tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]
# (scale, dens, cs, feeds), with feeds[j] the (i, U_ij) of column j in increasing i and
# scale * x^T G x = sum_i cs[i] * (dens[i] x_i + S_i)^2, S_i the sum of U_ij x_j over those pairs
IntegerLevels = tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]


def row_lattice_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the lattice generated by integer rows (echelon form over Z).

    Gcd-style row reduction; the returned rows are triangular and generate
    exactly the same lattice as the input rows.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    cols = len(work[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            while work[i][c] != 0:
                q = work[r][c] // work[i][c]
                work[r] = [a - q * b for a, b in zip(work[r], work[i])]
                work[r], work[i] = work[i], work[r]
        if work[r][c] < 0:
            work[r] = [-a for a in work[r]]
        r += 1
        if r == len(work):
            break
    return [row for row in work[:r] if any(row)]


def eliminate(g: Sequence[Sequence[tuple[int, int]]]) -> Elimination:
    """Bareiss (fraction-free) elimination of a positive definite form, in index order.

    g lists the nonzero (j, G_ij) of each row; only j >= i is read.  A step
    updates only the rows its pivot row touches, first scaling each to the
    current step as the steps that skipped it would have, so every division
    is exact.  Raises ValueError at the first pivot that is not positive.
    """
    upper = [{j: x for j, x in row if j >= i and x} for i, row in enumerate(g)]
    step = [0] * len(upper)  # row k holds minors[step[k]] times its Schur complement
    minors, pivots = [1], []
    for i, row in enumerate(upper):
        prev, lift = minors[i], minors[step[i]]
        p = row.pop(i, 0) * prev // lift
        if p <= 0:
            raise ValueError("form is not positive definite")
        ni = tuple(sorted((j, x * prev // lift) for j, x in row.items() if x))
        for a, (k, nk) in enumerate(ni):
            target, lift, cols = upper[k], minors[step[k]], dict(ni[a:])
            for l in target.keys() | cols.keys():
                target[l] = (p * target.get(l, 0) * prev // lift - nk * cols.get(l, 0)) // prev
            step[k] = i + 1
        minors.append(p)
        pivots.append(ni)
    return tuple(minors), tuple(pivots)


def scaled_levels(elimination: Elimination) -> IntegerLevels:
    """The square completion of G, each level scaled to integers.

    Level i is d_i (x_i + u_i . x)^2 with d_i = minors[i+1] / minors[i] and
    u_i = N_i / minors[i+1].  With g_i = gcd(minors[i+1], N_i), den_i =
    minors[i+1] / g_i, U_i = N_i / g_i, and d_i / den_i^2 = g_i^2 /
    (minors[i] minors[i+1]); scale is the lcm of these weights' denominators.
    U is kept by column, feeds[j] the (i, U_ij) of the levels x_j enters.
    """
    minors, pivots = elimination
    weights, dens = [], []
    feeds: list[list[tuple[int, int]]] = [[] for _ in pivots]
    for i, row in enumerate(pivots):
        g = gcd(minors[i + 1], *(x for _, x in row))
        num, q = g * g, minors[i] * minors[i + 1]
        t = gcd(num, q)
        weights.append((num // t, q // t))
        dens.append(minors[i + 1] // g)
        for j, x in row:
            feeds[j].append((i, x // g))
    scale = lcm(*(q for _, q in weights))
    return scale, tuple(dens), tuple([num * (scale // q) for num, q in weights]), tuple(map(tuple, feeds))


def solve(elimination: Elimination, rhs: Sequence[int]) -> tuple[list[int], int]:
    """(X, det G) with G X = det G * rhs: the forward steps on rhs, scaled as in
    eliminate, then back substitution of the integer X (Cramer's rule)."""
    minors, pivots = elimination
    b, step = list(rhs), [0] * len(rhs)
    for i, row in enumerate(pivots):
        prev = minors[i]
        b[i] = b[i] * prev // minors[step[i]]
        for k, nk in row:
            b[k] = (minors[i + 1] * b[k] * prev // minors[step[k]] - nk * b[i]) // prev
            step[k] = i + 1
    det = minors[-1]
    x = [0] * len(b)
    for i in reversed(range(len(b))):
        x[i] = (det * b[i] - sum(nij * x[j] for j, nij in pivots[i])) // minors[i + 1]
    return x, det
