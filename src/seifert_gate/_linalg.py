"""Exact linear algebra for small integer quadratic forms.

Everything here works over arbitrary-precision integers; no floating point
and no fractions are used anywhere.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

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


def eliminate(g: Sequence[Sequence[tuple[int, int]]]) -> tuple[tuple[int, ...], IntegerLevels]:
    """(minors, levels): Bareiss (fraction-free) elimination of a positive definite
    form in index order, minors[i] the leading i x i minor (minors[0] = 1).

    g lists the nonzero (j, G_ij) of each row; only j >= i is read.  A step
    updates only the rows its pivot row touches, first scaling each to the
    current step as the steps that skipped it would have, so every division
    is exact.  Raises ValueError at the first pivot that is not positive.
    Pivot row i, N_i with N_ii = minors[i+1], is scaled into level i and
    dropped: d_i (x_i + u_i . x)^2, d_i = minors[i+1] / minors[i], u_i = N_i /
    minors[i+1].  With g_i = gcd(N_i), den_i = minors[i+1] / g_i and U_i = N_i
    / g_i, d_i / den_i^2 = g_i^2 / (minors[i] minors[i+1]); scale is the lcm
    of these weights' denominators.
    """
    upper = [{j: x for j, x in row if j >= i and x} for i, row in enumerate(g)]
    step = [0] * len(upper)  # row k holds minors[step[k]] times its Schur complement
    minors, weights, dens = [1], [], []
    feeds: list[list[tuple[int, int]]] = [[] for _ in upper]
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
        g_i = gcd(p, *(x for _, x in ni))
        num, q = g_i * g_i, prev * p
        t = gcd(num, q)
        weights.append((num // t, q // t))
        dens.append(p // g_i)
        for j, x in ni:
            feeds[j].append((i, x // g_i))
        minors.append(p)
    scale = lcm(*(q for _, q in weights))
    cs = tuple([num * (scale // q) for num, q in weights])
    return tuple(minors), (scale, tuple(dens), cs, tuple(map(tuple, feeds)))


def solve(minors: Sequence[int], levels: IntegerLevels, rhs: Sequence[int]) -> tuple[list[int], int]:
    """(X, det G) with G X = det G * rhs: eliminate's forward steps on rhs, then
    back substitution of the integer X (Cramer's rule), both column by column
    over feeds, with N_ij = g_i U_ij and g_i = minors[i+1] / dens[i]."""
    _, dens, _, feeds = levels
    gs = [n // den for n, den in zip(minors[1:], dens)]
    b = list(rhs)
    for k, col in enumerate(feeds):
        bk, lift = b[k], 1  # as a row in eliminate, bk is lift times its reduced value
        for i, u in col:
            prev = minors[i]
            bk = (minors[i + 1] * bk * prev // lift - gs[i] * u * b[i]) // prev
            lift = minors[i + 1]
        b[k] = bk * minors[k] // lift
    det = minors[-1]
    x, s = [0] * len(b), [0] * len(b)  # s[i]: the sum of U_ij x_j over the x_j found so far
    for j in reversed(range(len(b))):
        x[j] = (det * b[j] - gs[j] * s[j]) // minors[j + 1]
        for i, u in feeds[j]:
            s[i] += u * x[j]
    return x, det
