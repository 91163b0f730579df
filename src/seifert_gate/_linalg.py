"""Exact linear algebra for small integer quadratic forms.

Everything here works over arbitrary-precision integers; no floating point
and no fractions are used anywhere.  eliminate takes a plumbing star from its
legs' continuants, any other form (the units' complement) by Bareiss steps.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .errors import CertificateViolation

# (scale, dens, cs, feeds), with feeds[j] the (i, U_ij) of column j in increasing i and
# scale * x^T G x = sum_i cs[i] * (dens[i] x_i + S_i)^2, S_i the sum of U_ij x_j over those pairs
IntegerLevels = tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]
# (minors, gcds, feeds) of the pivot rows N_i: g_i = gcd(N_i), feeds[j] the (i, N_ij / g_i) in increasing i
PivotRows = tuple[list[int], list[int], list[list[tuple[int, int]]]]
# the nonzero Q_ij with i < j of a symmetric Q, as parallel tuples (i, j, Q_ij) in strictly increasing (i, j)
Upper = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


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


def eliminate(diagonal: Sequence[int], upper: Upper) -> tuple[tuple[int, ...], IntegerLevels]:
    """(minors, levels): fraction-free elimination in index order of G = -Q for
    a negative definite Q, minors[i] the leading i x i minor of G (minors[0] = 1).

    diagonal holds the Q_ii, upper the nonzero Q_ij with i < j (Q_ji = Q_ij) as
    parallel tuples (i, j, Q_ij) in strictly increasing (i, j), as
    IntersectionForm checks them.  A star takes its legs' continuants (_star),
    any other form Bareiss steps; both give the pivot rows N_i (N_ii =
    minors[i+1]) as their gcds g_i and the N_i / g_i by column, and raise
    ValueError at the first pivot that is not positive.
    Row i is scaled into level i: d_i (x_i + u_i . x)^2, d_i = minors[i+1] /
    minors[i], u_i = N_i / minors[i+1].  With den_i = minors[i+1] / g_i and
    U_i = N_i / g_i, d_i / den_i^2 = g_i^2 / (minors[i] minors[i+1]); scale
    is the lcm of these weights' denominators.
    """
    starts = _star_shape(diagonal, upper)
    minors, gs, feeds = _bareiss(diagonal, upper) if starts is None else _star(starts, diagonal)
    weights = []
    for prev, p, g_i in zip(minors, minors[1:], gs):
        num, q = g_i * g_i, prev * p
        t = gcd(num, q)
        weights.append((num // t, q // t))
    scale = lcm(*(q for _, q in weights))
    cs = tuple([num * (scale // q) for num, q in weights])
    dens = tuple([p // g_i for p, g_i in zip(minors[1:], gs)])
    return tuple(minors), (scale, dens, cs, tuple(map(tuple, feeds)))


def _bareiss(diagonal: Sequence[int], upper: Upper) -> PivotRows:
    """The pivot rows by Bareiss steps on the upper triangle of G.  A step
    updates only the rows its pivot row touches, first scaling each to the
    current step as the steps that skipped it would have, so every division
    is exact; each pivot row is divided into feeds once it is final, then dropped."""
    work = [{i: -q} for i, q in enumerate(diagonal)]
    for i, j, x in zip(*upper):
        work[i][j] = -x
    step = [0] * len(work)  # row k holds minors[step[k]] times its Schur complement
    minors, gs, feeds = [1], [], [[] for _ in work]
    for i, row in enumerate(work):
        prev, lift = minors[i], minors[step[i]]
        p = row.pop(i) * prev // lift
        if p <= 0:
            raise ValueError(f"-Q is not positive definite at pivot {i}")
        ni = tuple(sorted((j, x * prev // lift) for j, x in row.items() if x))
        for a, (k, nk) in enumerate(ni):
            target, lift, cols = work[k], minors[step[k]], dict(ni[a:])
            for l in target.keys() | cols.keys():
                target[l] = (p * target.get(l, 0) * prev // lift - nk * cols.get(l, 0)) // prev
            step[k] = i + 1
        g_i = gcd(p, *(x for _, x in ni))
        for j, x in ni:
            feeds[j].append((i, x // g_i))
        minors.append(p)
        gs.append(g_i)
    return minors, gs, feeds


def _star_shape(diagonal: Sequence[int], upper: Upper) -> tuple[int, ...] | None:
    """The legs' first vertices if the form is a star, centre first and each
    leg outward, else None: every edge is 1, the centre's edges go to the legs'
    first vertices, and every other vertex i has the inner edge (i - 1, i), so
    -I_2, with no edge, is no star."""
    lo, hi, entries = upper
    starts = hi[: lo.count(0)]  # the keys increase, so the centre's edges come first
    first = set(starts)
    inner = [i for i in range(1, len(diagonal)) if i not in first]
    n = len(starts)
    if entries.count(1) != len(entries) or hi[n:] != tuple(inner) or lo[n:] != tuple([i - 1 for i in inner]):
        return None
    return starts


def _star(starts: Sequence[int], diagonal: Sequence[int]) -> PivotRows:
    """A star's pivot rows with O(1) big-integer steps per vertex, from the
    legs' first vertices and the Q_ii.

    The centre, a leg of its own here, starts with shared = 0 and s = -1.
    Along a leg minors[i+1] = -Q_ii minors[i] - minors[i-1], a continuant; at
    its first vertex shared stands in for -minors[i-1]: minors[i] times the
    Schur entry the first vertices not yet eliminated share.  Pivot row i
    holds -minors[i] at its leg's next vertex and s, the shared its leg began
    with, at every later leg's first vertex; then shared = (minors[i+1] shared
    - s^2) / minors[i], an exact division.
    """
    minors, gs, feeds = [1], [], [[] for _ in diagonal]
    shared, s = 0, -1
    for k, (f, end) in enumerate(zip([0, *starts], [*starts, len(diagonal)])):
        later = starts[k:]
        for i in range(f, end):
            prev = minors[i]
            p = (shared if i == f else -minors[i - 1]) - diagonal[i] * prev
            if p <= 0:
                raise ValueError(f"-Q is not positive definite at pivot {i}")
            nxt = i + 1 < end
            g_i = gcd(p, prev if nxt else 0, s if later else 0)
            if nxt:
                feeds[i + 1].append((i, -prev // g_i))
            if later:
                entry = (i, s // g_i)
                for j in later:
                    feeds[j].append(entry)
                shared, r = divmod(p * shared - s * s, prev)
                if r:
                    raise CertificateViolation(f"star step {i}: shared entry not integral")
            minors.append(p)
            gs.append(g_i)
        s = shared
    return minors, gs, feeds


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
