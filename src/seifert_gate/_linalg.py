"""Exact linear algebra for small integer quadratic forms.

Everything here works over arbitrary-precision integers or
``fractions.Fraction``; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

# (d, u) with x^T G x = sum_i d[i] * (x_i + sum_{(j, u_ij) in u[i]} u_ij x_j)^2
Completion = tuple[list[Fraction], list[list[tuple[int, Fraction]]]]
# (scale, levels), level i being (den_i, c_i, U_i), with
# scale * x^T G x = sum_i c_i * (den_i x_i + sum_{(j, U_ij) in U_i} U_ij x_j)^2
IntegerLevels = tuple[int, list[tuple[int, int, list[tuple[int, int]]]]]


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
    every level's term with its budget, times scale, in integers.
    """
    d, u = completion
    dens = [lcm(*(x.denominator for _, x in row)) for row in u]
    weights = [di / (den * den) for di, den in zip(d, dens)]
    scale = lcm(*(w.denominator for w in weights))
    levels = [
        (den, int(w * scale), [(j, int(x * den)) for j, x in row])
        for den, w, row in zip(dens, weights, u)
    ]
    return scale, levels


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

