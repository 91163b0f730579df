"""Correctness gate for obstruction reports, recomputed outside the package.

Every check works on the JSON report a user receives and uses only this
file's own integer arithmetic: the star-shaped plumbing is rebuilt from the
multiplicities, and the certificate in the report is checked against it.
Nothing from ``seifert_gate`` is imported here, so a defect in the package
cannot hide itself from the gate.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod
from typing import Any

CAP_ERROR = "EnumerationCapExceeded"


def plumbing(tup: tuple[int, ...]) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """Central weight e0, normalized b~ and legs of the star plumbing of Sigma(tup).

    b~_j is the representative of (A/a_j)^(-1) mod a_j in (-a_j, 0); e0 follows
    from the defining identity sum(-b~_j/a_j) = -e0 - 1/A, and leg j is the
    negative continued fraction of a_j/b~_j with every entry <= -2.
    """
    big_a = prod(tup)
    tilde = tuple(pow(big_a // a, -1, a) - a for a in tup)
    e0 = -(sum(Fraction(-b, a) for a, b in zip(tup, tilde)) + Fraction(1, big_a))
    if e0.denominator != 1:
        raise ValueError(f"{tup}: Seifert identity gives non-integral e0 = {e0}")
    legs = []
    for a, b in zip(tup, tilde):
        num, den = -a, -b  # a/b~ as num/den with den > 0
        leg = [num // den]
        while num % den:
            # x - floor(x) lies in (0, 1); continue with -1/(x - floor(x)).
            num, den = -den, num - leg[-1] * den
            leg.append(num // den)
        legs.append(tuple(leg))
    return int(e0), tilde, legs


def rank(tup: tuple[int, ...]) -> int:
    """Number of vertices of the plumbing, which is the rank m of its form."""
    return 1 + sum(len(leg) for leg in plumbing(tup)[2])


def _continuant(weights: tuple[int, ...]) -> int:
    """Determinant of the path matrix with these weights on the diagonal and 1 beside it."""
    prev, cur = 0, 1
    for w in weights:
        prev, cur = cur, w * cur - prev
    return cur


def _star_det(e0: int, legs: list[tuple[int, ...]]) -> tuple[int, bool]:
    """Determinant of the star form and whether it is negative definite.

    Each leg is negative definite (weights <= -2), so the form is negative
    definite exactly when the Schur complement e0 - sum(D'_j/D_j) at the
    center is negative, where D_j is the leg's continuant and D'_j the
    continuant of the leg without its first vertex.
    """
    full = [_continuant(leg) for leg in legs]
    inner = [_continuant(leg[1:]) for leg in legs]
    schur = Fraction(e0) - sum(Fraction(i, f) for i, f in zip(inner, full))
    det = schur * prod(full)
    return int(det), schur < 0


def _adjacency(e0: int, legs: list[tuple[int, ...]]) -> tuple[list[int], list[list[int]]]:
    weights = [e0]
    nbrs: list[list[int]] = [[]]
    for leg in legs:
        prev = 0
        for w in leg:
            idx = len(weights)
            weights.append(w)
            nbrs.append([prev])
            nbrs[prev].append(idx)
            prev = idx
    return weights, nbrs


def check_report(tup: tuple[int, ...], rep: dict[str, Any]) -> list[str]:
    """Names of the checks a report (or an embedded error) fails; empty when it passes.

    A typed EnumerationCapExceeded error is a valid outcome: the tuple did
    not fit the workload's node cap.  Any other error fails the gate, and so
    does a report that lacks a field or holds a value of the wrong type.
    """
    try:
        return _failed_checks(tup, rep)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed_report:{type(exc).__name__}"]


def _failed_checks(tup: tuple[int, ...], rep: dict[str, Any]) -> list[str]:
    if "error" in rep:
        ok = rep.get("input") == list(tup) and rep["error"].get("type") == CAP_ERROR
        return [] if ok else [f"unexpected_error:{rep['error'].get('type')}"]
    failed: list[str] = []

    def need(name: str, ok: bool) -> None:
        if not ok:
            failed.append(name)

    big_a = prod(tup)
    e0, tilde, legs = plumbing(tup)
    need("input", rep["input"] == list(tup) and rep["A"] == big_a)
    need("seifert", rep["e0"] == e0 and rep["tilde_b"] == list(tilde))
    need(
        "plumbing",
        rep["plumbing"] == {"center": e0, "legs": [list(leg) for leg in legs]},
    )
    det, negdef = _star_det(e0, legs)
    need("det_unimodular", abs(det) == 1 and rep["det"] == det)
    need("negative_definite", negdef and rep["negative_definite"] is True)

    d = rep["d_invariant"]
    d_num, d_den = int(d["num"]), int(d["den"])
    need("d_even_nonnegative", d_den == 1 and d_num >= 0 and d_num % 2 == 0)
    diag = rep["diagonalizable"] is True
    need("elkies_d_zero_iff_diagonalizable", (d_num == 0) == diag)
    expected_verdict = "obstructed_floer_gap" if diag else "obstructed_donaldson"
    need("verdict_branch", rep["verdict"] == expected_verdict)

    weights, nbrs = _adjacency(e0, legs)
    m = len(weights)
    if diag:
        e = rep["E"]
        shape_ok = len(e) == m and all(len(row) == m for row in e)
        need("E_shape", shape_ok)
        if shape_ok:
            cols = [[e[i][j] for i in range(m)] for j in range(m)]
            q_cols = [
                [weights[i] * c[i] + sum(c[k] for k in nbrs[i]) for i in range(m)]
                for c in cols
            ]
            need(
                "ETQE_is_minus_identity",
                all(
                    sum(x * y for x, y in zip(cols[a], q_cols[b])) == (-1 if a == b else 0)
                    for a in range(m)
                    for b in range(a, m)
                ),
            )
            p = rep["P"]
            need("P_is_first_row_l1", p == sum(abs(x) for x in e[0]))
            need("first_row_norm_is_A", sum(x * x for x in e[0]) == big_a)
            need("P_square_at_least_A", p * p >= big_a)
            need("P_parity_of_A", (p - big_a) % 2 == 0)
            need(
                "gap_lower",
                rep.get("gap_lower") == {"num": str(-isqrt(big_a - 1) + p + 1), "den": "1"},
            )
    else:
        need("no_E_without_diagonalization", "E" not in rep and "P" not in rep)

    cert = rep["twist_certificate"]
    need(
        "twist_certificate_all_checks_pass",
        cert["all_checks_pass"] is True and all(cert["checks"].values()),
    )

    if len(tup) == 3 and sorted(tup)[:2] == [2, 3]:
        q = max(tup)
        if q % 6 == 1:
            need("family_2_3_6n+1", d_num == 0 and rep.get("P") == q + 3)
        elif q % 6 == 5:
            need("family_2_3_6n-1", d_num == 2)
    return failed
