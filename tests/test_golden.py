"""Verdict output against the golden corpus in tests/golden/.

Each corpus line is the compact batch JSON line of one tuple with elapsed_ms
removed; a tuple that ends in a typed error is stored as its error object.
Refactors must leave every line byte-identical.  diagonalize_nodes.json pins,
for every corpus tuple, the search nodes diagonalize spends at the corpus cap;
a search that visits other nodes fails it even when the verdicts agree.
Regenerate both only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import functools
import json
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_gate import DiagonalizationCertificate, diagonalize, validate_multiplicities
from seifert_gate.seifert import normalize, solve_unnormalized
from seifert_gate.plumbing import build_plumbing, intersection_form
from seifert_gate.cli import _render_tuple
from oracles import per_unit_units_check, units_are_orthonormal

GOLDEN = Path(__file__).resolve().parent / "golden"
NODES = GOLDEN / "diagonalize_nodes.json"
CAP = 3 * 10**4

CORPORA = {
    # every pairwise-coprime triple a < b < c from range(2, 16); (5, 8, 13)
    # exceeds the cap in its d search
    "coprime_triples_2_16.jsonl": [
        t
        for t in combinations(range(2, 16), 3)
        if all(gcd(x, y) == 1 for x, y in combinations(t, 2))
    ],
    # the diagonalizable ladder Sigma(2, 3, 6n+1), n = 2, 8, ..., 50 (rank 5 to 53)
    "gap_ladder.jsonl": [(2, 3, 6 * n + 1) for n in range(2, 51, 6)],
}


def golden_line(values: tuple[int, ...]) -> str:
    # the batch worker's compact line, with elapsed_ms taken out
    doc = json.loads(_render_tuple(values, CAP, json_output=True).text)
    doc.pop("elapsed_ms", None)
    return json.dumps(doc, separators=(",", ":"))


def corpus_certificates(name: str):
    """(tuple, certificate diagonalize builds at the corpus cap) for each corpus tuple."""
    for values in CORPORA[name]:
        m = validate_multiplicities(values)
        form = intersection_form(build_plumbing(normalize(solve_unnormalized(m))))
        yield values, diagonalize(form, CAP)


def diagonalize_nodes() -> dict[str, dict[str, int]]:
    """Nodes diagonalize spends on each corpus tuple, keyed by corpus and tuple."""
    return {
        name: {",".join(map(str, values)): cert.nodes for values, cert in corpus_certificates(name)}
        for name in CORPORA
    }


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_verdict_matches_golden_corpus(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    tuples = CORPORA[name]
    assert len(expected) == len(tuples)
    for values, line in zip(tuples, expected):
        assert golden_line(values) == line, f"output changed for {values}"


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_certificate_check_agrees_with_gram_oracle(name):
    """The certificate accepts a unit list exactly when its Gram matrix is -I.

    Tried on each corpus certificate's units, and on the lists one gets by
    appending a unit again, its negative, a standard basis vector, or the sum
    of two units, or by moving one unit's first entry; the basis vectors are
    those of the central vertex and of the last leg's outer end.
    """

    def accepts(form, units):
        try:
            DiagonalizationCertificate(form=form, units=units, nodes=0, cap=1)
        except ValueError:
            return False
        return True

    for values, cert in corpus_certificates(name):
        form, units = cert.form, cert.units
        assert units_are_orthonormal(form, units), values
        tries = [units] + [
            units + (tuple(int(i == j) for j in range(form.m)),) for i in (0, form.m - 1)
        ]
        if units:
            u = units[0]
            tries += [
                units + (u,),
                units + (tuple(-c for c in u),),
                ((u[0] + 1,) + u[1:],) + units[1:],
            ]
        if len(units) > 1:
            tries.append(units + (tuple(a + b for a, b in zip(units[0], units[1])),))
        for t in tries:
            assert accepts(form, t) == units_are_orthonormal(form, t), (values, t)


@functools.cache
def all_corpus_certificates():
    return [cert for name in sorted(CORPORA) for _, cert in corpus_certificates(name)]


def forge(kind, units, m, i, j, p):
    """units changed as kind says, at unit i (and a second unit j) and entry p, each taken mod its range."""
    units, k = list(units), len(units)
    i, j, p = i % k, j % k, p % m
    scaled = lambda v, c: tuple(c * x for x in v)
    added = lambda v, w: tuple(a + b for a, b in zip(v, w))
    if j == i:
        j = (i + 1) % k
    if kind == "zero beside norm -2":  # the norms still sum to -k; only a check of each norm sees it
        units[i], units[j] = (0,) * m, added(units[i], units[j])
    elif kind == "sum of two units":
        units[i] = added(units[i], units[j])
    elif kind == "doubled":
        units[i] = scaled(units[i], 2)
    elif kind == "repeated":
        units.append(units[i])
    elif kind == "negated":
        units.append(scaled(units[i], -1))
    elif kind == "float entry":
        units[i] = units[i][:p] + (float(units[i][p]),) + units[i][p + 1:]
    elif kind == "bool entries":  # isinstance(True, int), so these are accepted
        units[i] = tuple(bool(x) if x in (0, 1) else x for x in units[i])
    return tuple(units)


FORGERIES = ("none", "zero beside norm -2", "sum of two units", "doubled", "repeated", "negated", "float entry", "bool entries")


def check_message(check, form, units):
    """None if check accepts units on form, else its ValueError's message."""
    try:
        check(form, units)
    except ValueError as e:
        return str(e)
    return None


def certificate_check(form, units):
    DiagonalizationCertificate(form=form, units=units, nodes=0, cap=1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 10**4), st.sampled_from(FORGERIES), st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 10**4))
def test_certificate_check_matches_the_per_unit_oracle(n, kind, i, j, p):
    """The library's incremental check and the per-unit check accept the same unit lists and reject them with one message.

    Tried on the units of every corpus certificate (both corpora, the gap
    ladder among them), as they are or forged as FORGERIES names.
    """
    certs = all_corpus_certificates()
    cert = certs[n % len(certs)]
    units = cert.units if kind == "none" or len(cert.units) < 2 else forge(kind, cert.units, cert.form.m, i, j, p)
    expected = check_message(per_unit_units_check, cert.form, units)
    assert check_message(certificate_check, cert.form, units) == expected
    if kind == "zero beside norm -2" and len(cert.units) > 1:
        assert expected == "units must have self-intersection -1"


@pytest.mark.parametrize("kind", FORGERIES)
def test_each_forgery_meets_the_oracle_on_every_gap_rung(kind):
    for values, cert in corpus_certificates("gap_ladder.jsonl"):
        units = cert.units if kind == "none" else forge(kind, cert.units, cert.form.m, 0, 1, 0)
        expected = check_message(per_unit_units_check, cert.form, units)
        assert check_message(certificate_check, cert.form, units) == expected, (values, kind)
        assert (expected is None) == (kind in ("none", "bool entries")), (values, kind, expected)


def test_diagonalize_nodes_match_pins():
    expected = json.loads(NODES.read_text(encoding="utf-8"))
    assert diagonalize_nodes() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, tuples in CORPORA.items():
        text = "".join(golden_line(t) + "\n" for t in tuples)
        (GOLDEN / name).write_text(text, encoding="utf-8")
    NODES.write_text(json.dumps(diagonalize_nodes(), indent=1) + "\n", encoding="utf-8")
