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

import json
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from seifert_gate import DiagonalizationCertificate, diagonalize, validate_multiplicities
from seifert_gate.seifert import normalize, solve_unnormalized
from seifert_gate.plumbing import build_plumbing, intersection_form
from seifert_gate.cli import _render_tuple
from oracles import units_are_orthonormal

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


def test_diagonalize_nodes_match_pins():
    expected = json.loads(NODES.read_text(encoding="utf-8"))
    assert diagonalize_nodes() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, tuples in CORPORA.items():
        text = "".join(golden_line(t) + "\n" for t in tuples)
        (GOLDEN / name).write_text(text, encoding="utf-8")
    NODES.write_text(json.dumps(diagonalize_nodes(), indent=1) + "\n", encoding="utf-8")
