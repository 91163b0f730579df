"""Smoke test of the benchmark itself, on a few tuples.

    python3 -m pytest -q perfbench/test_smoke.py

Shows that one run prints every metric named in BENCHMARK.json with its
unit, in both modes, that the correctness gate rejects tampered reports,
and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# (5, 8, 13) ends in EnumerationCapExceeded at this cap, so the cap path is covered.
SMOKE = Workload("smoke", 10**4, ((2, 3, 5), (2, 3, 13), (3, 4, 5), (2, 3, 5), (5, 8, 13)),
                 ((2, 3, 13),))


@pytest.fixture()
def smoke_workload(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, SMOKE.name, SMOKE)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUPS_PER_ROUND", 1)


def _last_lines(capsys, argv):
    """Exit code, record line and result line of one run."""
    code = run.main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-2]), json.loads(out[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(smoke_workload, capsys, trace, kind):
    code, record, result = _last_lines(
        capsys, ["--workload", "smoke", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert result["metrics"]["verdict_frac"]["value"] == pytest.approx(4 / 5)
    else:
        # Every call verdict() makes is traced where it happens, not replayed.
        expected_spans = set(spans.VERDICT_CALLS.values()) | {"obstruction.TwistBound.for_product"}
        assert set(record["instrumented"]) == expected_spans
        assert result["metrics"]["lattice.d.failed"]["value"] == 1
        assert result["metrics"]["lattice.diagonalize.present"]["value"] == pytest.approx(2 / 5)
    assert 0 < record["properties"]["repeated_cost_share"] < 1


def _report(tup):
    sys.path.insert(0, str(run.SRC))
    import seifert_gate
    import seifert_gate.cli

    doc = seifert_gate.cli.report_to_dict(seifert_gate.verdict(tup))
    doc.pop("elapsed_ms")
    return json.loads(json.dumps(doc))


def test_gate_accepts_genuine_reports_and_rejects_tampered_ones():
    gap, donaldson = _report((2, 3, 13)), _report((2, 3, 5))
    assert gate.check_report((2, 3, 13), gap) == []
    assert gate.check_report((2, 3, 5), donaldson) == []

    flipped = copy.deepcopy(gap)
    flipped["d_invariant"] = {"num": "2", "den": "1"}
    assert "elkies_d_zero_iff_diagonalizable" in gate.check_report((2, 3, 13), flipped)
    flipped = copy.deepcopy(donaldson)
    flipped["d_invariant"] = {"num": "0", "den": "1"}
    assert "family_2_3_6n-1" in gate.check_report((2, 3, 5), flipped)

    altered = copy.deepcopy(gap)
    altered["E"][1][0] += 1
    assert "ETQE_is_minus_identity" in gate.check_report((2, 3, 13), altered)
    truncated = copy.deepcopy(gap)
    del truncated["E"][-1]
    assert gate.check_report((2, 3, 13), truncated) == ["E_shape"]
    assert gate.check_report((2, 3, 13), {"input": [2, 3, 13]})[0].startswith("malformed")


def test_gate_accepts_only_the_cap_error():
    def err(kind):
        return {"input": [5, 8, 13], "error": {"type": kind, "message": "x"}}

    assert gate.check_report((5, 8, 13), err("EnumerationCapExceeded")) == []
    assert gate.check_report((5, 8, 13), err("NotCoprime")) != []


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS.values():
        assert set(wl.cli_tuples) <= set(wl.tuples)
        assert sorted(wl.order(7)) == sorted(wl.tuples) and wl.order(7) == wl.order(7)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
