import io
import json
import subprocess
import sys

import pytest

from seifert_gate import cli
from seifert_gate.cli import main, report_to_dict
from seifert_gate.obstruction import verdict


class SerialPool:
    """Stand-in for the process pool: evaluates in this process, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


SCHEMA_KEYS_DONALDSON = [
    "input",
    "A",
    "unnormalized_b",
    "e0",
    "tilde_b",
    "plumbing",
    "det",
    "negative_definite",
    "diagonalizable",
    "d_invariant",
    "tw_min",
    "smooth_tau_upper",
    "contact_tau_lower_at_tw_min",
    "twist_certificate",
    "verdict",
    "caveats",
    "elapsed_ms",
]

SCHEMA_KEYS_FLOER = [
    "input",
    "A",
    "unnormalized_b",
    "e0",
    "tilde_b",
    "plumbing",
    "det",
    "negative_definite",
    "diagonalizable",
    "E",
    "P",
    "d_invariant",
    "tw_min",
    "smooth_tau_upper",
    "contact_tau_lower_at_tw_min",
    "gap_lower",
    "twist_certificate",
    "verdict",
    "caveats",
    "elapsed_ms",
]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSingleMode:
    def test_poincare_json(self, capsys):
        code, out = run_json(capsys, ["2", "3", "5", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "obstructed_donaldson"
        assert list(doc.keys()) == SCHEMA_KEYS_DONALDSON
        assert doc["d_invariant"] == {"num": "2", "den": "1"}
        assert doc["plumbing"] == {
            "center": -2,
            "legs": [[-2], [-2, -2], [-2, -2, -2, -2]],
        }
        assert doc["smooth_tau_upper"]["sharp_form"] is None

    def test_2_3_13_json_schema(self, capsys):
        code, out = run_json(capsys, ["2", "3", "13", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "obstructed_floer_gap"
        assert list(doc.keys()) == SCHEMA_KEYS_FLOER
        assert doc["P"] == 16
        assert doc["tw_min"] == -8
        assert doc["gap_lower"] == {"num": "9", "den": "1"}
        assert doc["twist_certificate"]["all_checks_pass"] is True

    def test_text_mode(self, capsys):
        code, out = run_json(capsys, ["2", "3", "13"])
        assert code == 0
        assert "obstructed_floer_gap" in out
        assert "~" in out  # decimal approximations are marked

    def test_validation_error_exit_code(self, capsys):
        assert main(["2", "4", "5"]) == 2

    def test_too_few_fibers_exit_code(self, capsys):
        assert main(["2", "3"]) == 2

    def test_no_arguments_usage(self, capsys):
        assert main([]) == 2

    def test_cap_exceeded_exit_code(self, capsys):
        assert main(["5", "7", "11", "13", "--cap", "1000"]) == 3

    def test_rank_too_large_exit_code(self, capsys):
        assert main(["2", "3", "6001"]) == 2
        assert "RankTooLarge" in capsys.readouterr().err

    def test_cap_floor_enforced(self, capsys):
        assert main(["2", "3", "5", "--cap", "500"]) == 2

    def test_kn_range_is_an_unknown_option(self, capsys):
        assert main(["2", "3", "5", "--kn-range", "-5"]) == 2
        assert "unrecognized arguments: --kn-range" in capsys.readouterr().err

    def test_json_deterministic_modulo_elapsed(self, capsys):
        _, out1 = run_json(capsys, ["2", "3", "13", "--json"])
        _, out2 = run_json(capsys, ["2", "3", "13", "--json"])
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_ms")
        d2.pop("elapsed_ms")
        assert json.dumps(d1) == json.dumps(d2)


class TestBatchMode:
    def test_three_valid_lines(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5\n2 3 7  # a comment\n2 3 13\n")
        code, out = run_json(capsys, ["--batch", str(f), "--json"])
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(docs) == 3
        assert [d["input"] for d in docs] == [[2, 3, 5], [2, 3, 7], [2, 3, 13]]
        assert docs[0]["verdict"] == "obstructed_donaldson"
        assert docs[1]["verdict"] == "obstructed_floer_gap"

    def test_five_fiber_line(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5 7 11\n")
        code, out = run_json(capsys, ["--batch", str(f), "--json"])
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["A"] == 2310
        assert len(doc["plumbing"]["legs"]) == 5

    def test_empty_file(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("")
        code, out = run_json(capsys, ["--batch", str(f), "--json"])
        assert code == 0
        assert out == ""

    def test_validation_errors_embedded(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 4 5\n2 3 7\n")
        code, out = run_json(capsys, ["--batch", str(f), "--json"])
        assert code == 0  # both lines parse; the error is data
        lines = out.strip().splitlines()
        first = json.loads(lines[0])
        assert first["error"]["type"] == "NotCoprime"
        assert json.loads(lines[1])["verdict"] == "obstructed_floer_gap"

    def test_rank_too_large_line_is_data(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 6001\n2 3 7\n")
        code, out = run_json(capsys, ["--batch", str(f), "--json"])
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["error"]["type"] == "RankTooLarge"
        assert json.loads(lines[1])["verdict"] == "obstructed_floer_gap"

    def test_unparseable_line_sets_exit_code(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 five\n2 3 7\n")
        code, out = run_json(capsys, ["--batch", str(f), "--json"])
        assert code == 2
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["error"]["type"] == "ParseError"
        assert json.loads(lines[1])["verdict"] == "obstructed_floer_gap"

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_bytes(b"\xff\xfe2 3 5\n")
        code = main(["--batch", str(f), "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {f}: ")

    def test_jobs_parallel_preserves_order(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5\n2 3 7\n2 3 11\n2 3 13\n")
        code, out = run_json(capsys, ["--batch", str(f), "--json", "--jobs", "3"])
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["input"][2] for d in docs] == [5, 7, 11, 13]

    def test_batch_text_mode(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 five\n2 4 5\n2 3 7\n")
        code, out = run_json(capsys, ["--batch", str(f)])
        assert code == 2
        assert "ParseError" in out
        assert "NotCoprime" in out
        assert "obstructed_floer_gap" in out

    def test_unexpected_error_stays_on_its_line(self, tmp_path, capsys, monkeypatch):
        real = cli.verdict

        def failing(values, **kwargs):
            if tuple(values) == (2, 3, 7):
                raise RuntimeError("boom")
            return real(values, **kwargs)

        monkeypatch.setattr(cli, "verdict", failing)
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5\n2 3 7\n2 3 13\n")
        code = main(["--batch", str(f), "--json"])
        out, err = capsys.readouterr()
        assert code == 1
        assert "RuntimeError: boom" in err
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[1] == {
            "input": [2, 3, 7],
            "error": {"type": "RuntimeError", "message": "boom"},
        }
        assert [d["verdict"] for d in (docs[0], docs[2])] == [
            "obstructed_donaldson",
            "obstructed_floer_gap",
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_lines_stream_in_order(self, tmp_path, monkeypatch, jobs):
        # Each line must be written before the next tuple is evaluated.  A
        # serial stand-in for the process pool keeps the ordering observable.
        out = io.StringIO()
        written_before = []
        real = cli.verdict

        def observed(values, **kwargs):
            written_before.append(out.getvalue().count("\n"))
            return real(values, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "verdict", observed)
        monkeypatch.setattr(sys, "stdout", out)
        f = tmp_path / "batch.txt"
        f.write_text("2 3 five\n2 3 5\n2 3 7\n2 3 13\n")
        assert main(["--batch", str(f), "--json", "--jobs", jobs]) == 2
        assert written_before == [1, 2, 3]
        assert len(out.getvalue().splitlines()) == 4

    @pytest.mark.parametrize(
        "cpus, jobs, lines, workers",
        [(4, 5000, 2, 2), (4, 5000, 6, 4), (4, 3, 6, 3), (None, 5000, 6, None)],
    )
    def test_pool_size_is_capped(self, tmp_path, monkeypatch, capsys, cpus, jobs, lines, workers):
        # The pool starts all its workers at once, so --jobs asks for no more
        # than there are CPUs and tuples; the stand-in pool starts none.
        sizes = []

        class RecordingPool(SerialPool):
            def __init__(self, max_workers):
                sizes.append(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        f = tmp_path / "batch.txt"
        f.write_text("".join(f"2 3 {c}\n" for c in (5, 7, 11, 13, 17, 19)[:lines]))
        code, out = run_json(capsys, ["--batch", str(f), "--json", "--jobs", str(jobs)])
        assert code == 0
        assert len(out.splitlines()) == lines
        assert sizes == ([] if workers is None else [workers])

    def test_missing_file(self, capsys):
        assert main(["--batch", "/nonexistent/nope.txt"]) == 2


class TestFamilyMode:
    def test_mp_two_absent(self, capsys):
        code, out = run_json(capsys, ["family", "mp", "--p", "2", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["transverse_contact_structure"]["witness"] is None

    def test_mp_seven_fibers(self, capsys):
        code, out = run_json(capsys, ["family", "mp", "--p", "2", "--ell", "3", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["r"]) == 7
        assert doc["e"] == -3
        assert doc["transverse_contact_structure"]["applicable"] is False

    def test_bad_p_exit_code(self, capsys):
        assert main(["family", "mp", "--p", "1"]) == 2

    def test_text_output(self, capsys):
        code, out = run_json(capsys, ["family", "mp", "--p", "3"])
        assert code == 0
        assert "M(-1;" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seifert_gate", "2", "3", "13", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "obstructed_floer_gap"


def test_report_dict_rationals_are_string_pairs():
    doc = report_to_dict(verdict((2, 3, 13)))
    def walk(node):
        if isinstance(node, dict):
            if set(node.keys()) == {"num", "den"}:
                assert isinstance(node["num"], str) and isinstance(node["den"], str)
                int(node["num"]), int(node["den"])
            else:
                for v in node.values():
                    walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            # only the timing field may be a float
            pass
    walk(doc)
    assert isinstance(doc["A"], int)
