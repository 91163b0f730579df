import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from seifert_gate import cli
from seifert_gate.cli import main, report_to_dict
from seifert_gate.errors import CertificateViolation, InvalidRange, SeifertGateError
from seifert_gate.obstruction import verdict
from oracles import lazy_pool_handover

SRC = str(Path(cli.__file__).parents[1])


def allow_cpus(monkeypatch, n):
    """Let this process run on n CPUs, however many the host has."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class SerialPool:
    """Stand-in for the process pool: evaluates in this process, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class RecordingPool(SerialPool):
    """SerialPool that records each pool's max_workers, and the items and the
    chunksize of each map, in class lists that clear() empties."""

    sizes: list = []
    handed: list = []
    chunksizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.handed.append(items)
        self.chunksizes.append(chunksize)
        return map(fn, items)

    @classmethod
    def clear(cls):
        for record in (cls.sizes, cls.handed, cls.chunksizes):
            record.clear()


def recording_pool(monkeypatch):
    """RecordingPool in place of the process pool, its records emptied."""
    RecordingPool.clear()
    monkeypatch.setattr(cli, "_process_pool", RecordingPool)
    return RecordingPool


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

    def test_positional_tuple_with_batch_is_a_usage_error(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 7\n")
        assert main(["2", "3", "5", "--batch", str(f), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: obstruct")

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

    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_bytes(b"\xef\xbb\xbf2 3 5\n2 3 7\n")
        code, out = run_json(capsys, ["--batch", str(f), "--json"])
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d["input"] for d in docs] == [[2, 3, 5], [2, 3, 7]]
        assert docs[0]["verdict"] == "obstructed_donaldson"

    def test_jobs_parallel_preserves_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "POOL_AFTER_S", 0)  # the pool from the first tuple on
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

        monkeypatch.setattr(cli, "_process_pool", SerialPool)
        monkeypatch.setattr(cli, "verdict", observed)
        monkeypatch.setattr(sys, "stdout", out)
        f = tmp_path / "batch.txt"
        f.write_text("2 3 five\n2 3 5\n2 3 7\n2 3 13\n")
        assert main(["--batch", str(f), "--json", "--jobs", jobs]) == 2
        assert written_before == [1, 2, 3]
        assert len(out.getvalue().splitlines()) == 4

    @pytest.mark.parametrize(
        "cpus, jobs, lines, workers",
        [(4, 5000, 2, 2), (4, 5000, 6, 4), (4, 3, 6, 3), (1, 5000, 6, None), (None, 5000, 6, None)],
    )
    def test_pool_size_is_capped(self, tmp_path, monkeypatch, capsys, cpus, jobs, lines, workers):
        # The pool starts all its workers at once, so --jobs asks for no more
        # than there are CPUs this process may use and tuples; the stand-in
        # pool starts none.  The affinity mask decides, not the host's 8 CPUs;
        # without a mask, a host count of None counts as 1.
        pool = recording_pool(monkeypatch)
        if cpus is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
            allow_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "POOL_AFTER_S", 0)  # the pool from the first tuple on
        f = tmp_path / "batch.txt"
        f.write_text("".join(f"2 3 {c}\n" for c in (5, 7, 11, 13, 17, 19)[:lines]))
        code, out = run_json(capsys, ["--batch", str(f), "--json", "--jobs", str(jobs)])
        assert code == 0
        assert len(out.splitlines()) == lines
        assert pool.sizes == ([] if workers is None else [workers])
        assert pool.chunksizes == ([] if workers is None else [1])

    def test_pool_takes_over_once_evaluation_has_cost_its_start(self, tmp_path, monkeypatch, capsys):
        # The 2nd distinct tuple alone takes the threshold, so the pool gets
        # exactly the distinct tuples after it, and the lines do not change.
        real = cli.verdict

        def slow_second(values, **kwargs):
            if tuple(values) == (2, 3, 7):
                time.sleep(cli.POOL_AFTER_S)
            return real(values, **kwargs)

        pool = recording_pool(monkeypatch)
        monkeypatch.setattr(cli, "verdict", slow_second)
        allow_cpus(monkeypatch, 4)
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5\n2 3 7\n2 3 5\n2 3 11\n2 3 13\n2 3 7\n2 3 17\n")
        want = [main(["--batch", str(f), "--jobs", "1"]), capsys.readouterr().out]
        assert pool.sizes == pool.handed == []
        for jobs in ("5000", "2"):
            assert [main(["--batch", str(f), "--jobs", jobs]), capsys.readouterr().out] == want
        assert pool.sizes == [3, 2]  # min(jobs, 3 tuples left, 4 CPUs)
        assert pool.handed == [[(2, 3, 11), (2, 3, 13), (2, 3, 17)]] * 2

    def run_with_a_slow_first_tuple(self, tmp_path, monkeypatch, capsys, tuples):
        """Run tuples at --jobs 1, 5000 and 2, with 4 CPUs, the first tuple
        alone taking POOL_AFTER_S.  Returns the pools' sizes, the tuples each
        was handed, the tuples tree_rank weighed, and the summaries' pool
        fields; every run must print the --jobs 1 lines."""
        weighed = []
        real_verdict, real_rank = cli.verdict, cli.tree_rank

        def slow_first(values, **kwargs):
            if tuple(values) == tuples[0]:
                time.sleep(cli.POOL_AFTER_S)
            return real_verdict(values, **kwargs)

        def recorded_rank(values):
            weighed.append(values)
            return real_rank(values)

        pool = recording_pool(monkeypatch)
        monkeypatch.setattr(cli, "verdict", slow_first)
        monkeypatch.setattr(cli, "tree_rank", recorded_rank)
        allow_cpus(monkeypatch, 4)
        f = tmp_path / "batch.txt"
        f.write_text("".join(" ".join(map(str, t)) + "\n" for t in tuples))
        want = [main(["--batch", str(f), "--jobs", "1"]), capsys.readouterr().out]
        assert pool.sizes == pool.handed == weighed == []
        pools = []
        for jobs in ("5000", "2"):
            got = [main(["--batch", str(f), "--jobs", jobs]), capsys.readouterr()]
            assert [got[0], got[1].out] == want
            pools.append(got[1].err.splitlines()[-1].split("; pool: ")[1])
        return pool.sizes, pool.handed, weighed, pools

    def test_no_pool_when_the_work_left_cannot_repay_its_start(self, tmp_path, monkeypatch, capsys):
        # (2, 3, 197) has rank 40; the ranks left, 4, 5 and 6, add up to 77
        # squared, so the estimate of what is left is about 77/1600 of
        # POOL_AFTER_S, below the POOL_AFTER_S * W/(W - 1) a pool must beat.
        # Each distinct tuple is weighed once per run.
        tuples = [(2, 3, 197), (2, 3, 7), (2, 3, 13), (2, 3, 7), (2, 3, 19)]
        sizes, handed, weighed, pools = self.run_with_a_slow_first_tuple(tmp_path, monkeypatch, capsys, tuples)
        assert sizes == handed == []
        assert pools == ["none", "none"]
        assert sorted(weighed) == sorted([*set(tuples)] * 2)

    def test_pool_takes_over_when_a_heavy_tuple_is_still_to_come(self, tmp_path, monkeypatch, capsys):
        # The same batch with (2, 3, 499), rank 86, at its end: the estimate
        # is then about 4.7 times POOL_AFTER_S, so the pool starts at the first
        # check and gets every distinct tuple from there on.
        tuples = [(2, 3, 197), (2, 3, 7), (2, 3, 13), (2, 3, 7), (2, 3, 19), (2, 3, 499)]
        sizes, handed, weighed, pools = self.run_with_a_slow_first_tuple(tmp_path, monkeypatch, capsys, tuples)
        assert sizes == [4, 2]  # min(jobs, 4 tuples left, 4 CPUs)
        assert handed == [[(2, 3, 7), (2, 3, 13), (2, 3, 19), (2, 3, 499)]] * 2
        assert pools == [f"{n} workers from distinct tuple 2 of 5" for n in (4, 2)]

    def test_every_distinct_tuple_is_weighed_once_at_the_first_check(self, tmp_path, monkeypatch, capsys):
        # The slow first tuple brings on the first check.  It weighs every
        # distinct tuple, in order, those after (2, 3, 499), which alone
        # repays the pool, as well; a later check weighs none, and a batch
        # that stays under POOL_AFTER_S weighs nothing.
        events = []
        pause = cli.POOL_AFTER_S
        real_verdict, real_rank = cli.verdict, cli.tree_rank

        def slow_first(values, **kwargs):
            events.append(("evaluate", values))
            if values == (2, 3, 197):
                time.sleep(pause)
            return real_verdict(values, **kwargs)

        def recorded_rank(values):
            events.append(("weigh", values))
            return real_rank(values)

        monkeypatch.setattr(cli, "_process_pool", SerialPool)
        monkeypatch.setattr(cli, "verdict", slow_first)
        monkeypatch.setattr(cli, "tree_rank", recorded_rank)
        allow_cpus(monkeypatch, 4)
        f = tmp_path / "batch.txt"

        def run(lines):
            events.clear()
            f.write_text("".join(f"2 3 {c}\n" for c in lines))
            assert main(["--batch", str(f), "--jobs", "2"]) == 0
            return capsys.readouterr().err.split("; pool: ")[1]

        def weighed_at_the_first_check(cs):
            distinct = [(2, 3, c) for c in cs]
            return [
                ("evaluate", distinct[0]),
                *(("weigh", t) for t in distinct),
                *(("evaluate", t) for t in distinct[1:]),
            ]

        assert run([197, 499, 7, 499, 13]) == "2 workers from distinct tuple 2 of 4\n"
        assert events == weighed_at_the_first_check([197, 499, 7, 13])
        assert run([197, 7, 13, 7, 19]) == "none\n"  # checked at tuples 2 and 3
        assert events == weighed_at_the_first_check([197, 7, 13, 19])
        monkeypatch.setattr(cli, "POOL_AFTER_S", 60)
        assert run([5, 7, 5, 13]) == "none\n"
        assert events == [("evaluate", (2, 3, c)) for c in (5, 7, 13)]

    def test_hand_over_matches_the_lazy_rule(self, tmp_path, monkeypatch, capsys):
        """On 300 seeded random batches the pool takes over at the distinct
        tuple, and with the workers, that oracles.lazy_pool_handover names.
        The clock counts whole microseconds and only the stand-in verdict
        advances it, so both rules see exactly the same times."""
        rng = random.Random(23)
        clock = 0
        ranks, times = {}, {}

        def timed_verdict(values, **kwargs):
            nonlocal clock
            clock += times[values]
            raise InvalidRange("not evaluated")

        pool = recording_pool(monkeypatch)
        monkeypatch.setattr(cli, "verdict", timed_verdict)
        monkeypatch.setattr(cli, "tree_rank", ranks.__getitem__)
        monkeypatch.setattr(cli, "perf_counter", lambda: clock)
        monkeypatch.setattr(cli, "POOL_AFTER_S", 50_000)
        f = tmp_path / "batch.txt"
        pools = 0
        for _ in range(300):
            n = rng.randint(1, 40)
            tuples = [(2, 3, c) for c in range(5, 5 + n)]
            refused = rng.choice((0.0, 0.25, 1.0))  # the share of tuples of rank 0
            for t in tuples:
                rank = rng.choice((rng.randint(3, 60), rng.randint(3, 60), rng.randint(60, 600)))
                ranks[t] = 0 if rng.random() < refused else rank
                times[t] = rng.randint(0, 3) * ranks[t] ** 2 + rng.randint(0, 20_000)
            lines = tuples + rng.choices(tuples, k=rng.randint(0, n))
            rng.shuffle(lines)
            distinct = list(dict.fromkeys(lines))
            jobs, cpus = rng.randint(1, 5), rng.randint(1, 4)
            allow_cpus(monkeypatch, cpus)
            f.write_text("".join(" ".join(map(str, t)) + "\n" for t in lines))
            pool.clear()
            assert main(["--batch", str(f), "--jobs", str(jobs)]) == 0
            assert len(capsys.readouterr().out.splitlines()) == len(lines)
            got = (n - len(pool.handed[0]), pool.sizes[0]) if pool.sizes else None
            want = lazy_pool_handover(
                [ranks[t] for t in distinct], [times[t] for t in distinct], jobs, cpus, 50_000
            )
            assert got == want, (lines, jobs, cpus)
            pools += got is not None
        # Both outcomes are common, so neither side of the rule goes untested.
        assert 50 <= pools <= 250

    @pytest.mark.parametrize(
        "jobs, pool_after_s, pool",
        [("1", 0, None), ("2", 60, "none"), ("2", 0, "2 workers from distinct tuple 1 of 2")],
    )
    def test_summary_says_whether_the_pool_ran(self, tmp_path, monkeypatch, capsys, jobs, pool_after_s, pool):
        monkeypatch.setattr(cli, "_process_pool", SerialPool)
        monkeypatch.setattr(cli, "POOL_AFTER_S", pool_after_s)
        allow_cpus(monkeypatch, 2)
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5\n2 3 7\n2 3 5\n")
        assert main(["--batch", str(f), "--jobs", jobs]) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.startswith("batch: 3 lines, 1 reused; ")
        assert summary.split("; pool: ")[1:] == ([] if pool is None else [pool])

    def test_real_pool_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "POOL_AFTER_S", 0)
        allow_cpus(monkeypatch, 2)
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5\n2 3 7\n2 3 13\n")
        assert main(["--batch", str(f), "--json", "--jobs", "2"]) == 0
        out, err = capsys.readouterr()
        assert [json.loads(line)["input"][2] for line in out.splitlines()] == [5, 7, 13]
        assert err.splitlines()[-1].endswith("; pool: 2 workers from distinct tuple 1 of 3")
        assert multiprocessing.active_children() == []

    def test_missing_file(self, capsys):
        assert main(["--batch", "/nonexistent/nope.txt"]) == 2

    def test_summary_line_ends_the_batch(self, tmp_path, capsys):
        f = tmp_path / "batch.txt"
        f.write_text("2 3 5\n2 3 five\n2 4 5\n2 3 13\n2 3 5\n")
        assert main(["--batch", str(f), "--json"]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 5
        summary = err.splitlines()[-1]
        assert summary.startswith(
            "batch: 5 lines, 1 reused; verdicts: obstructed_donaldson=2 obstructed_floer_gap=1; "
            "errors: NotCoprime=1 ParseError=1; elapsed_ms over 2 evaluated: median="
        )
        assert " p90=" in summary and " max=" in summary

    def test_summary_of_an_empty_batch(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing\n")
        assert main(["--batch", str(f)]) == 0
        assert capsys.readouterr().err == (
            "batch: 0 lines, 0 reused; verdicts: none; errors: none; elapsed_ms: none evaluated\n"
        )


def sylvester(n):
    """The first n Sylvester numbers 2, 3, 7, 43, ..., each s(s - 1) + 1 of the one
    before: pairwise coprime, each a leg of one vertex, so n of them give rank n + 1."""
    s = [2]
    while len(s) < n:
        s.append(s[-1] * (s[-1] - 1) + 1)
    return s


def digit_limit():
    """Python's limit on the digits of an int converted to or from str; None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestLongIntegers:
    """Reports with integers beyond a float, and beyond the digit limit (A has
    6671 digits for the first 15 Sylvester numbers), print in every mode; the
    limit is the same after a run, and inputs are still parsed under it."""

    def test_a_fraction_beyond_a_float_prints_exactly(self):
        big = 10**400 + 1
        assert cli._fmt_q(cli._q(Fraction(big, 2))) == f"{big}/2"
        assert cli._fmt_q(cli._q(Fraction(1, 3))) == "1/3 (~0.3333)"

    @pytest.mark.parametrize("n, json_output", [(11, False), (15, False), (15, True)])
    def test_single_mode(self, capsys, n, json_output):
        limit = digit_limit()
        code, out = run_json(capsys, [*map(str, sylvester(n)), *(["--json"] if json_output else [])])
        assert code == 0 and digit_limit() == limit
        with cli._long_ints():
            doc = report_to_dict(verdict(sylvester(n)))
            if json_output:
                assert without_elapsed(out) == without_elapsed(json.dumps(doc))
            else:
                assert out == cli.format_text(doc) + "\n"

    @pytest.mark.parametrize("json_output", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_line(self, tmp_path, capsys, monkeypatch, jobs, json_output):
        monkeypatch.setattr(cli, "POOL_AFTER_S", 0)  # at --jobs 2, the pool from the first tuple on
        allow_cpus(monkeypatch, 2)
        text = " ".join(map(str, sylvester(15))) + "\n2 3 7\n"
        f = tmp_path / "batch.txt"
        f.write_text(text)
        limit = digit_limit()
        code = main(["--batch", str(f), "--cap", "1000", "--jobs", str(jobs), *(["--json"] if json_output else [])])
        out, err = capsys.readouterr()
        assert code == 0 and digit_limit() == limit
        assert "; errors: none; " in err
        assert err.rstrip().endswith("; pool: 2 workers from distinct tuple 1 of 2") == (jobs == 2)
        with cli._long_ints():
            expected = expected_lines(text, json_output)
            if json_output:
                assert list(map(without_elapsed, out.splitlines())) == list(map(without_elapsed, expected))
            else:
                assert out == "\n".join(expected) + "\n"

    @pytest.mark.skipif(not digit_limit(), reason="this Python converts ints from str without a digit limit")
    def test_an_input_token_keeps_the_digit_limit(self, tmp_path, capsys):
        token = "1" * (digit_limit() + 1)
        assert main(["2", "3", token]) == 2
        assert "invalid int value" in capsys.readouterr().err
        f = tmp_path / "batch.txt"
        f.write_text(f"2 3 {token}\n")
        assert main(["--batch", str(f), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize(
    "option, message",
    [(["--cap", "999"], "cap must be >= 1000, got 999"), (["--jobs", "0"], "jobs must be >= 1, got 0")],
)
def test_parameter_errors(tmp_path, capsys, batch, option, message):
    f = tmp_path / "batch.txt"
    f.write_text("2 3 5\n")
    source = ["--batch", str(f)] if batch else ["2", "3", "5"]
    assert main(source + option) == 2
    assert capsys.readouterr() == ("", f"error: InvalidParameter: {message}\n")


@pytest.mark.parametrize(
    "argv, code",
    [(["--bogus"], 2), (["family", "xx", "--p", "3"], 2), (["--help"], 0), (["family", "--help"], 0)],
)
def test_argparse_exit_is_the_exit_code(capsys, argv, code):
    assert main(argv) == code


def test_help_states_the_cap_floor(capsys):
    assert main(["--help"]) == 0
    assert f"node cap, at least {cli.MIN_CAP} (default" in " ".join(capsys.readouterr().out.split())


# Repeats, a parse error, a validation error and a cap error at cap 10^3.
MIXED_BATCH = "2 3 5\n2 3 7  # repeated below\n2 3 five\n2 4 5\n5 7 11 13\n2 3 5\n2  3 7\n2 3 13\n2 4 5\n"


def expected_lines(text, json_output):
    """One `verdict` per line, rendered as the batch renders it."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            values = cli._parse_batch_line(raw)
        except ValueError:
            error = {"type": "ParseError", "message": "not a whitespace-separated integer tuple"}
            doc = {"line": lineno, "raw": raw, "error": error}
        else:
            if values is None:
                continue
            try:
                doc = report_to_dict(verdict(values, cap=1000))
            except SeifertGateError as exc:
                doc = {"input": list(values), "error": {"type": type(exc).__name__, "message": str(exc)}}
        lines.append(json.dumps(doc, separators=(",", ":")) if json_output else cli.format_text(doc))
    return lines


def without_elapsed(line):
    doc = json.loads(line)
    doc.pop("elapsed_ms", None)
    return doc


class TestBatchEquivalence:
    """--jobs 1, --jobs 2 and one `verdict` per tuple print the same lines."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_json_lines_match_one_verdict_per_tuple(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(cli, "POOL_AFTER_S", 0)  # at --jobs 2, the pool from the first tuple on
        f = tmp_path / "batch.txt"
        f.write_text(MIXED_BATCH)
        code = main(["--batch", str(f), "--json", "--cap", "1000", "--jobs", jobs])
        got = capsys.readouterr().out.splitlines()
        assert code == 2  # the parse error, as before
        want = expected_lines(MIXED_BATCH, json_output=True)
        assert [without_elapsed(line) for line in got] == [without_elapsed(line) for line in want]
        assert json.loads(got[4])["error"]["type"] == "EnumerationCapExceeded"
        # a repeated tuple prints its first evaluation's line again
        assert got[5] == got[0] and got[6] == got[1] and got[8] == got[3]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_text_lines_match_one_verdict_per_tuple(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(cli, "POOL_AFTER_S", 0)  # at --jobs 2, the pool from the first tuple on
        f = tmp_path / "batch.txt"
        f.write_text(MIXED_BATCH)
        code = main(["--batch", str(f), "--cap", "1000", "--jobs", jobs])
        assert code == 2
        want = "".join(line + "\n" for line in expected_lines(MIXED_BATCH, json_output=False))
        assert capsys.readouterr().out == want

    def test_each_distinct_tuple_is_evaluated_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = cli.verdict

        def counted(values, **kwargs):
            calls.append(tuple(values))
            return real(values, **kwargs)

        monkeypatch.setattr(cli, "_process_pool", SerialPool)
        monkeypatch.setattr(cli, "verdict", counted)
        f = tmp_path / "batch.txt"
        f.write_text(MIXED_BATCH)
        assert main(["--batch", str(f), "--json", "--cap", "1000", "--jobs", "2"]) == 2
        assert len(capsys.readouterr().out.splitlines()) == 9
        assert calls == [(2, 3, 5), (2, 3, 7), (2, 4, 5), (5, 7, 11, 13), (2, 3, 13)]

    def test_unexpected_error_in_a_repeat_keeps_exit_code_1(self, tmp_path, monkeypatch, capsys):
        def failing(values, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "verdict", failing)
        f = tmp_path / "batch.txt"
        f.write_text("2 3 7\n2 3 7\n")
        assert main(["--batch", str(f), "--json"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == ['{"input":[2,3,7],"error":{"type":"RuntimeError","message":"boom"}}'] * 2
        assert err.count("Traceback") == 1


def test_no_pool_module_for_a_single_tuple():
    script = (
        "import sys\n"
        "import seifert_gate.cli as cli\n"
        "after_import = 'concurrent.futures' in sys.modules\n"
        "code = cli.main(['2', '3', '5', '--json'])\n"
        "print(after_import, 'concurrent.futures' in sys.modules, code, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "obstructed_donaldson"
    assert proc.stderr.split() == ["False", "False", "0"]


def test_no_pool_module_for_a_small_batch(tmp_path):
    # Four small tuples take far less than the pool's start cost.  Neither the
    # import nor the batch loads the pool or dataclasses (nor its inspect),
    # counted against what the interpreter had loaded before the import.
    batch = tmp_path / "batch.txt"
    batch.write_text("2 3 5\n2 3 7\n2 3 11\n2 3 13\n")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import seifert_gate.cli as cli\n"
        f"code = cli.main(['--batch', {str(batch)!r}, '--json', '--jobs', '2'])\n"
        "unwanted = {'concurrent.futures', 'dataclasses', 'inspect'}\n"
        "print(code, *sorted(unwanted & (set(sys.modules) - before)), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line)["input"][2] for line in proc.stdout.splitlines()] == [5, 7, 11, 13]
    summary, result = proc.stderr.splitlines()[-2:]
    assert summary.endswith("; pool: none")
    assert result.split() == ["0"]


def test_closed_stdout_stops_the_batch(tmp_path):
    # The pool takes every tuple, as the threshold is 0 in the child.  Every
    # tuple after the first sleeps 50 ms in a worker; a forked worker
    # inherits the patched verdict and logs each call to a file.  The reader
    # takes one line and closes the pipe, and the CLI must then cancel what
    # no worker has started, exit with its code for a closed stdout and print
    # no traceback.
    distinct = [(2, 3, 5)] + [(2, 3, c) for c in range(7, 700, 6)][:99]
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(" ".join(map(str, t)) + "\n" for t in distinct))
    log = tmp_path / "calls.log"
    script = (
        "import os, sys, time\n"
        "import seifert_gate.cli as cli\n"
        "real = cli.verdict\n"
        "def slow(values, **kwargs):\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        "        fh.write(' '.join(map(str, values)) + '\\n')\n"
        "    if tuple(values) != (2, 3, 5):\n"
        "        time.sleep(0.05)\n"
        "    return real(values, **kwargs)\n"
        "cli.verdict = slow\n"
        "cli.POOL_AFTER_S = 0\n"
        f"sys.exit(cli.main(['--batch', {str(batch)!r}, '--json', '--jobs', '2']))\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    assert json.loads(first)["input"] == [2, 3, 5]
    assert code == cli.EXIT_STDOUT_CLOSED == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    # Of the 100 hand-outs of one tuple, only those done before the failed
    # write (at most 2), running (2) or queued for a worker (3) are evaluated;
    # the bound leaves room for 4 tuples each, for a slow reader.
    evaluated = log.read_text().splitlines()
    assert 0 < len(evaluated) <= 4 * (2 + 2 + 3) < len(distinct)


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "mp", "--p", "3"],
        ["family", "mp", "--p", "3", "--json"],
        ["2", "3", "13", "--json"],
        ["--help"],
        ["family", "--help"],
        ["family", "mp", "--help"],
    ],
)
def test_closed_stdout_exits_141_in_every_mode(argv):
    # The pipe's reader is closed before the CLI starts, so its first write
    # fails.  PYTHONUNBUFFERED is dropped, so stdout is block-buffered as in
    # a shell pipeline and a write left to the flush at interpreter exit
    # would fail outside main.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "seifert_gate", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env={**env, "PYTHONPATH": SRC},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr


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

    def test_text_output_beyond_three_fibers(self, capsys):
        code, out = run_json(capsys, ["family", "mp", "--p", "3", "--ell", "2"])
        assert code == 0
        third, two_thirds = "1/3 (~0.3333)", "2/3 (~0.6667)"
        assert out == (
            f"M(-2; {third}, {two_thirds}, {third}, {two_thirds}, {third})\n"
            "  transverse test: not applicable "
            "(the transverse criterion implemented here applies to three singular fibers)\n"
        )

    def test_missing_p_is_a_usage_error(self, capsys):
        assert main(["family", "mp"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "obstruct family: error: the following arguments are required: --p"

    def test_ell_at_the_fiber_limit(self, capsys):
        code, out = run_json(capsys, ["family", "mp", "--p", "3", "--ell", "449", "--json"])
        assert code == 0
        assert len(json.loads(out)["r"]) == 899

    def test_ell_above_the_fiber_limit(self, capsys):
        assert main(["family", "mp", "--p", "3", "--ell", "450", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: InvalidParameter: ell must be <= 449, got 450\n"

    def test_package_error_is_an_error_line_and_exit_2(self, capsys, monkeypatch):
        def failing(p):
            raise CertificateViolation("x")

        monkeypatch.setattr(cli, "mp_family", failing)
        assert main(["family", "mp", "--p", "3"]) == 2
        assert capsys.readouterr() == ("", "error: CertificateViolation: x\n")


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
