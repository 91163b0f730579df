"""seifert-gate benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the ``obstruct`` CLI is run as ``python -m seifert_gate``.

With ``--trace 0`` the run repeats rounds for at least ``--seconds`` and at
least three times.  A round is one session (session.py: a fresh
interpreter submits every tuple once through the public API, as one
closed-loop caller), two ``obstruct --batch --json --jobs 2`` runs over the
same tuples, one ``obstruct <t> --json`` call per fixed CLI tuple, and a few
set-up runs.  Times are reported as costs in refs, the time of a fixed
calibration loop measured alongside (session.ref_sample), except the CLI
call, which is costed in bare interpreter starts (spawn_ref), and setup_s,
which is in seconds.  With ``--trace 1`` plain and traced sessions alternate
and the per-layer metrics are reported, in milliseconds.

Every report is checked by the gate in gate.py, and every later session,
batch and CLI line must equal the first session's report byte for byte,
apart from elapsed_ms.  The last line of standard output is one JSON object
with correct, attempted, failed and metrics; when a check fails it carries
no metrics and the exit code is 1.  A cap outcome (EnumerationCapExceeded)
is a typed, bounded result that counts against verdict_frac; "failed"
counts requests that ended in any other error.  Records, spans and batch
files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any

import gate
import spans as tracing
from session import canonical
from workloads import WORKLOADS, Workload, repeated_cost_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Three rounds take 35-55 s on a shared 2-vCPU host, which keeps the 48 runs
# of a full benchmark pass within an hour.
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 3
# A batch is one multi-second sample whose makespan also depends on how the
# pool hands the heavy tuples to its two workers, so a run takes two per
# round to give the median more samples.
BATCHES_PER_ROUND = 2
JOBS = 2
CHILD_TIMEOUT_S = 150
SETUP_CMD = [sys.executable, "-c", "import seifert_gate; seifert_gate.verdict((2, 3, 5))"]
BARE_CMD = [sys.executable, "-c", "pass"]
# One of the JOBS processes parallel_ref starts: it calibrates once told to go.
PARALLEL_REF = "import session, sys; print(flush=True); sys.stdin.readline(); print(session.ref_sample())"


class BenchmarkError(Exception):
    """The benchmark cannot run here, e.g. the package sources are missing."""


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Checker:
    """Collects every outcome of a run and everything that was wrong with one."""

    def __init__(self, order: list[tuple[int, ...]]) -> None:
        self.order = order
        self.lines: list[str | None] = [None] * len(order)
        self.verdicts = 0
        self.diagonalizable = 0
        self.by_tuple: dict[tuple[int, ...], str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def problem(self, tup: tuple[int, ...], what: str) -> None:
        self.problems.append(f"{tup}: {what}")

    def record(self, i: int, doc: dict[str, Any]) -> None:
        """Check one session result: gate it the first time, then require it unchanged."""
        tup = self.order[i]
        line = canonical(doc)
        self.attempted += 1
        if doc.get("error", {}).get("type", gate.CAP_ERROR) != gate.CAP_ERROR:
            self.failed += 1
        if self.lines[i] is None:
            for name in gate.check_report(tup, doc):
                self.problem(tup, f"check failed: {name}")
            self.verdicts += "error" not in doc
            self.diagonalizable += doc.get("diagonalizable") is True
            if self.by_tuple.setdefault(tup, line) != line:
                self.problem(tup, "repeated tuple gave a different report")
            self.lines[i] = line
        elif self.lines[i] != line:
            self.problem(tup, "report changed between sessions")

    def compare(self, tup: tuple[int, ...], raw: str, source: str) -> str | None:
        """Require a CLI output to equal the session report for the same tuple."""
        self.attempted += 1
        try:
            line = canonical(json.loads(raw))
        except (json.JSONDecodeError, TypeError):
            line = None
        if line is None or line != self.by_tuple.get(tup):
            self.failed += line is None
            self.problem(tup, f"{source} output differs from the session report")
        return line


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SEIFERT_GATE_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], stdout_lines: list[str]) -> tuple[int, float | None, float]:
    """Run a child in its own session; returns exit code, first-line and total seconds.

    A watchdog kills the whole process group (the CLI and its pool workers)
    if the child outlives CHILD_TIMEOUT_S; the child is always waited for.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    first = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if first is None:
                first = perf_counter() - t0
            stdout_lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return code, first, perf_counter() - t0


def write_tuples(path: Path, tuples: list[tuple[int, ...]]) -> Path:
    path.write_text("".join(" ".join(map(str, t)) + "\n" for t in tuples), encoding="utf-8")
    return path


def one_session(wl: Workload, chk: Checker, order_file: Path,
                spans_file: Path | None = None) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """One session over the workload; returns its per-request records and its last line.

    The last line holds the session's peak RSS and the spans it wrapped.
    """
    cmd = [sys.executable, str(HERE / "session.py"), "--cap", str(wl.cap),
           "--tuples", str(order_file)]
    if spans_file is not None:
        cmd += ["--spans", str(spans_file)]
    lines: list[str] = []
    code, _, _ = run_child(cmd, lines)
    if code != 0 or len(lines) != len(chk.order) + 1:
        raise BenchmarkError(f"session exited {code} after {len(lines)} lines")
    records = [json.loads(line) for line in lines[:-1]]
    for i, rec in enumerate(records):
        chk.record(i, rec["report"])
    return records, json.loads(lines[-1])


def spawn_ref() -> float:
    """Seconds for a bare interpreter to start and exit: the unit of a CLI call's cost.

    A CLI call is mostly interpreter start and imports.  On a shared 2-vCPU
    host their cost drifts apart from the calibration loop's: over six blocks
    of twelve calls, dividing by the loop's ref left a 0.12 spread (quartile
    distance over median) and dividing by a bare start 0.04.
    """
    code, _, total = run_child(BARE_CMD, [])
    if code != 0:
        raise BenchmarkError(f"bare interpreter exited with {code}")
    return total


def one_setup() -> float:
    """Seconds for a fresh interpreter to import the package and obstruct (2,3,5)."""
    code, _, total = run_child(SETUP_CMD, [])
    if code != 0:
        raise BenchmarkError(f"set-up run exited with {code}")
    return total


def one_batch(wl: Workload, chk: Checker, batch_file: Path) -> tuple[float, float, str] | None:
    """obstruct --batch with two workers; returns tuples/s, first-line seconds, digest."""
    order = wl.batch_order()
    cmd = [sys.executable, "-m", "seifert_gate", "--batch", str(batch_file), "--json",
           "--jobs", str(JOBS), "--cap", str(wl.cap)]
    lines: list[str] = []
    code, first, total = run_child(cmd, lines)
    if code != 0 or first is None or len(lines) != len(order):
        chk.problem((), f"batch exited {code} with {len(lines)} of {len(order)} lines")
        return None
    got = {tup: chk.compare(tup, raw, "batch") for tup, raw in zip(order, lines)}
    return len(order) / total, first, digest([got[t] or "" for t in chk.order])


def one_cli(wl: Workload, chk: Checker, tup: tuple[int, ...]) -> float | None:
    """Milliseconds of one `obstruct <t> --json` call, checked against the session report."""
    lines: list[str] = []
    cmd = [sys.executable, "-m", "seifert_gate", *map(str, tup), "--json", "--cap", str(wl.cap)]
    code, _, total = run_child(cmd, lines)
    if code != 0:
        chk.problem(tup, f"obstruct exited {code}")
        return None
    chk.compare(tup, "\n".join(lines), "obstruct")
    return total * 1000.0


def parallel_ref() -> float:
    """Seconds per ref with JOBS calibrations running at once, as a batch's workers run.

    A ref sampled alone runs while the second core idles, so it reads the
    host faster than two busy workers find it, and by an amount that changes
    with the other tenants' load.
    """
    procs = [subprocess.Popen([sys.executable, "-c", PARALLEL_REF], cwd=HERE, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) for _ in range(JOBS)]
    try:
        for proc in procs:
            proc.stdout.readline()  # type: ignore[union-attr]
        for proc in procs:
            proc.stdin.write("go\n")  # type: ignore[union-attr]
            proc.stdin.flush()  # type: ignore[union-attr]
        return statistics.mean(float(proc.communicate(timeout=CHILD_TIMEOUT_S)[0]) for proc in procs)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def between_refs(ref: Any, fn: Any, *args: Any) -> tuple[Any, float]:
    """Call fn between two samples of ref(); returns its result and their mean."""
    before = ref()
    out = fn(*args)
    return out, (before + ref()) / 2


def end_to_end(wl: Workload, chk: Checker, seconds: float, run_id: str) -> dict[str, Any]:
    """Rounds of one session, two batches, a call per CLI tuple and a few set-ups.

    Times are divided by a ref (session.ref_sample) measured at the same
    time, so they become costs in refs that hold still while other tenants
    change the host's speed; the raw seconds go to the record.  A request is
    divided by the ref its session measured around it, and each batch by
    the mean of refs sampled just before and just after it, with its two
    workers' worth of calibrations at once (parallel_ref).  A CLI call is
    divided likewise by bare interpreter starts (spawn_ref).  A request's cost
    is the median over its submissions, which lie a round apart, and the
    batch and CLI costs are medians over the rounds likewise.  setup_s stays
    in seconds, as BENCHMARK.json requires: the median of all set-up runs.
    """
    order_file = write_tuples(OUT / f"{run_id}.tuples", chk.order)
    batch_file = write_tuples(OUT / f"{run_id}.batch", wl.batch_order())
    one_setup()  # writes bytecode caches in a fresh checkout; not counted
    samples: list[list[tuple[float, float]]] = [[] for _ in chk.order]
    round_refs: list[float] = []
    peaks: list[float] = []
    setups: list[float] = []
    batches: list[tuple[float, float, str, float]] = []
    cli: dict[tuple[int, ...], list[tuple[float, float]]] = {t: [] for t in wl.cli_tuples}
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        records, tail = one_session(wl, chk, order_file)
        peaks.append(tail["peak_rss_kb"] / 1024.0)
        round_ref = statistics.median(rec["ref"] for rec in records)
        round_refs.append(round_ref)
        for s, rec in zip(samples, records):
            s.append((rec["s"], rec["ref"]))
        for _ in range(BATCHES_PER_ROUND):
            batch, ref = between_refs(parallel_ref, one_batch, wl, chk, batch_file)
            if batch is not None:
                batches.append((*batch, ref))
        for tup, times in cli.items():
            ms, ref = between_refs(spawn_ref, one_cli, wl, chk, tup)
            if ms is not None:
                times.append((ms / 1000.0, ref))
        setups.extend(one_setup() for _ in range(SETUPS_PER_ROUND))
        rounds += 1
    cost = [statistics.median(t / ref for t, ref in s) for s in samples]
    raw = [statistics.median(t for t, _ in s) for s in samples]
    n = len(chk.order)
    digests = {b[2] for b in batches}
    record: dict[str, Any] = {
        "rounds": rounds,
        "ref_ms": [round(r * 1000, 4) for r in round_refs],
        "request_cost": cost,
        "session_s": [round(sum(s[k][0] for s in samples), 4) for k in range(rounds)],
        "batch_s_ref_ms": [[round(n / b[0], 4), round(b[3] * 1000, 4)] for b in batches],
        "batch_digest": digests.pop() if len(digests) == 1 else None,
        "raw": {
            "tuples_per_s": round(n / sum(raw), 4),
            "tuple_ms_p50": round(statistics.median(raw) * 1000, 4),
            "tuple_ms_p90": round(statistics.quantiles(raw, n=10)[-1] * 1000, 4),
            "batch_tuples_per_s": round(statistics.median(b[0] for b in batches), 4) if batches else None,
        },
    }
    if len(batches) < rounds * BATCHES_PER_ROUND or record["batch_digest"] is None or not all(cli.values()):
        chk.problem((), "a batch or CLI run failed, or batch output changed between runs")
        return record
    record["metrics"] = {
        "setup_s": statistics.median(setups),
        "tuples_per_ref": n / sum(cost),
        "tuple_ref_p50": statistics.median(cost),
        "tuple_ref_p90": statistics.quantiles(cost, n=10)[-1],
        "verdict_frac": chk.verdicts / n,
        "peak_rss_mb": statistics.median(peaks),
        "batch_tuples_per_ref": statistics.median(b[0] * b[3] for b in batches),
        "batch_first_line_ref": statistics.median(b[1] / b[3] for b in batches),
        "cli_single_spawns": statistics.median(t / ref for v in cli.values() for t, ref in v),
    }
    return record


def per_layer(wl: Workload, chk: Checker, seconds: float, run_id: str) -> dict[str, Any]:
    """Plain and traced sessions alternate for at least ``seconds``, at least once each.

    Layer times are self times from the spans, as means per traced request.
    A request's traced time is its "tuple" span plus its cli.serialize span;
    the units probe lies outside it, and every <layer>.share has the summed
    traced time as its base.  trace.coverage and trace.overhead_frac take
    each request's fastest traced and plain sessions, as end_to_end does.
    """
    order_file = write_tuples(OUT / f"{run_id}.tuples", chk.order)
    ranks = [gate.rank(t) for t in chk.order]
    plain: list[list[float]] = [[] for _ in chk.order]
    traced: list[list[float]] = [[] for _ in chk.order]
    in_order: list[list[float]] = [[] for _ in chk.order]
    outs: list[dict[str, Any]] = []
    layer_s = dict.fromkeys(tracing.LAYERS + (tracing.UNITS,), 0.0)
    spans_files: list[Path] = []
    start = perf_counter()
    while not spans_files or perf_counter() - start < seconds:
        records, _ = one_session(wl, chk, order_file)
        for s, rec in zip(plain, records):
            s.append(rec["s"])
        spans_files.append(OUT / f"{run_id}.{len(spans_files)}.spans.jsonl")
        records, tail = one_session(wl, chk, order_file, spans_files[-1])
        outs.extend({**rec["out"], "rank": r} for rec, r in zip(records, ranks) if rec["out"])
        spans = tracing.load(spans_files[-1])
        total = [0.0] * len(chk.order)
        layered = [0.0] * len(chk.order)
        for sp, own in zip(spans, tracing.self_times(spans)):
            layer = tracing.layer_of(sp["name"])
            if layer is not None:
                layer_s[layer] += own
                layered[sp["tuple"]] += own if layer != tracing.UNITS else 0.0
            if sp["parent"] < 0 and sp["name"] in ("tuple", "cli.serialize"):
                total[sp["tuple"]] += sp["end_s"] - sp["start_s"]
        for i in range(len(chk.order)):
            traced[i].append(total[i])
            in_order[i].append(layered[i])
    n = len(outs)
    sessions = len(spans_files)
    base = sum(map(sum, traced))
    plain_best = sum(map(min, plain))
    units = [o["units"] for o in outs if o["units"] is not None]
    probed_rank = sum(o["rank"] for o in outs if o["units"] is not None)
    metrics: dict[str, float] = {}
    for layer, seconds_in_layer in layer_s.items():
        metrics[f"{layer}.ms"] = seconds_in_layer / n * 1000.0
        metrics[f"{layer}.share"] = seconds_in_layer / base
    metrics["plumbing.rank"] = sum(ranks)
    metrics["lattice.diagonalize.present"] = sum(o["present"] for o in outs) / n
    metrics["lattice.units.count"] = sum(units) / sessions
    metrics["lattice.units.coverage"] = sum(units) / probed_rank if probed_rank else 0.0
    metrics["lattice.d.failed"] = sum(o["d_failed"] for o in outs) / sessions
    metrics["trace.coverage"] = sum(map(min, in_order)) / plain_best
    metrics["trace.overhead_frac"] = sum(map(min, traced)) / plain_best - 1.0
    return {"traced_sessions": sessions, "spans": [p.name for p in spans_files],
            "instrumented": tail["instrumented"], "request_cost": list(map(min, plain)),
            "plain_request_ms": round(plain_best / len(chk.order) * 1000, 4),
            "traced_request_ms": round(sum(map(min, traced)) / len(chk.order) * 1000, 4),
            "metrics": metrics}


def run(wl: Workload, seed: int, seconds: float, traced: bool) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns the record of what ran and the result object."""
    if not (SRC / "seifert_gate" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(wl.name)
    OUT.mkdir(exist_ok=True)
    run_id = f"{wl.name}-seed{seed}-trace{int(traced)}"
    chk = Checker(wl.order(seed))
    measure = per_layer if traced else end_to_end
    measured = measure(wl, chk, seconds, run_id)
    metrics = measured.pop("metrics", {})
    correct = not chk.problems and chk.failed == 0
    if correct and set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    lines = [line for line in chk.lines if line is not None]
    props = wl.properties()
    props["diagonalizable_share"] = round(chk.diagonalizable / len(chk.order), 4)
    props["cap_share"] = round(1 - chk.verdicts / len(chk.order), 4)
    props["repeated_cost_share"] = round(
        repeated_cost_share(chk.order, measured.pop("request_cost")), 4)
    record = {
        "workload": wl.name, "seed": seed, "trace": int(traced), "why": why,
        "properties": props, "digest": digest(lines) if len(lines) == len(chk.order) else None,
        **measured, "problems": chk.problems[:20],
    }
    result = {
        "correct": correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units} if correct else {},
    }
    (OUT / f"{run_id}.json").write_text(json.dumps({**record, "result": result}, indent=2) + "\n",
                                        encoding="utf-8")
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, separators=(",", ":")))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
