"""One user session: a fresh interpreter submits a workload's tuples once, in order.

    PYTHONPATH=src python3 perfbench/session.py --cap N --tuples FILE [--spans FILE]

Each request is what a census user makes: ``verdict`` and the compact JSON
report the CLI would print.  For every request one JSON line goes to
standard output with its seconds ("s"), the host's speed around it ("ref",
see ``ref_sample``) and its report without elapsed_ms; the last line holds
the session's peak resident memory and, when traced, the spans it wrapped.  Every session is a fresh process, so
nothing one session computed can speed up the next.

With ``--spans`` the session is traced instead: verdict()'s calls are wrapped
in spans (``spans.Spans.instrument``), each request's ``verdict`` runs inside
a "tuple" span and its serialization inside a "cli.serialize" span, and the
units probe follows outside both.  Spans are kept in memory and written to
FILE when the session ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any

import spans as tracing

COMPACT = (",", ":")
SRC = Path(__file__).resolve().parent.parent / "src"
# A session takes a reference sample before a request once this many seconds
# have passed since the last one; a request's "ref" is the mean of the
# samples before and after it.
REF_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed Fraction loop that shares no code with the package.

    Garbage collection is off while it runs, so the heap a session has built
    does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 500):
            acc += Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 5 + 2)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def ref_sample() -> float:
    """The host's current speed as seconds per "ref": the median of three calibrations.

    On a shared host other tenants slow the machine by tens of percent for
    seconds to many minutes.  The program and this loop slow down together,
    so a time divided by the ref measured around it is a cost that stays put
    while the host's speed drifts.
    """
    return statistics.median(calibrate() for _ in range(3))


def canonical(doc: dict[str, Any]) -> str:
    """Compact JSON of a report with its timing field removed."""
    doc = dict(doc)
    doc.pop("elapsed_ms", None)
    return json.dumps(doc, separators=COMPACT)


def error_doc(tup: tuple[int, ...], exc: BaseException) -> dict[str, Any]:
    """The embedded-error object the batch CLI prints for a tuple that raised."""
    return {"input": list(tup), "error": {"type": type(exc).__name__, "message": str(exc)}}


def report(sg: Any, tup: tuple[int, ...], cap: int) -> Any:
    """verdict() for one tuple, or the cap error it ended in."""
    try:
        return sg.verdict(tup, cap=cap)
    except sg.EnumerationCapExceeded as exc:
        return exc


def serialize(sg: Any, tup: tuple[int, ...], result: Any) -> dict[str, Any]:
    """The report as the CLI prints it, with json.dumps done as the CLI does."""
    doc = error_doc(tup, result) if isinstance(result, Exception) else sg.cli.report_to_dict(result)
    json.dumps(doc, separators=COMPACT)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark session")
    parser.add_argument("--cap", type=int, required=True)
    parser.add_argument("--tuples", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    import seifert_gate as sg
    import seifert_gate.cli  # noqa: F401  (report_to_dict lives there)

    if not Path(sg.__file__).resolve().is_relative_to(SRC):
        print(f"error: seifert_gate imported from {sg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    order = [tuple(map(int, line.split())) for line in args.tuples.read_text().splitlines()]
    spans, instrumented = None, []
    if args.spans:
        import seifert_gate.obstruction

        spans = tracing.Spans()
        instrumented = spans.instrument(seifert_gate.obstruction)
    sg.verdict((2, 3, 5))  # first-call set-up happens before timing
    if spans is not None:
        spans.records.clear()
    origin = perf_counter()
    refs = [ref_sample()]
    last_ref = perf_counter()
    rows = []
    for tid, tup in enumerate(order):
        if perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(ref_sample())
            last_ref = perf_counter()
        out = None
        try:
            if spans is None:
                t0 = perf_counter()
                doc = serialize(sg, tup, report(sg, tup, args.cap))
                seconds = perf_counter() - t0
            else:
                spans.begin(tid)
                t0 = perf_counter()
                with spans.span("tuple"):
                    result = report(sg, tup, args.cap)
                with spans.span("cli.serialize"):
                    doc = serialize(sg, tup, result)
                seconds = perf_counter() - t0
                out = tracing.units_probe(sg, spans, args.cap)
        except Exception as exc:  # reported as an unexpected error; the session goes on
            seconds, doc = perf_counter() - t0, error_doc(tup, exc)
        doc.pop("elapsed_ms", None)
        rows.append((seconds, len(refs) - 1, out, doc))
    refs.append(ref_sample())
    for seconds, k, out, doc in rows:
        ref = (refs[k] + refs[k + 1]) / 2
        print(json.dumps({"s": seconds, "ref": ref, "out": out, "report": doc}, separators=COMPACT))
    if spans is not None:
        spans.write(args.spans, origin)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb, "instrumented": instrumented}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
