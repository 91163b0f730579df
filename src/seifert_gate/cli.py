"""Command line interface: single tuples, batch files, and the small families.

Exit codes: 0 success, 1 a batch line failed with an error that is not one of
the package's own, 2 invalid input or parameters, 3 enumeration cap exceeded,
141 standard output closed before the run ended (as a shell reports a process
ended by SIGPIPE).
JSON output is schema-stable and byte-identical across runs except for the
elapsed_ms field; exact rationals are serialized as {"num": ..., "den": ...}
string pairs, never as floats.  Decimal approximations appear only in the text
view, marked with "~", where the value fits a float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import ceil
from time import perf_counter
from typing import Any, Iterator, NamedTuple, Sequence

from .errors import (
    EnumerationCapExceeded,
    InvalidParameter,
    SeifertGateError,
)
from .families import mp_family, mpl_family, transverse_contact_exists
from .lattice import DEFAULT_ENUMERATION_CAP
from .obstruction import ObstructionReport, verdict
from .plumbing import tree_rank

__all__ = ["report_to_dict", "format_text", "main", "entry"]

MIN_CAP = 10**3
EXIT_STDOUT_CLOSED = 141
# What starting a pool costs, in seconds.  After importing this module, fresh
# interpreters (2 CPUs, Python 3.11.7; medians of 22) took 28 ms to import
# concurrent.futures, 20 ms to make a 2-worker pool and get its first 4 small
# tuples back, and 3 ms to shut it down, 41-53 ms in all.  A batch that costs
# less never starts a pool.  W workers take about POOL_AFTER_S + R/W for what
# takes R in-process, so a batch starts one only for an estimated R of at
# least POOL_AFTER_S * W/(W - 1).  It loses at most one start against --jobs 1
# when R is overestimated, and forgoes what a pool saves when it is too low.
POOL_AFTER_S = 0.05


@contextmanager
def _long_ints() -> Iterator[None]:
    """Lift Python's limit on the digits of an int converted to or from str
    (4300 by default, where the Python has one) while a report is made and
    rendered, and restore it after, so that inputs are still parsed under it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _q(value: Fraction | int) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def report_to_dict(report: ObstructionReport) -> dict[str, Any]:
    """Flatten a report into the stable JSON schema (fixed key order)."""
    tau = report.tau
    cert = report.twist_certificate
    out: dict[str, Any] = {
        "input": list(report.multiplicities.a),
        "A": report.multiplicities.product,
        "unnormalized_b": list(report.presentation.coefficients),
        "e0": report.normalized.e0,
        "tilde_b": list(report.normalized.tilde_b),
        "plumbing": {
            "center": report.graph.center_weight,
            "legs": [list(leg) for leg in report.graph.legs],
        },
        "det": report.form.det,
        # a report exists only for a form whose square completion was built
        "negative_definite": True,
        "diagonalizable": report.certificate.present,
    }
    if report.certificate.present:
        out["E"] = [list(row) for row in report.certificate.E]
        out["P"] = tau.P
    out["d_invariant"] = _q(report.d_inv)
    out["tw_min"] = report.twist_bound.tw_min
    out["smooth_tau_upper"] = {
        "paper_form": _q(tau.smooth_tau_upper_paper),
        "sharp_form": _q(tau.smooth_tau_upper_sharp) if tau.P is not None else None,
    }
    out["contact_tau_lower_at_tw_min"] = _q(tau.contact_tau_lower_at_tw_min)
    if report.gap_lower is not None:
        out["gap_lower"] = _q(report.gap_lower)
    out["twist_certificate"] = {
        "I": list(cert.indices),
        "d": cert.d,
        "k": list(cert.k),
        "slopes": [_q(s) for s in cert.slopes],
        "s_tcr": _q(cert.s_tcr),
        "vertical_twist": cert.vertical_twist,
        "checks": {name: ok for name, ok in cert.checks},
        "all_checks_pass": cert.all_checks_pass,
    }
    out["verdict"] = report.verdict.value
    out["caveats"] = list(report.caveats)
    out["elapsed_ms"] = round(report.elapsed_ms, 3)
    return out


def _fmt_q(q: dict[str, str] | None) -> str:
    if q is None:
        return "n/a"
    num, den = int(q["num"]), int(q["den"])
    if den == 1:
        return str(num)
    try:
        return f"{num}/{den} (~{num / den:.4f})"
    except OverflowError:  # beyond a float: the exact fraction alone
        return f"{num}/{den}"


def format_text(d: dict[str, Any]) -> str:
    """Human-readable one-report view of the JSON dict."""
    if "error" in d:
        err = d["error"]
        if "raw" in d:
            return f"line {d['line']} ({d['raw']!r}): {err['type']}: {err['message']}"
        return f"input {tuple(d['input'])}: {err['type']}: {err['message']}"
    lines = [
        f"Brieskorn({', '.join(str(a) for a in d['input'])})",
        f"  A = {d['A']}",
        f"  unnormalized b = {tuple(d['unnormalized_b'])}  (central framing 0)",
        f"  normalized: e0 = {d['e0']}, tilde_b = {tuple(d['tilde_b'])}",
        "  plumbing: center {} ; legs {}".format(
            d["plumbing"]["center"],
            " ".join(str(leg) for leg in d["plumbing"]["legs"]),
        ),
        f"  intersection form: rank {1 + sum(len(l) for l in d['plumbing']['legs'])}, "
        f"det = {d['det']}, negative definite = {d['negative_definite']}",
        f"  diagonalizable over Z: {d['diagonalizable']}",
    ]
    if d["diagonalizable"]:
        lines.append(f"  max sharp pairing P = {d['P']}")
    lines.append(f"  d-invariant = {_fmt_q(d['d_invariant'])}")
    lines.append(f"  tw_min = {d['tw_min']}  (least integer > -sqrt(A))")
    lines.append(
        "  smooth tau upper bound: sharp {} ; sqrt form {}".format(
            _fmt_q(d["smooth_tau_upper"]["sharp_form"]),
            _fmt_q(d["smooth_tau_upper"]["paper_form"]),
        )
    )
    lines.append(
        f"  contact tau lower bound at tw_min = {_fmt_q(d['contact_tau_lower_at_tw_min'])}"
    )
    if "gap_lower" in d:
        lines.append(f"  gap lower bound (2*(tau_contact - tau_smooth)) = {_fmt_q(d['gap_lower'])}")
    cert = d["twist_certificate"]
    lines.append(
        f"  twist certificate: I = {tuple(cert['I'])}, d = {cert['d']}, k = {tuple(cert['k'])}"
    )
    lines.append(
        "    slopes = [{}], s_tcr = {}, vertical twist = {}".format(
            ", ".join(_fmt_q(s) for s in cert["slopes"]),
            _fmt_q(cert["s_tcr"]),
            cert["vertical_twist"],
        )
    )
    lines.append(f"    checks pass: {cert['all_checks_pass']}")
    lines.append(f"  verdict: {d['verdict']}")
    return "\n".join(lines)


class _Line(NamedTuple):
    """A batch line as printed, with what the batch summary counts of it."""

    text: str
    outcome: str  # the verdict, or the error's type
    elapsed_ms: float | None  # None for an error
    unexpected: bool


@_long_ints()
def _render_tuple(values: tuple[int, ...], cap: int, json_output: bool) -> _Line:
    """Evaluate one batch tuple and render its line, any exception as its
    error, so that only the finished string crosses back from a pool worker."""
    try:
        d = report_to_dict(verdict(values, cap=cap))
        outcome, elapsed_ms, unexpected = d["verdict"], d["elapsed_ms"], False
    except Exception as exc:
        unexpected = not isinstance(exc, SeifertGateError)
        if unexpected:
            import traceback

            traceback.print_exc()
        outcome, elapsed_ms = type(exc).__name__, None
        d = {"input": list(values), "error": {"type": outcome, "message": str(exc)}}
    return _Line(_render(d, json_output, compact=True), outcome, elapsed_ms, unexpected)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstruct",
        description=(
            "Exact embedding-obstruction certificates for Brieskorn homology "
            "spheres.  Use 'obstruct family mp --p P [--ell L]' for the small "
            "Seifert families."
        ),
    )
    parser.add_argument(
        "multiplicities",
        nargs="*",
        type=int,
        help="pairwise coprime multiplicities, e.g. 2 3 13",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--batch", metavar="FILE", help="read one tuple per line from FILE")
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help=f"lattice search node cap, at least {MIN_CAP} (default {DEFAULT_ENUMERATION_CAP})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers for batch mode, at most one per usable CPU and per tuple",
    )
    return parser


def _build_family_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstruct family", description="Small Seifert family generators and tests."
    )
    parser.add_argument("name", choices=["mp"], help="family name")
    parser.add_argument("--p", type=int, required=True, help="multiplicity parameter, p >= 2")
    parser.add_argument("--ell", type=int, default=None, help="fiber-count parameter, ell >= 1")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def _render(d: dict[str, Any], json_output: bool, compact: bool = False) -> str:
    if json_output:
        return json.dumps(d, separators=(",", ":")) if compact else json.dumps(d, indent=2)
    return format_text(d)


def _parse_batch_line(raw: str) -> tuple[int, ...] | None:
    text = raw.split("#", 1)[0].strip()
    if not text:
        return None
    return tuple(int(tok) for tok in text.split())


def _process_pool(workers: int) -> Any:
    """The batch's worker pool, imported here so that a run without one never
    loads ``concurrent.futures``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def _batch_summary(
    verdicts: Counter[str], errors: Counter[str], reused: int, elapsed: list[float], pool: str | None
) -> str:
    """The one stderr line that ends a batch: counts by verdict and by error
    type, lines reused from an earlier identical line, the nearest-rank
    median, p90 and max elapsed_ms of the tuples evaluated and, at --jobs
    above 1, whether and where the pool took over."""

    def counts(outcomes: Counter[str]) -> str:
        return " ".join(f"{name}={n}" for name, n in sorted(outcomes.items())) or "none"

    ordered = sorted(elapsed)
    timing = (
        f"elapsed_ms over {len(ordered)} evaluated: median={_nearest_rank(ordered, 0.5)} "
        f"p90={_nearest_rank(ordered, 0.9)} max={ordered[-1]}"
        if ordered
        else "elapsed_ms: none evaluated"
    )
    lines = sum(verdicts.values()) + sum(errors.values())
    summary = f"batch: {lines} lines, {reused} reused; verdicts: {counts(verdicts)}; errors: {counts(errors)}; {timing}"
    return summary if pool is None else f"{summary}; pool: {pool}"


def _run_batch(path: str, cap: int, jobs: int, json_output: bool) -> int:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    # One entry per output line: a parsed tuple, or the finished line of a
    # line that does not parse.
    entries: list[tuple[int, ...] | _Line] = []
    last_use: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            parsed = _parse_batch_line(raw)
        except ValueError:
            record = {
                "line": lineno,
                "raw": raw.rstrip("\n"),
                "error": {"type": "ParseError", "message": "not a whitespace-separated integer tuple"},
            }
            entries.append(_Line(_render(record, json_output, compact=True), "ParseError", None, False))
            continue
        if parsed is None:
            continue
        last_use[parsed] = len(entries)
        entries.append(parsed)
    # A report depends only on (tuple, cap), so each distinct tuple is
    # evaluated once, in order of first use, and a repeat prints its line again.
    distinct = list(last_use)
    evaluate = partial(_render_tuple, cap=cap, json_output=json_output)
    # The CPUs this process may run on, which an affinity mask can make fewer
    # than the host has.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    pool = "none"

    def results(stack: ExitStack) -> Iterator[_Line]:
        """Each distinct tuple's line, in order.  They are evaluated here until
        that has taken POOL_AFTER_S and the work left repays a pool start;
        then a pool gets all that are left, if that is 2 or more.  The work
        left is estimated as spent * left/done, where done and left sum the
        squared ranks (the enumeration's nodes grow about as m^2) of the
        tuples evaluated here and of those to come; every distinct tuple is
        weighed once, at the first check.  With done = 0 the pool starts at
        once."""
        nonlocal pool
        spent = 0.0
        total: list[int] = []  # total[k]: the squared ranks of distinct[:k], summed
        for k, values in enumerate(distinct):
            # The pool starts all its workers at the first submit, so it gets
            # no more than there are CPUs and tuples left.
            workers = min(jobs, len(distinct) - k, cpus)
            if workers > 1 and spent >= POOL_AFTER_S:
                total = total or list(accumulate((tree_rank(v) ** 2 for v in distinct), initial=0))
                done, left = total[k], total[-1] - total[k]
                # R * (W - 1) >= POOL_AFTER_S * W, with R = spent * left/done
                if left * (workers - 1) * spent >= POOL_AFTER_S * workers * done:
                    executor = stack.enter_context(_process_pool(workers))
                    # On an early exit, such as a closed stdout, no worker
                    # starts another hand-out.
                    stack.callback(executor.shutdown, cancel_futures=True)
                    pool = f"{workers} workers from distinct tuple {k + 1} of {len(distinct)}"
                    yield from executor.map(evaluate, distinct[k:])
                    return
            start = perf_counter()
            line = evaluate(values)
            spent += perf_counter() - start
            yield line

    verdicts: Counter[str] = Counter()
    errors: Counter[str] = Counter()
    elapsed: list[float] = []
    reused = 0
    unexpected = False
    with ExitStack() as stack:
        # Lines come in input order as they are ready, so each line is written
        # as soon as it and every earlier line are.
        lines = results(stack)
        # A rendered line is kept only while a later line repeats its tuple:
        # one line is 2.4 MB at rank 891.
        kept: dict[tuple[int, ...], _Line] = {}
        for i, entry in enumerate(entries):
            if isinstance(entry, _Line):
                line = entry
            elif entry in kept:
                reused += 1
                line = kept[entry] if last_use[entry] > i else kept.pop(entry)
            else:
                line = next(lines)
                if last_use[entry] > i:
                    kept[entry] = line
                if line.elapsed_ms is not None:
                    elapsed.append(line.elapsed_ms)
                unexpected |= line.unexpected
            (errors if line.elapsed_ms is None else verdicts)[line.outcome] += 1
            print(line.text, flush=True)
    print(_batch_summary(verdicts, errors, reused, elapsed, pool if jobs > 1 else None), file=sys.stderr)
    return 1 if unexpected else 2 if errors["ParseError"] else 0


def _run_family(argv: Sequence[str]) -> int:
    args = _build_family_parser().parse_args(argv)
    data = mpl_family(args.p, args.ell) if args.ell is not None else mp_family(args.p)
    out: dict[str, Any] = {
        "family": args.name,
        "p": args.p,
        "ell": args.ell,
        "e": data.e0,
        "r": [_q(ri) for ri in data.r],
    }
    if len(data.r) == 3:
        # Up to order a three-fiber member is M(-1; (p-1)/p, 1/p, 1/p), so
        # r1 + r2 = 1 leaves the interval (r1, 1 - r2) of a witness empty.
        out["transverse_contact_structure"] = {
            "applicable": True,
            "witness": None,
            "searched_m_below": transverse_contact_exists(data).searched_m_below,
            "note": (
                "no transverse contact structure on this side; by the standard "
                "equivalence the manifold or its reverse is an L-space"
            ),
        }
    else:
        out["transverse_contact_structure"] = {
            "applicable": False,
            "note": "the transverse criterion implemented here applies to three singular fibers",
        }
    if args.json:
        text = _render(out, True)
    else:
        t = out["transverse_contact_structure"]
        lines = [f"M({data.e0}; {', '.join(_fmt_q(q) for q in out['r'])})"]
        if t["applicable"]:
            lines.append(f"  transverse contact structure: none (all m < {t['searched_m_below']} exhausted)")
            lines.append(f"  note: {t['note']}")
        else:
            lines.append(f"  transverse test: not applicable ({t['note']})")
        text = "\n".join(lines)
    print(text)
    return 0


def _run(argv: list[str]) -> int:
    if argv and argv[0] == "family":
        return _run_family(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, value, least in (("cap", args.cap, MIN_CAP), ("jobs", args.jobs, 1)):
        if value < least:
            raise InvalidParameter(f"{name} must be >= {least}, got {value}")
    if bool(args.batch) == bool(args.multiplicities):  # a tuple or --batch, not both
        parser.print_usage(sys.stderr)
        return 2
    if args.batch:
        return _run_batch(args.batch, args.cap, args.jobs, args.json)
    with _long_ints():
        print(_render(report_to_dict(verdict(tuple(args.multiplicities), cap=args.cap)), args.json))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one invocation and turn its outcome, in any mode, into the exit code."""
    try:
        try:
            return _run(list(sys.argv[1:] if argv is None else argv))
        finally:  # what any mode printed, argparse's help too, is written inside this guard
            sys.stdout.flush()
    except SystemExit as exc:  # argparse: --help, or a usage error
        return int(exc.code or 0)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SeifertGateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early, as `head` does: write nothing more,
        # not even the flush at interpreter exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
