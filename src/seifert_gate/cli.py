"""Command line interface: single tuples, batch files, and the small families.

Exit codes: 0 success, 1 a batch line failed with an error that is not one of
the package's own, 2 invalid input or parameters, 3 enumeration cap exceeded.
JSON output is schema-stable and byte-identical across runs except for the
elapsed_ms field; exact rationals are serialized as {"num": ..., "den": ...}
string pairs, never as floats.  Decimal approximations appear only in the text
view, marked with "~".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .errors import (
    EnumerationCapExceeded,
    InvalidParameter,
    SeifertGateError,
)
from .families import mp_family, mpl_family, transverse_contact_exists
from .lattice import DEFAULT_ENUMERATION_CAP
from .obstruction import ObstructionReport, verdict

__all__ = ["RunConfig", "report_to_dict", "format_text", "main", "entry"]

ENV_CAP = "SEIFERT_GATE_CAP"
MIN_CAP = 10**3


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the single and batch modes."""

    cap: int
    kn_bound: int
    jobs: int = 1
    json_output: bool = False

    def __post_init__(self) -> None:
        if self.cap < MIN_CAP:
            raise InvalidParameter(f"cap must be >= {MIN_CAP}, got {self.cap}")
        if self.kn_bound > -1:
            raise InvalidParameter(f"kn-range bound must be <= -1, got {self.kn_bound}")
        if self.jobs < 1:
            raise InvalidParameter(f"jobs must be >= 1, got {self.jobs}")


def _q(value: Fraction | int) -> dict[str, str]:
    f = Fraction(value)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def report_to_dict(report: ObstructionReport) -> dict[str, Any]:
    """Flatten a report into the stable JSON schema (fixed key order)."""
    tau = report.tau
    tw_min = report.twist_bound.tw_min
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
        "negative_definite": report.form.negative_definite,
        "diagonalizable": report.certificate.present,
    }
    if report.certificate.present:
        out["E"] = [list(row) for row in report.certificate.E]
        out["P"] = tau.P
    out["d_invariant"] = _q(report.d_inv)
    out["tw_min"] = tw_min
    out["smooth_tau_upper"] = {
        "paper_form": _q(tau.smooth_tau_upper_paper),
        "sharp_form": _q(tau.smooth_tau_upper_sharp) if tau.P is not None else None,
    }
    out["contact_tau_lower_at_tw_min"] = _q(tau.contact_tau_lower_at(tw_min))
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
    return f"{num}/{den} (~{num / den:.4f})"


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


def _evaluate_tuple(payload: tuple[tuple[int, ...], int, int]) -> tuple[dict[str, Any], bool]:
    """Batch worker: the report dict or any exception as the line's error, and
    whether that error is not one of the package's own."""
    values, cap, kn_bound = payload
    try:
        return report_to_dict(verdict(values, cap=cap, kn_bound=kn_bound)), False
    except Exception as exc:
        unexpected = not isinstance(exc, SeifertGateError)
        if unexpected:
            traceback.print_exc()
        error = {"type": type(exc).__name__, "message": str(exc)}
        return {"input": list(values), "error": error}, unexpected


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
        default=None,
        help=f"lattice search node cap (default {DEFAULT_ENUMERATION_CAP}, env {ENV_CAP})",
    )
    parser.add_argument(
        "--kn-range",
        type=int,
        default=-10,
        metavar="K",
        help="verify the last-fiber slope inequality for twists -1..K (K <= -1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers for batch mode, at most one per CPU and per tuple",
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


def _default_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameter(f"{ENV_CAP} must be an integer, got {raw!r}") from None


def _emit(d: dict[str, Any], json_output: bool, compact: bool = False) -> None:
    if json_output:
        text = json.dumps(d, separators=(",", ":")) if compact else json.dumps(d, indent=2)
    else:
        text = format_text(d)
    print(text, flush=True)


def _run_single(values: Sequence[int], config: RunConfig) -> int:
    try:
        report = verdict(tuple(values), cap=config.cap, kn_bound=config.kn_bound)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SeifertGateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(report_to_dict(report), config.json_output)
    return 0


def _parse_batch_line(raw: str) -> tuple[int, ...] | None:
    text = raw.split("#", 1)[0].strip()
    if not text:
        return None
    return tuple(int(tok) for tok in text.split())


def _run_batch(path: str, config: RunConfig) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    tasks: list[tuple[int, ...]] = []
    parse_failures = 0
    records: list[dict[str, Any] | None] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            parsed = _parse_batch_line(raw)
        except ValueError:
            parse_failures += 1
            records.append(
                {
                    "line": lineno,
                    "raw": raw.rstrip("\n"),
                    "error": {"type": "ParseError", "message": "not a whitespace-separated integer tuple"},
                }
            )
            continue
        if parsed is None:
            continue
        tasks.append(parsed)
        records.append(None)  # placeholder, filled after evaluation
    payloads = [(t, config.cap, config.kn_bound) for t in tasks]
    # The pool starts all its workers at the first submit, so it gets no more
    # than there are CPUs and tuples.
    workers = min(config.jobs, len(payloads), os.cpu_count() or 1)
    with ExitStack() as stack:
        # Both maps yield in input order as results arrive, so each line is
        # written as soon as it and every earlier line are ready.
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_evaluate_tuple, payloads)
        else:
            results = map(_evaluate_tuple, payloads)
        unexpected = 0
        for record in records:
            if record is None:
                record, failed = next(results)
                unexpected += failed
            _emit(record, config.json_output, compact=True)
    return 1 if unexpected else 2 if parse_failures else 0


def _run_family(argv: Sequence[str]) -> int:
    parser = _build_family_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        data = mpl_family(args.p, args.ell) if args.ell is not None else mp_family(args.p)
    except InvalidParameter as exc:
        print(f"error: InvalidParameter: {exc}", file=sys.stderr)
        return 2
    out: dict[str, Any] = {
        "family": args.name,
        "p": args.p,
        "ell": args.ell,
        "e": data.e,
        "r": [_q(ri) for ri in data.r],
    }
    if len(data.r) == 3:
        witness = transverse_contact_exists(data)
        out["transverse_contact_structure"] = {
            "applicable": True,
            "witness": {"a": witness.a, "m": witness.m} if witness.present else None,
            "searched_m_below": witness.searched_m_below,
        }
        if not witness.present:
            out["transverse_contact_structure"]["note"] = (
                "no transverse contact structure on this side; by the standard "
                "equivalence the manifold or its reverse is an L-space"
            )
    else:
        out["transverse_contact_structure"] = {
            "applicable": False,
            "note": "the transverse criterion implemented here applies to three singular fibers",
        }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        r_text = ", ".join(_fmt_q(q) for q in out["r"])
        print(f"M({data.e}; {r_text})")
        t = out["transverse_contact_structure"]
        if not t["applicable"]:
            print(f"  transverse test: not applicable ({t['note']})")
        elif t["witness"] is None:
            print(
                f"  transverse contact structure: none (all m < {t['searched_m_below']} exhausted)"
            )
            print(f"  note: {t['note']}")
        else:
            w = t["witness"]
            print(f"  transverse contact structure: witness (a, m) = ({w['a']}, {w['m']})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "family":
        return _run_family(argv[1:])
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cap = args.cap if args.cap is not None else _default_cap()
        config = RunConfig(
            cap=cap,
            kn_bound=args.kn_range,
            jobs=args.jobs,
            json_output=args.json,
        )
    except InvalidParameter as exc:
        print(f"error: InvalidParameter: {exc}", file=sys.stderr)
        return 2
    if args.batch:
        return _run_batch(args.batch, config)
    if len(args.multiplicities) == 0:
        parser.print_usage(sys.stderr)
        return 2
    return _run_single(args.multiplicities, config)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
