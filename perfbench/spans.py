"""Spans around the calls that ``obstruction.verdict`` makes, recorded in memory.

``instrument`` replaces the names that ``seifert_gate.obstruction`` imports
with wrappers that open a span around each call, so a traced session times
the real ``verdict`` and sees whatever calls it makes.  A name the module no
longer has is left out, and its layer then reports no time.  Spans stay in
memory and are written out when the session ends; self times are computed
from them afterwards.  Node counts from inside the searches are not visible
from here and are not recorded.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# Layers in the order verdict() reaches them, then serialization as the CLI does
# it; the session times cli.serialize in a root span of its own.
LAYERS = (
    "seifert",
    "plumbing",
    "lattice.diagonalize",
    "lattice.dual",
    "lattice.d",
    "obstruction",
    "cli.serialize",
)
# A probe outside the verdict order: one (-1)-vector enumeration on its own.
UNITS = "lattice.units"
# The names seifert_gate.obstruction imports or defines, and the span of each call.
VERDICT_CALLS = {
    "validate_multiplicities": "seifert.validate_multiplicities",
    "solve_unnormalized": "seifert.solve_unnormalized",
    "normalize": "seifert.normalize",
    "gluing_data": "seifert.gluing_data",
    "build_plumbing": "plumbing.build_plumbing",
    "intersection_form": "plumbing.intersection_form",
    "diagonalize": "lattice.diagonalize",
    "dual_class": "lattice.dual",
    "d_invariant": "lattice.d",
    "verify_twist_chain": "obstruction.verify_twist_chain",
    "max_sharp_pairing": "obstruction.max_sharp_pairing",
    "TauBounds": "obstruction.TauBounds",
    "tau_gap_lower": "obstruction.tau_gap_lower",
}


class Spans:
    """In-memory spans: name, start, end, parent index (-1 for a root), tuple id, error.

    ``last`` holds the outcome of each span name in the current request: the
    return value, or the exception the call raised.
    """

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self._open: list[int] = []
        self.tid = -1
        self.last: dict[str, Any] = {}

    def begin(self, tid: int) -> None:
        self.tid = tid
        self.last = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.tid, None]
        self._open.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except Exception as exc:
                self.last[name] = exc
                raise
            self.last[name] = out
            return out

        return traced

    def instrument(self, obstruction: Any) -> list[str]:
        """Wrap verdict()'s calls in the obstruction module; returns the span names wrapped."""
        wrapped = []
        for attr, name in VERDICT_CALLS.items():
            if hasattr(obstruction, attr):
                setattr(obstruction, attr, self.wrap(name, getattr(obstruction, attr)))
                wrapped.append(name)
        bound = getattr(obstruction, "TwistBound", None)
        if bound is not None and hasattr(bound, "for_product"):
            name = "obstruction.TwistBound.for_product"
            bound.for_product = staticmethod(self.wrap(name, bound.for_product))
            wrapped.append(name)
        return wrapped

    def write(self, path: Path, origin: float) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, tid, error in self.records:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_s": round(start - origin, 7),
                            "end_s": round(end - origin, 7),
                            "parent": parent,
                            "tuple": tid,
                            "error": error,
                        }
                    )
                    + "\n"
                )


def load(path: Path) -> list[dict[str, Any]]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [sp["end_s"] - sp["start_s"] for sp in spans]
    for sp in spans:
        if sp["parent"] >= 0:
            own[sp["parent"]] -= sp["end_s"] - sp["start_s"]
    return own


def layer_of(name: str) -> str | None:
    for layer in LAYERS + (UNITS,):
        if name == layer or name.startswith(layer + "."):
            return layer
    return None


def units_probe(sg: Any, spans: Spans, cap: int) -> dict[str, Any]:
    """After a traced request: the units probe, and what the per-layer metrics count.

    Returns whether diagonalize found the form diagonalizable, whether
    d_invariant hit the cap, and how many (-1)-vectors the probe found (None
    when the probe hit the cap or no form was built).
    """
    cert = spans.last.get("lattice.diagonalize")
    form = spans.last.get("plumbing.intersection_form")
    out: dict[str, Any] = {
        "present": bool(getattr(cert, "present", False)),
        "d_failed": isinstance(spans.last.get("lattice.d"), sg.EnumerationCapExceeded),
        "units": None,
    }
    if form is not None:
        with spans.span(UNITS):
            try:
                out["units"] = len(sg.norm_minus_one_vectors(form, cap))
            except sg.EnumerationCapExceeded:
                pass
    return out
