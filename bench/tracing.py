"""Span tracing at the package's layer boundaries, for the traced benchmark pass.

A ``Tracer`` replaces each boundary name below (a module-level name through
which one layer calls the next) with a wrapper that records a span: name,
start, end, parent span and the algebra it worked on.  Spans live in memory,
one parent stack per thread because the batch path runs worker threads, and
are written out after the pass.  Leaving the ``with`` block puts every
original name back.  A boundary whose name no longer exists is skipped and
its metrics read ``None``.

Nothing here is imported by the package; untimed passes never see a wrapper.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections.abc import Sized
from typing import Any, Callable, NamedTuple

from nilspec import catalog, cli, exterior, lie, linalg, spectral

MODULES = {"catalog": catalog, "cli": cli, "exterior": exterior, "lie": lie,
           "linalg": linalg, "spectral": spectral}


class Boundary(NamedTuple):
    module: str
    attr: str
    span: str  # span name, the layer that does the work
    time_metric: str
    calls_metric: str | None
    per_algebra: bool  # arguments identify the algebra; otherwise inherit the parent's


BOUNDARIES = (
    Boundary("cli", "parse_salamon", "lie.parse", "lie.parse_s", None, True),
    Boundary("lie", "validate_algebra", "lie.validate", "lie.validate_s", "lie.validate_calls", True),
    Boundary("spectral", "descending_series", "lie.filtration", "lie.filtration_s", None, True),
    Boundary("spectral", "build_complex", "exterior.build_complex", "exterior.build_complex_s", None, True),
    Boundary("exterior", "rank", "exterior.d_rank", "exterior.d_rank_s", None, False),
    Boundary("spectral", "full_table", "spectral.table", "spectral.table_s", None, True),
    Boundary("spectral", "preimage", "spectral.preimage", "spectral.preimage_s", "spectral.preimage_calls", False),
    Boundary("spectral", "image", "spectral.image", "spectral.image_s", "spectral.image_calls", False),
    Boundary("spectral", "subspace_sum", "spectral.sum", "spectral.sum_s", None, False),
    Boundary("spectral", "contains", "spectral.contains", "spectral.contains_s", None, False),
    Boundary("linalg", "span", "linalg.span", "linalg.span_s", "linalg.span_calls", False),
    Boundary("catalog", "golden_check", "catalog.golden_check", "catalog.golden_check_s", None, True),
    Boundary("cli", "table_for", "cli.table_for", "cli.table_busy_s", None, True),
    Boundary("cli", "table_json", "cli.table_json", "cli.render_s", None, True),
)

class Tracer:
    """Context manager that wraps the boundaries and records spans.

    A span is ``(id, name, start_ns, end_ns, parent_id, algebra_id, thread)``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.installed: list[Boundary] = []
        self.complexes: list[Any] = []  # results of build_complex
        self.tables: list[Any] = []  # results of full_table
        self.span_shapes: list[tuple[int | None, int | None, int | None]] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._algebras: dict[Any, str] = {}  # LieAlgebra -> "a<n>"
        self._owner: dict[int, tuple[Any, str]] = {}  # id(complex or table) -> (object, algebra id)
        self.t0 = time.perf_counter_ns()

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> Tracer:
        try:
            for b in BOUNDARIES:
                module = MODULES[b.module]
                original = getattr(module, b.attr, None)
                if original is None:
                    continue
                self._originals.append((module, b.attr, original))
                setattr(module, b.attr, self._wrap(original, b))
                self.installed.append(b)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- recording ---------------------------------------------------------

    def _algebra_id(self, obj: Any) -> str | None:
        if isinstance(obj, lie.LieAlgebra):
            with self._lock:
                return self._algebras.setdefault(obj, f"a{len(self._algebras) + 1}")
        owned = self._owner.get(id(obj))
        return owned[1] if owned else None

    def _wrap(self, fn: Callable, b: Boundary) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        is_span = b.span == "linalg.span"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, inherited = stack[-1] if stack else (None, None)
            algebra = inherited
            if b.per_algebra:
                for arg in args[:2]:
                    found = self._algebra_id(arg)
                    if found:
                        algebra = found
                        break
            if is_span and args and not isinstance(args[0], Sized):
                args = (list(args[0]),) + args[1:]
            sid = next(ids)
            stack.append((sid, algebra))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if b.per_algebra and algebra is None:
                algebra = self._algebra_id(result)
            spans.append((sid, b.span, start - self.t0, end - self.t0, parent, algebra,
                          threading.get_ident()))
            self._after(b, args, result, algebra)
            return result

        return traced

    def _after(self, b: Boundary, args: tuple, result: Any, algebra: str | None) -> None:
        if b.span in ("exterior.build_complex", "spectral.table"):
            self._owner[id(result)] = (result, algebra)
            (self.complexes if b.span == "exterior.build_complex" else self.tables).append(result)
        elif b.span == "linalg.span":
            rows = len(args[0]) if args and isinstance(args[0], Sized) else None
            cols = args[1] if len(args) > 1 else None
            self.span_shapes.append((rows, cols, getattr(result, "dim", None)))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its child spans."""
        child_ns: dict[int, int] = {}
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child_ns.get(sid, 0)) / 1e9
        return out

    def metrics(self, wall_s: float, cache_info: Any) -> dict[str, float | int | None]:
        """Per-layer metrics of one traced pass that took ``wall_s``.

        Besides busy time and calls per boundary: spectral.cells counts the
        grid cells computed, (stored pages + the limit) x k x (m+1) summed
        over tables; exterior.d_nnz the nonzero entries of d_0..d_m over the
        complexes built; linalg.span_* come from span's inputs (rows fed in,
        widest ambient dimension, rank out / rows in); cli.overlap is the
        time inside cli.table_for over ``wall_s`` (above 1 when batch
        threads overlap).
        """
        installed = {b.span for b in self.installed}
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        for _, name, start, end, _, _, _ in self.spans:
            busy[name] = busy.get(name, 0.0) + (end - start) / 1e9
            calls[name] = calls.get(name, 0) + 1
        out: dict[str, float | int | None] = {}
        for b in BOUNDARIES:
            on = b.span in installed
            out[b.time_metric] = busy.get(b.span, 0.0) if on else None
            if b.calls_metric:
                out[b.calls_metric] = calls.get(b.span, 0) if on else None
        selfs = self.self_times()
        out["spectral.table_self_s"] = (selfs.get("spectral.table", 0.0)
                                        if "spectral.table" in installed else None)
        out["exterior.lambda_max"] = (max((math.comb(c.m, c.m // 2) for c in self.complexes), default=0)
                                      if "exterior.build_complex" in installed else None)
        out["exterior.d_nnz"] = self._d_nnz() if "exterior.build_complex" in installed else None
        out["spectral.cells"] = (sum((len(t.pages) + 1) * t.k * (t.m + 1) for t in self.tables)
                                 if "spectral.table" in installed else None)
        if cache_info is not None:
            lookups = cache_info.hits + cache_info.misses
            out["spectral.complex_cache_lookups"] = lookups
            out["spectral.complex_cache_hit_ratio"] = cache_info.hits / lookups if lookups else 0.0
        else:
            out["spectral.complex_cache_lookups"] = None
            out["spectral.complex_cache_hit_ratio"] = None
        if "linalg.span" in installed and all(None not in s for s in self.span_shapes):
            rows_in = sum(s[0] for s in self.span_shapes)
            out["linalg.span_rows_in"] = rows_in
            out["linalg.span_max_cols"] = max((s[1] for s in self.span_shapes), default=0)
            out["linalg.span_rank_ratio"] = (sum(s[2] for s in self.span_shapes) / rows_in
                                             if rows_in else 0.0)
        else:
            out["linalg.span_rows_in"] = out["linalg.span_max_cols"] = None
            out["linalg.span_rank_ratio"] = None
        table_busy = out["cli.table_busy_s"]
        out["cli.overlap"] = table_busy / wall_s if table_busy is not None else None
        out["trace.wall_s"] = wall_s
        return out

    def _d_nnz(self) -> int | None:
        """Nonzero entries of every differential of every complex built."""
        columns = getattr(exterior, "differential_columns", None)
        if columns is None:
            return None
        total = 0
        for c in self.complexes:
            constants = getattr(c, "adapted_constants", None)
            if constants is None:
                return None
            for q in range(c.m + 1):
                total += sum(len(entries) for entries in columns(c.m, constants, q).values())
        return total

    def write(self, path: str, context: dict) -> None:
        """Spans, per-layer self time and the algebra behind every id, as JSON."""
        to_salamon = getattr(lie, "to_salamon", repr)
        threads: dict[int, int] = {}
        spans = [[sid, name, start, end, parent, algebra,
                  threads.setdefault(tid, len(threads))]
                 for sid, name, start, end, parent, algebra, tid in sorted(self.spans)]
        doc = {
            "context": context,
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "algebra", "thread"],
            "self_s": self.self_times(),
            "algebras": {aid: to_salamon(a) for a, aid in self._algebras.items()},
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

