"""In-memory tracer that wraps symbif's layer boundaries from outside the package.

Every wrapped function is one boundary.  Entering and leaving a boundary
moves a clock between layers, so each layer's self time is exactly its span
time minus the time covered by the boundaries it called (exclusive time).
Boundaries called rarely enough also record a span (name, start, end, parent);
the hot ones (one Bessel evaluation, one ring operation, one representation
construction) only count calls and time, because a span object per call would
cost more than the call.  Spans stay in memory until :meth:`Tracer.dump`.

Patching replaces a function in every ``symbif`` module that imported it by
name, so ``from .system import lambda_set`` in ``bifurcation`` is traced too.
Under numba the jitted bisection calls the jitted ``_radial_condition``
directly, so kernel counts are then reported as absent.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counts: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)  # inclusive seconds per boundary name
        self.layer_self: defaultdict = defaultdict(float)
        self._stack: list[tuple] = []  # (layer, span id or None, start)
        self._span_stack: list[int] = []
        self._mark = 0.0
        self._next_id = 0
        self._in_bisect = 0
        self._in_ball_test = 0
        self._in_analyze = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- clock ---------------------------------------------------------------

    def _enter(self, layer: str, spanned: bool) -> None:
        now = _clock()
        if self._stack:
            self.layer_self[self._stack[-1][0]] += now - self._mark
        self._mark = now
        sid = None
        if spanned:
            sid = self._next_id
            self._next_id += 1
            self._span_stack.append(sid)
        self._stack.append((layer, sid, now))

    def _leave(self, name: str) -> None:
        now = _clock()
        layer, sid, start = self._stack.pop()
        self.layer_self[layer] += now - self._mark
        self._mark = now
        if sid is not None:
            self._span_stack.pop()
            parent = self._span_stack[-1] if self._span_stack else None
            self.spans.append((sid, name, parent, start, now))
        self.incl[name] += now - start
        self.counts[name] += 1

    def spanned(self, fn, name: str):
        """Call fn inside a span of the benchmark's own (one operation of a pass)."""
        self._enter("bench", True)
        try:
            return fn()
        finally:
            self._leave(name)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, spanned: bool, after=None, flag: str | None = None):
        """Boundary wrapper; ``flag`` names a depth counter raised while the call runs."""
        tracer = self

        def wrapper(*args, **kwargs):
            if flag:
                setattr(tracer, flag, getattr(tracer, flag) + 1)
            tracer._enter(layer, spanned)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name)
                if flag:
                    setattr(tracer, flag, getattr(tracer, flag) - 1)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_radial_condition(self, fn, series_max: float, asym_min: float):
        tracer = self
        counts = self.counts

        def wrapper(l, dim, x):
            tracer._enter("kernels", False)
            try:
                return fn(l, dim, x)
            finally:
                tracer._leave("kernels.radial_condition")
                if x <= series_max:
                    counts["kernels.evals_series"] += 1
                elif x >= asym_min:
                    counts["kernels.evals_asymptotic"] += 1
                else:
                    counts["kernels.evals_recurrence"] += 1
                if tracer._in_bisect:
                    counts["kernels.evals_in_bisect"] += 1
                if tracer._in_ball_test:
                    counts["spectral.ball_test_evals"] += 1

        return wrapper

    def _wrap_roots(self, fn):
        """radial_roots_up_to: counts roots, and cache hits as calls without evaluations."""
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["kernels.radial_condition"]
            tracer._enter("spectral.scan", True)
            try:
                roots = fn(*args, **kwargs)
            finally:
                tracer._leave("spectral.radial_roots_up_to")
            counts["spectral.roots"] += len(roots)
            if kwargs.get("cache") is not None:
                hit = counts["kernels.radial_condition"] == before
                counts["spectral.cache_hits" if hit else "spectral.cache_misses"] += 1
            return roots

        return wrapper

    def _wrap_ingest(self, fn):
        """domain_from_json: supplied spectra (ball, custom) are timed as ingestion."""
        tracer = self

        def wrapper(doc, *args, **kwargs):
            supplied = isinstance(doc, dict) and doc.get("type") != "disk"
            tracer._enter("spectral", True)
            try:
                return fn(doc, *args, **kwargs)
            finally:
                tracer._leave("spectral.ingest" if supplied else "spectral.domain_from_json")

        return wrapper

    def _bifurcation_wrap(self, fn, name: str, spanned: bool):
        """Bifurcation time counts as analyze's self time only inside analyze."""
        tracer = self

        def wrapper(*args, **kwargs):
            layer = "bifurcation" if tracer._in_analyze else "bifurcation.other"
            tracer._enter(layer, spanned)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(name)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "symbif" or modname.startswith("symbif.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, attr: str, make) -> None:
        descriptor = cls.__dict__[attr]
        self._patches.append((cls, attr, descriptor))
        if isinstance(descriptor, classmethod):
            setattr(cls, attr, classmethod(make(descriptor.__func__)))
        else:
            setattr(cls, attr, make(descriptor))

    def install(self) -> "Tracer":
        from symbif import _kernels, bifurcation, cli, euler, spectral, system

        def everywhere(fn, name, layer, spanned, after=None, flag=None):
            self._replace_everywhere(fn, self._wrap(fn, name, layer, spanned, after, flag))

        def method(cls, attr, name, layer, spanned):
            self._replace_method(cls, attr, lambda f: self._wrap(f, name, layer, spanned))

        rc = _kernels._radial_condition
        self._replace_everywhere(
            rc, self._wrap_radial_condition(rc, _kernels.SERIES_X_MAX, _kernels.ASYMPTOTIC_X_MIN)
        )
        everywhere(_kernels._bisect_radial, "kernels.bisect_radial", "kernels", True, flag="_in_bisect")

        self._replace_everywhere(spectral.radial_roots_up_to, self._wrap_roots(spectral.radial_roots_up_to))
        everywhere(spectral.disk_spectrum, "spectral.disk_spectrum", "spectral", True)
        everywhere(
            spectral.ball_rep_nontrivial, "spectral.ball_rep_nontrivial", "spectral", True, flag="_in_ball_test"
        )
        self._replace_everywhere(spectral.domain_from_json, self._wrap_ingest(spectral.domain_from_json))
        method(spectral.RootCache, "load", "spectral.cache_load", "spectral", True)
        method(spectral.RootCache, "save", "spectral.cache_save", "spectral", True)
        for cls in (spectral.DiskDomain, spectral._SuppliedDomain):
            method(cls, "entries_up_to", "spectral.entries_up_to", "spectral", False)
        method(spectral.RepDescriptor, "__post_init__", "spectral.rep_descriptor", "spectral", False)

        for fname in ("lambda_set", "kernel_reps", "lambda_membership"):
            everywhere(getattr(system, fname), f"system.{fname}", "system", True)

        everywhere(euler.deg_minus_id, "euler.deg_minus_id", "euler", False)
        everywhere(euler.rep_equiv_mod_even_trivial, "euler.rep_equiv", "euler", False)
        for attr in ("__post_init__", "__add__", "__neg__", "__sub__", "__mul__", "__rmul__", "__pow__", "invert"):
            method(euler.EulerSO2, attr, f"euler.ring.{attr}", "euler", False)
        for attr in ("__post_init__", "direct_sum", "__add__"):
            method(euler.SO2Rep, attr, f"euler.so2rep.{attr}", "euler", False)

        def count_candidates(args, kwargs, result):
            self.counts["bifurcation.candidates"] += len(result)

        everywhere(
            bifurcation.analyze, "bifurcation.analyze", "bifurcation", True, count_candidates, "_in_analyze"
        )
        for fname in ("check_glob", "check_glob_zero", "bif_a9", "bif_difference", "unbounded_verdict"):
            fn = getattr(bifurcation, fname)
            self._replace_everywhere(fn, self._bifurcation_wrap(fn, f"bifurcation.{fname}", True))
        fn = bifurcation.rabinowitz_excludes_bounded
        self._replace_everywhere(fn, self._bifurcation_wrap(fn, "bifurcation.rabinowitz", False))

        def count_subsets(args, kwargs, result):
            self.counts["bifurcation.subsets"] += 2 ** len(args[0]) - 1

        everywhere(
            bifurcation.enumerate_zero_sum_subsets,
            "bifurcation.enumerate_zero_sum_subsets",
            "bifurcation.other",
            True,
            count_subsets,
        )

        method(cli.AnalysisConfig, "from_doc", "cli.from_doc", "cli", True)
        method(cli.AnalysisConfig, "build_spec", "cli.build_spec", "cli", True)
        everywhere(cli.main, "cli.main", "cli", True)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters and timers accumulated so far, as one flat dict."""
        snap: dict = dict(self.counts)
        for name, value in self.incl.items():
            snap[f"{name}.incl_s"] = value
        for layer, value in self.layer_self.items():
            snap[f"self_s.{layer}"] = value
        return snap

    def dump(self, path: Path, extra: dict) -> None:
        doc = {
            "spans": [
                {"id": sid, "name": name, "parent": parent, "start": start, "end": end}
                for sid, name, parent, start, end in self.spans
            ],
            "counts": dict(self.counts),
            "inclusive_s": dict(self.incl),
            "self_s": dict(self.layer_self),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def pass_delta(after: dict, before: dict) -> dict:
    keys = set(after) | set(before)
    return {k: after.get(k, 0) - before.get(k, 0) for k in keys}


def reference_times(delta: dict, factor: float) -> dict:
    """Scale every timer of a pass delta from raw to reference seconds."""
    return {k: v * factor if ".incl_s" in k or k.startswith("self_s.") else v for k, v in delta.items()}


def per_layer_metrics(delta: dict, extra: dict) -> dict:
    """Per-layer metrics of one traced pass from its counter delta.

    ``extra`` carries the quantities measured outside the tracer: CLI
    processes per pass, import and process wall time, cache file size and
    structured output size.
    """
    g = delta.get
    evals = g("kernels.radial_condition", 0)
    brackets = g("kernels.bisect_radial", 0)
    roots = g("spectral.roots", 0)
    return {
        "kernels.evals": (evals, "count"),
        "kernels.evals_series": (g("kernels.evals_series", 0), "count"),
        "kernels.evals_recurrence": (g("kernels.evals_recurrence", 0), "count"),
        "kernels.evals_asymptotic": (g("kernels.evals_asymptotic", 0), "count"),
        "kernels.self_s": (g("self_s.kernels", 0.0), "s"),
        "kernels.brackets": (brackets, "count"),
        "kernels.evals_per_bracket": (g("kernels.evals_in_bisect", 0) / brackets if brackets else 0.0, "ratio"),
        "spectral.roots": (roots, "count"),
        "spectral.evals_per_root": (evals / roots if roots else 0.0, "ratio"),
        "spectral.scan_self_s": (g("self_s.spectral.scan", 0.0), "s"),
        "spectral.cache_hits": (g("spectral.cache_hits", 0), "count"),
        "spectral.cache_misses": (g("spectral.cache_misses", 0), "count"),
        "spectral.cache_load_s": (g("spectral.cache_load.incl_s", 0.0), "s"),
        "spectral.cache_save_s": (g("spectral.cache_save.incl_s", 0.0), "s"),
        "spectral.cache_bytes": (extra.get("cache_bytes", 0), "bytes"),
        "spectral.ingest_s": (g("spectral.ingest.incl_s", 0.0), "s"),
        "spectral.ball_tests": (g("spectral.ball_rep_nontrivial", 0), "count"),
        "spectral.ball_test_evals": (g("spectral.ball_test_evals", 0), "count"),
        "system.lambda_set_s": (g("system.lambda_set.incl_s", 0.0), "s"),
        "system.kernel_reps_calls": (g("system.kernel_reps", 0), "count"),
        "system.kernel_reps_s": (g("system.kernel_reps.incl_s", 0.0), "s"),
        "system.membership_s": (g("system.lambda_membership.incl_s", 0.0), "s"),
        "system.entries_lookups": (g("spectral.entries_up_to", 0), "count"),
        "euler.deg_calls": (g("euler.deg_minus_id", 0), "count"),
        "euler.ring_ops": (g("euler.ring.__post_init__", 0), "count"),
        "euler.reps_built": (g("euler.so2rep.__post_init__", 0) + g("spectral.rep_descriptor", 0), "count"),
        "euler.self_s": (g("self_s.euler", 0.0), "s"),
        "bifurcation.candidates": (g("bifurcation.candidates", 0), "count"),
        "bifurcation.self_s": (g("self_s.bifurcation", 0.0), "s"),
        "bifurcation.bif_a9_s": (g("bifurcation.bif_a9.incl_s", 0.0), "s"),
        "bifurcation.check_glob_s": (
            g("bifurcation.check_glob.incl_s", 0.0) + g("bifurcation.check_glob_zero.incl_s", 0.0),
            "s",
        ),
        "bifurcation.unbounded_s": (g("bifurcation.unbounded_verdict.incl_s", 0.0), "s"),
        "bifurcation.subsets": (g("bifurcation.subsets", 0), "count"),
        "cli.processes": (extra.get("processes", 0), "count"),
        "cli.import_s": (extra.get("import_s", 0.0), "s"),
        "cli.process_s": (extra.get("process_s", 0.0), "s"),
        "cli.config_s": (g("cli.from_doc.incl_s", 0.0) + g("cli.build_spec.incl_s", 0.0), "s"),
        "cli.output_bytes": (extra.get("output_bytes", 0), "bytes"),
    }


#: metrics read from _radial_condition calls, which the jitted bisection bypasses
KERNEL_METRICS = (
    "kernels.evals",
    "kernels.evals_series",
    "kernels.evals_recurrence",
    "kernels.evals_asymptotic",
    "kernels.self_s",
    "kernels.brackets",
    "kernels.evals_per_bracket",
    "spectral.evals_per_root",
    "spectral.cache_hits",
    "spectral.cache_misses",
    "spectral.ball_test_evals",
)


def summarize(per_pass: list[dict], numba_enabled: bool) -> tuple[dict, list[str]]:
    """Median of each time over the traced passes; counts must repeat exactly.

    Returns the metrics document and a list of counters that differed between
    passes (empty when the trace is deterministic, as it should be).
    """
    metrics: dict = {}
    unsteady: list[str] = []
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "s":
            v = statistics.median(values)
        else:
            if any(x != values[0] for x in values):
                unsteady.append(name)
            v = values[0]
        if numba_enabled and name in KERNEL_METRICS:
            v = None
        metrics[name] = {"value": v, "unit": unit}
    return metrics, unsteady
