"""Config-driven command line interface.

One JSON configuration document drives every subcommand; flags override the
corresponding document fields so a run can be archived as a single file.
Structured output is deterministic JSON (sorted keys) versioned with a
top-level ``schema_version``; exit status is 0 on success, 1 on usage and
validation errors and 2 on computational errors (failed root refinement,
spectrum too short for the request).

Each subcommand imports the modules it calls when it runs, so a process
loads only those: ``spectrum`` on a warm cache needs neither the system
model nor the kernels.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    COMPUTATIONAL_ERRORS,
    Error,
    PreconditionError,
    SchemaError,
    ValidationError,
    _parse_json,
    _real,
    _repr,
    _show,
)
from .spectral import DiskDomain, RootCache

__all__ = ["AnalysisConfig", "main", "parse_report"]

SCHEMA_VERSION = 1
SUBCOMMANDS = ("spectrum", "lambda-set", "analyze", "bif", "rabinowitz", "morse-degree")


class AnalysisConfig:
    """Validated configuration: the system document plus run parameters."""

    def __init__(
        self,
        system: dict | None = None,
        window: tuple[float, float] | None = None,
        output_format: str = "table",
        spectrum_bound: float | None = None,
    ) -> None:
        self.system = system
        self.window = window
        self.output_format = output_format
        self.spectrum_bound = spectrum_bound
        self.__post_init__()

    def __post_init__(self) -> None:
        def real(value, what):
            return _real(value, what, finite=False, error=SchemaError, invalid=ValidationError)

        if self.window is not None:
            lo, hi = self.window = tuple(real(w, "window entry") for w in self.window)
            if not lo < hi:
                raise ValidationError(f"window must satisfy lo < hi, got {self.window!r}")
        if self.spectrum_bound is not None and not real(self.spectrum_bound, "spectrum_bound") > 0.0:
            raise ValidationError(f"spectrum_bound must be positive, got {self.spectrum_bound!r}")
        if self.output_format not in ("table", "structured"):
            raise ValidationError(f"output_format must be 'table' or 'structured', got {_show(self.output_format)}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.system, self.window, self.output_format, self.spectrum_bound) == (
            other.system, other.window, other.output_format, other.spectrum_bound
        )

    def __repr__(self) -> str:
        return _repr(self, "system", "window", "output_format", "spectrum_bound")

    @classmethod
    def from_doc(cls, doc) -> "AnalysisConfig":
        if not isinstance(doc, dict):
            raise SchemaError(f"config must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"system", "window", "output_format", "spectrum_bound"}
        if unknown:
            raise SchemaError(f"unknown keys in config: {sorted(unknown)}")
        window = doc.get("window")
        if window is not None and (not isinstance(window, list) or len(window) != 2):
            raise SchemaError(f"window must be [lo, hi], got {_show(window)}")
        return cls(
            system=doc.get("system"),
            window=window,
            output_format=doc.get("output_format", "table"),
            spectrum_bound=doc.get("spectrum_bound"),
        )

    def build_spec(self, cache: RootCache):
        """The :class:`~symbif.system.SystemSpec` of the ``system`` document, its domain on ``cache``."""
        if self.system is None:
            raise ValidationError("this subcommand needs a 'system' document in the config")
        from .system import system_spec_from_json

        return system_spec_from_json(self.system, spectrum_bound=self.spectrum_bound, cache=cache)


def _load_json(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return _parse_json(data, path)


def _emit(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_report(text: str) -> dict:
    """Parse a structured report back into its document form."""
    doc = _parse_json(text, "report")
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("not a structured report (missing or wrong schema_version)")
    return doc


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the stdout payload)
# ---------------------------------------------------------------------------


def _require_window(config: AnalysisConfig) -> tuple[float, float]:
    if config.window is None:
        raise ValidationError("this subcommand needs a window (config 'window' or --window LO HI)")
    return config.window


def _cmd_spectrum(config: AnalysisConfig, args, cache) -> str:
    bound = config.spectrum_bound
    if bound is None:
        raise ValidationError("spectrum needs --max-eigenvalue or a spectrum_bound in the config")
    if config.system is not None:
        domain = config.build_spec(cache).domain
    else:
        domain = DiskDomain(cache=cache)
    entries = domain.entries_up_to(bound)
    if config.output_format == "structured":
        return _emit({"schema_version": SCHEMA_VERSION, "entries": [e.to_json() for e in entries]})
    lines = [f"{'eigenvalue':>16}  {'l':>4}  {'root':>4}  rep"]
    for e in entries:
        l = "-" if e.angular_index is None else str(e.angular_index)
        r = "-" if e.root_index is None else str(e.root_index)
        lines.append(f"{e.eigenvalue:16.8f}  {l:>4}  {r:>4}  {e.rep.describe()}")
    return "\n".join(lines)


def _cmd_lambda_set(config: AnalysisConfig, args, cache) -> str:
    from .system import lambda_set

    spec = config.build_spec(cache)
    window = _require_window(config)
    members = lambda_set(spec, window)
    if config.output_format == "structured":
        return _emit(
            {"schema_version": SCHEMA_VERSION, "window": list(window), "lambda_set": members}
        )
    if not members:
        return "lambda set: (empty)"
    return "\n".join(f"{m:.10g}" for m in members)


def _cmd_analyze(config: AnalysisConfig, args, cache) -> str:
    from .bifurcation import analyze

    spec = config.build_spec(cache)
    window = _require_window(config)
    verdicts = analyze(spec, window)
    if config.output_format == "structured":
        return _emit(
            {"schema_version": SCHEMA_VERSION, "verdicts": [v.to_json() for v in verdicts]}
        )
    lines = [f"{'lambda0':>14}  {'glob':<12} {'justification':<26} {'unbounded':<10} {'bif':<18} kernel"]
    for v in verdicts:
        kernel = f"V1 = {v.kernel.v1.describe()}; V2 = {v.kernel.v2.describe()}"
        bif = "-" if v.bif_element is None else str(v.bif_element)
        lines.append(
            f"{v.lambda0:14.6f}  {v.glob:<12} {v.justification:<26} {v.unbounded:<10} {bif:<18} {kernel}"
        )
    if not verdicts:
        lines.append("(no candidate parameters in the window)")
    return "\n".join(lines)


def _cmd_bif(config: AnalysisConfig, args, cache) -> str:
    from .bifurcation import bif_a9, bif_difference

    if args.lambda0 is None:
        raise ValidationError("bif needs --lambda")
    spec = config.build_spec(cache)
    if spec.a9:
        element = bif_a9(spec, args.lambda0)
        kind = "a9_closed_form"
    else:
        if args.lambda0 == 0.0:
            raise PreconditionError("the exact index at 0 needs the normalized block form (a9)")
        element = bif_difference(spec, args.lambda0)
        kind = "normalized_difference"
    if config.output_format == "structured":
        return _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "lambda0": args.lambda0,
                "kind": kind,
                "bif": element.to_json(),
            }
        )
    return f"BIF({args.lambda0:g}) [{kind}] = {element}"


def _cmd_rabinowitz(config: AnalysisConfig, args, cache) -> str:
    from .bifurcation import bif_a9, enumerate_zero_sum_subsets, rabinowitz_excludes_bounded
    from .euler import EulerSO2
    from .system import lambda_set

    modes = sum(1 for flag in (args.indices, args.lambdas, args.enumerate) if flag)
    if modes != 1:
        raise ValidationError("rabinowitz needs exactly one of --indices, --lambdas, --enumerate")
    subsets = None
    if args.indices:
        doc = _load_json(args.indices)
        if not isinstance(doc, list):
            raise SchemaError("--indices file must hold an array of ring elements")
        labelled = [(float(i), EulerSO2.from_json(item)) for i, item in enumerate(doc)]
    else:
        spec = config.build_spec(cache)
        if args.lambdas:
            try:
                lams = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
            except ValueError as exc:
                raise ValidationError(f"--lambdas: {exc}") from None
        else:
            lams = lambda_set(spec, _require_window(config))
        labelled = [(lam, bif_a9(spec, lam)) for lam in lams]
        if args.enumerate:
            subsets = enumerate_zero_sum_subsets(labelled)
    total = EulerSO2.zero()
    for _, ix in labelled:
        total = total + ix
    excludes = rabinowitz_excludes_bounded(ix for _, ix in labelled)
    if config.output_format == "structured":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "indices": [{"lambda0": lam, "bif": ix.to_json()} for lam, ix in labelled],
            "sum": total.to_json(),
            "excludes_bounded": excludes,
        }
        if subsets is not None:
            doc["zero_sum_subsets"] = [list(s) for s in subsets]
        return _emit(doc)
    lines = [f"index sum = {total}", f"excludes bounded continua: {'yes' if excludes else 'no'}"]
    for lam, ix in labelled:
        lines.append(f"  BIF({lam:g}) = {ix}")
    if subsets is not None:
        if subsets:
            lines.append("parameter families with zero index sum (bounded alternative possible):")
            lines.extend("  {" + ", ".join(f"{lam:g}" for lam in s) + "}" for s in subsets)
        else:
            lines.append("no parameter family has zero index sum: every continuum is unbounded")
    return "\n".join(lines)


def _cmd_morse_degree(config: AnalysisConfig, args, cache) -> str:
    from .morse import class_table_from_json, degree_from_orbits, lift_degree, orbit_data_from_json

    if not args.orbits:
        raise ValidationError("morse-degree needs --orbits FILE")
    data = orbit_data_from_json(_load_json(args.orbits))
    degree = degree_from_orbits(data)
    lifted = None
    if args.table:
        lifted = lift_degree(degree, class_table_from_json(_load_json(args.table)))
    if config.output_format == "structured":
        return _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "degree": dict(sorted(degree.items())),
                "lifted": None if lifted is None else dict(sorted(lifted.items())),
            }
        )
    lines = ["degree:"]
    lines.extend(f"  {cls}: {coeff:+d}" for cls, coeff in sorted(degree.items()))
    if not degree:
        lines.append("  (zero)")
    if lifted is not None:
        lines.append("lifted:")
        lines.extend(f"  {cls}: {coeff:+d}" for cls, coeff in sorted(lifted.items()))
    return "\n".join(lines)


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "lambda-set": _cmd_lambda_set,
    "analyze": _cmd_analyze,
    "bif": _cmd_bif,
    "rabinowitz": _cmd_rabinowitz,
    "morse-degree": _cmd_morse_degree,
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other bad input; exit 2 is kept for failed computations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration document")
    common.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"))
    common.add_argument("--format", choices=("table", "structured"), dest="format")
    common.add_argument("--max-eigenvalue", type=float, dest="max_eigenvalue")
    common.add_argument("--cache", metavar="PATH", help="root cache file")

    parser = _Parser(
        prog="symbif",
        description="Bifurcation certificates for symmetric elliptic systems",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("spectrum", parents=[common], help="print the Neumann spectrum")
    sub.add_parser("lambda-set", parents=[common], help="candidate parameters in a window")
    sub.add_parser("analyze", parents=[common], help="per-parameter bifurcation verdicts")
    p_bif = sub.add_parser("bif", parents=[common], help="one bifurcation index element")
    p_bif.add_argument("--lambda", type=float, dest="lambda0", metavar="REAL")
    p_rab = sub.add_parser("rabinowitz", parents=[common], help="index-sum exclusion test")
    p_rab.add_argument("--indices", metavar="PATH", help="JSON array of ring elements")
    p_rab.add_argument("--lambdas", metavar="L1,L2,...", help="parameters to index (a9 disk)")
    p_rab.add_argument("--enumerate", action="store_true", help="enumerate zero-sum parameter families")
    p_mor = sub.add_parser("morse-degree", parents=[common], help="degree from orbit data")
    p_mor.add_argument("--orbits", metavar="PATH", help="orbit data document")
    p_mor.add_argument("--table", metavar="PATH", help="class table document")
    return parser


def _check_cache_path(path: str) -> None:
    """ValidationError unless a cache file can be kept at ``path``, before any root is computed."""
    target = Path(path)
    if target.is_dir():
        raise ValidationError(f"--cache {path} is a directory, not a file")
    if not target.parent.is_dir():
        raise ValidationError(f"--cache {path}: the directory {target.parent} does not exist")


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed invocation; returns the process exit status."""
    config = AnalysisConfig.from_doc(_load_json(args.config)) if args.config else AnalysisConfig()
    if args.window is not None or args.format is not None or args.max_eigenvalue is not None:
        config = AnalysisConfig(  # flags override the document
            config.system,
            config.window if args.window is None else (args.window[0], args.window[1]),
            config.output_format if args.format is None else args.format,
            config.spectrum_bound if args.max_eigenvalue is None else args.max_eigenvalue,
        )
    if args.cache:
        _check_cache_path(args.cache)
        cache, stale = RootCache.load(args.cache)
        if stale:
            print(
                f"symbif: note: root cache {args.cache} has mismatched tolerance metadata or malformed "
                "root lists; regenerating",
                file=sys.stderr,
            )
    else:
        cache = RootCache()
    payload = _HANDLERS[args.subcommand](config, args, cache)
    if args.cache:
        cache.save(args.cache)
    print(payload)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except COMPUTATIONAL_ERRORS as exc:
        print(f"symbif: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Error as exc:
        print(f"symbif: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
