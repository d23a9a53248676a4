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

A process enters through :func:`process_main` (the ``__main__`` block and
the ``symbif`` console script): it runs :func:`main`, which has no
process-level side effects and is what library callers use, and then ends
the process without the interpreter's exit-time garbage collections.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from pathlib import Path

from .errors import (
    COMPUTATIONAL_ERRORS,
    Error,
    SchemaError,
    ValidationError,
    _object,
    _parse_json,
    _real,
    _Record,
    _show,
    _window,
)
from .spectral import DiskDomain, RootCache

__all__ = ["AnalysisConfig", "main", "parse_report", "process_main"]

SCHEMA_VERSION = 1


class AnalysisConfig(_Record):
    """Validated configuration: the system document plus run parameters."""

    _fields = ("system", "window", "output_format", "spectrum_bound")

    def __init__(
        self,
        system: dict | None = None,
        window: tuple[float, float] | None = None,
        output_format: str = "table",
        spectrum_bound: float | None = None,
    ) -> None:
        def real(value, what):
            return _real(value, what, finite=False, error=SchemaError, invalid=ValidationError)

        if window is not None:
            lo, hi = window = tuple(real(w, "window entry") for w in _window(window))
            if not lo < hi:
                raise ValidationError(f"window must satisfy lo < hi, got {window!r}")
        if spectrum_bound is not None and not real(spectrum_bound, "spectrum_bound") > 0.0:
            raise ValidationError(f"spectrum_bound must be positive, got {spectrum_bound!r}")
        if output_format not in ("table", "structured"):
            raise ValidationError(f"output_format must be 'table' or 'structured', got {_show(output_format)}")
        self.system = system
        self.window = window
        self.output_format = output_format
        self.spectrum_bound = spectrum_bound

    @classmethod
    def from_doc(cls, doc) -> "AnalysisConfig":
        _object(doc, "config", {"system", "window", "output_format", "spectrum_bound"})
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


def parse_report(text: str) -> dict:
    """Parse a structured report back into its document form."""
    doc = _parse_json(text, "report")
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("not a structured report (missing or wrong schema_version)")
    return doc


# ---------------------------------------------------------------------------
# subcommand handlers (each returns its report fields and its table text)
# ---------------------------------------------------------------------------


def _require_window(config: AnalysisConfig) -> tuple[float, float]:
    if config.window is None:
        raise ValidationError("this subcommand needs a window (config 'window' or --window LO HI)")
    return config.window


def _cmd_spectrum(config: AnalysisConfig, args, cache) -> tuple[dict, str]:
    bound = config.spectrum_bound
    if bound is None:
        raise ValidationError("spectrum needs --max-eigenvalue or a spectrum_bound in the config")
    domain = DiskDomain(cache=cache) if config.system is None else config.build_spec(cache).domain
    entries = domain.entries_up_to(bound)
    lines = [f"{'eigenvalue':>16}  {'l':>4}  {'root':>4}  rep"]
    for e in entries:
        l = "-" if e.angular_index is None else str(e.angular_index)
        r = "-" if e.root_index is None else str(e.root_index)
        lines.append(f"{e.eigenvalue:16.8f}  {l:>4}  {r:>4}  {e.rep.describe()}")
    return {"entries": [e.to_json() for e in entries]}, "\n".join(lines)


def _cmd_lambda_set(config: AnalysisConfig, args, cache) -> tuple[dict, str]:
    from .system import lambda_set

    spec = config.build_spec(cache)
    window = _require_window(config)
    members = lambda_set(spec, window)
    table = "\n".join(f"{m:.10g}" for m in members) if members else "lambda set: (empty)"
    return {"window": list(window), "lambda_set": members}, table


def _cmd_analyze(config: AnalysisConfig, args, cache) -> tuple[dict, str]:
    from .bifurcation import analyze

    spec = config.build_spec(cache)
    window = _require_window(config)
    verdicts = analyze(spec, window)
    lines = [f"{'lambda0':>14}  {'glob':<12} {'justification':<26} {'unbounded':<10} {'bif':<18} kernel"]
    for v in verdicts:
        kernel = f"V1 = {v.kernel.v1.describe()}; V2 = {v.kernel.v2.describe()}"
        bif = "-" if v.bif_element is None else str(v.bif_element)
        lines.append(f"{v.lambda0:14.6f}  {v.glob:<12} {v.justification:<26} {v.unbounded:<10} {bif:<18} {kernel}")
    if not verdicts:
        lines.append("(no candidate parameters in the window)")
    return {"verdicts": [v.to_json() for v in verdicts]}, "\n".join(lines)


def _cmd_bif(config: AnalysisConfig, args, cache) -> tuple[dict, str]:
    from .bifurcation import _nonzero, bif_a9, bif_difference

    if args.lambda0 is None:
        raise ValidationError("bif needs --lambda")
    spec = config.build_spec(cache)
    if spec.a9:
        element = bif_a9(spec, args.lambda0)
        kind = "a9_closed_form"
    else:
        _nonzero(args.lambda0, "the exact index at 0 needs the normalized block form (a9)")
        element = bif_difference(spec, args.lambda0)
        kind = "normalized_difference"
    fields = {"lambda0": args.lambda0, "kind": kind, "bif": element.to_json()}
    return fields, f"BIF({args.lambda0:g}) [{kind}] = {element}"


def _cmd_rabinowitz(config: AnalysisConfig, args, cache) -> tuple[dict, str]:
    from .bifurcation import _a9_indices, _refuse_subsets, _require_a9_disk, enumerate_zero_sum_subsets
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
            if lams:  # the errors of the first index, then the refusal of too many, before any index
                _require_a9_disk(spec)
                _refuse_subsets(len(lams))
        labelled = list(zip(lams, _a9_indices(spec, lams)))
        if args.enumerate:
            subsets = enumerate_zero_sum_subsets(labelled)
    total = sum((ix for _, ix in labelled), EulerSO2.zero())
    excludes = not total.is_zero()
    indices = [{"lambda0": lam, "bif": ix.to_json()} for lam, ix in labelled]
    listed = {} if subsets is None else {"zero_sum_subsets": subsets}
    fields = {"indices": indices, "sum": total.to_json(), "excludes_bounded": excludes, **listed}
    lines = [f"index sum = {total}", f"excludes bounded continua: {'yes' if excludes else 'no'}"]
    for lam, ix in labelled:
        lines.append(f"  BIF({lam:g}) = {ix}")
    if subsets is not None:
        if subsets:
            lines.append("parameter families with zero index sum (bounded alternative possible):")
            lines.extend("  {" + ", ".join(f"{lam:g}" for lam in s) + "}" for s in subsets)
        else:
            lines.append("no parameter family has zero index sum: every continuum is unbounded")
    return fields, "\n".join(lines)


def _cmd_morse_degree(config: AnalysisConfig, args, cache) -> tuple[dict, str]:
    from .morse import class_table_from_json, degree_from_orbits, lift_degree, orbit_data_from_json

    if not args.orbits:
        raise ValidationError("morse-degree needs --orbits FILE")
    data = orbit_data_from_json(_load_json(args.orbits))
    degree = degree_from_orbits(data)
    lifted = None
    if args.table:
        lifted = lift_degree(degree, class_table_from_json(_load_json(args.table)))
    lines = ["degree:"]
    lines.extend(f"  {cls}: {coeff:+d}" for cls, coeff in sorted(degree.items()))
    if not degree:
        lines.append("  (zero)")
    if lifted is not None:
        lines.append("lifted:")
        lines.extend(f"  {cls}: {coeff:+d}" for cls, coeff in sorted(lifted.items()))
    return {"degree": degree, "lifted": lifted}, "\n".join(lines)


#: a real number as ``float`` spells it
_REAL = r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)"
#: a word that starts with ``-`` and spells one real or a comma-separated list of them
_NEGATIVE_REALS = re.compile(rf"(?=-){_REAL}(?:,{_REAL})*\Z", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other bad input; exit 2 is kept for failed computations.

    A word that starts with ``-`` and reads as reals (``-1e2``, ``-inf``,
    ``-10,5``) is a value, not an option; argparse alone takes only ``-100``
    and ``-1.5`` for negative numbers.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_REALS

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

    def command(name, handler, help):
        """The subparser ``name``, which runs ``handler``."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        return p

    command("spectrum", _cmd_spectrum, "print the Neumann spectrum")
    command("lambda-set", _cmd_lambda_set, "candidate parameters in a window")
    command("analyze", _cmd_analyze, "per-parameter bifurcation verdicts")
    p_bif = command("bif", _cmd_bif, "one bifurcation index element")
    p_bif.add_argument("--lambda", type=float, dest="lambda0", metavar="REAL")
    p_rab = command("rabinowitz", _cmd_rabinowitz, "index-sum exclusion test")
    p_rab.add_argument("--indices", metavar="PATH", help="JSON array of ring elements")
    p_rab.add_argument("--lambdas", metavar="L1,L2,...", help="parameters to index (a9 disk)")
    p_rab.add_argument("--enumerate", action="store_true", help="enumerate zero-sum parameter families")
    p_mor = command("morse-degree", _cmd_morse_degree, "degree from orbit data")
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
    """Run the parsed invocation's handler and print its table or its structured report; returns the exit status."""
    config = AnalysisConfig.from_doc(_load_json(args.config)) if args.config else AnalysisConfig()
    config = AnalysisConfig(  # flags override the document
        config.system,
        config.window if args.window is None else (args.window[0], args.window[1]),
        config.output_format if args.format is None else args.format,
        config.spectrum_bound if args.max_eigenvalue is None else args.max_eigenvalue,
    )
    if args.cache:
        _check_cache_path(args.cache)
        missing = not Path(args.cache).exists()
        cache, stale = RootCache.load(args.cache)
        if stale:
            print(
                f"symbif: note: root cache {args.cache} has mismatched tolerance metadata or malformed "
                "root lists; regenerating",
                file=sys.stderr,
            )
    else:
        cache = RootCache()
    fields, table = args.handler(config, args, cache)
    if config.output_format == "structured":  # deterministic: sorted keys under the schema_version
        payload = json.dumps({"schema_version": SCHEMA_VERSION, **fields}, indent=2, sort_keys=True)
    else:
        payload = table
    if args.cache and (missing or stale or cache.grown):  # a warm run leaves the file alone
        cache.save(args.cache)
    print(payload)
    return 0


def main(argv=None) -> int:
    try:
        if argv is not None and not (isinstance(argv, (list, tuple)) and all(isinstance(w, str) for w in argv)):
            raise ValidationError(f"argv must be a list of strings, got {_show(argv)}")
        return run(_build_parser().parse_args(argv))
    except COMPUTATIONAL_ERRORS as exc:
        print(f"symbif: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Error as exc:
        print(f"symbif: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def process_main() -> int:
    """The ``symbif`` process: ``main()`` on ``sys.argv``, then an exit without shutdown collections.

    ``gc.freeze()`` moves every tracked object to the permanent generation, so
    the collections the interpreter runs at shutdown have nothing to traverse;
    the cycles left are reclaimed by the OS with the process.  atexit handlers
    and the flush of the standard streams still run, and the cache file is
    complete before the payload is printed.  A reader that closes the pipe
    early ends the process with status 1 and no traceback.
    """
    try:
        status = main()
        gc.freeze()
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at shutdown
    except BrokenPipeError:
        # the flush at shutdown would fail again: point stdout at devnull (the note on SIGPIPE in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(process_main())
