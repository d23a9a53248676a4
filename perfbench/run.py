"""Checked benchmark of symbif: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload disk-spectrum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics ``setup_s``, ``pass_s`` and ``peak_rss_mb``; with
``--trace 1`` it carries the per-layer metrics instead and the spans are
written to ``perfbench/.out/``.  Every operation's output is checked against
computations made apart from symbif (see ``checks.py``).  The exit status is
0 when the run completed, whatever the checks found, and 2 when symbif cannot
be imported from this checkout's ``src`` (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
import workloads
from workloads import WORKLOADS, CliSession, Outcome

HERE = Path(__file__).resolve().parent
OUT = HERE / ".out"
SETUP_REPEATS = 3


def probe_setup(name: str, seed: int) -> float:
    """Set-up time, in reference seconds, of an in-process workload in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=workloads.PROCESS_TIMEOUT_S,
        env=workloads.child_env(),
        check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip().splitlines()[-1].split()[1])


def run_passes(make_ops, seconds: float, on_pass=None):
    """Whole passes of ``make_ops()`` until ``seconds`` have elapsed.

    Returns raw pass seconds, reference pass seconds and the finished outcomes;
    ``on_pass`` gets each pass's outcomes and its reference/raw time factor.
    """
    raw: list[float] = []
    ref: list[float] = []
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while not raw or time.perf_counter() - start < seconds:
        outcomes, dt, dref = speed.timed_ops(make_ops())
        raw.append(dt)
        ref.append(dref)
        outcomes = [o.finish() for o in outcomes]
        if on_pass is not None:
            on_pass(outcomes, dref / dt)
        if passes:
            # only the first pass's outputs are kept, so memory does not grow with the run
            for o, first in zip(outcomes, passes[0]):
                if o.error is None and o.form != first.form:
                    o.error = "output differs from the first pass"
                o.form = None
        passes.append(outcomes)
    return raw, ref, passes


def tally(passes: list[list[Outcome]], problems: list[list[str]], extra: list[Outcome]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations; ``problems`` are the checks of the first pass's outputs."""
    attempted = failed = 0
    notes: list[str] = []
    for p, outcomes in enumerate(passes):
        for i, o in enumerate(outcomes):
            attempted += 1
            why = o.error or ("; ".join(problems[i]) if problems[i] else None)
            if why is not None:
                failed += 1
                notes.append(f"pass {p + 1} {o.name}: {why}")
    for o in extra:
        attempted += 1
        if o.error is not None:
            failed += 1
            notes.append(f"{o.name}: {o.error}")
    return attempted, failed, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    inp = wl.make_inputs(seed)
    speed.pin_to_one_cpu()
    symbif = workloads.import_symbif()
    backend = "numba" if symbif._kernels.NUMBA_ENABLED else "pure-python"
    print(f"workload {name}  seed {seed}  backend {backend} (NUMBA_ENABLED={symbif._kernels.NUMBA_ENABLED})")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        extra_layer: dict = {}
        setup_times: list[float] = []
        if isinstance(wl, CliSession):
            state = wl.write_configs(inp, workdir)
            setup_times = wl.setup(inp, state, 1 if trace else SETUP_REPEATS)
            if trace:
                import_s, raw, ref = speed.timed(lambda: workloads.import_seconds(workdir))
                extra_layer["import_s"] = import_s * ref / raw
                outcomes, raw, ref = speed.timed_ops(wl.ops(state, inp))
                extra_layer["process_s"] = statistics.median(o.wall_s for o in outcomes) * ref / raw
                extra_layer["processes"] = len(state.commands)
                make_ops = lambda: wl.in_process_ops(symbif, state)  # noqa: E731
            else:
                make_ops = lambda: wl.ops(state, inp)  # noqa: E731
        else:
            if not trace:
                setup_times = [probe_setup(name, seed) for _ in range(SETUP_REPEATS)]
            state = wl.setup(inp)
            make_ops = lambda: wl.ops(state, inp)  # noqa: E731

        if trace:
            tracer = tracing.Tracer().install()
            per_pass: list[dict] = []
            snap = [tracer.snapshot()]

            def on_pass(outcomes, factor):
                after = tracer.snapshot()
                delta = tracing.pass_delta(after, snap[0])
                snap[0] = after
                extra = dict(extra_layer)
                if isinstance(wl, CliSession):
                    extra["output_bytes"] = sum(len(o.form or b"") for o in outcomes)
                    extra["cache_bytes"] = state.cache.stat().st_size
                per_pass.append(tracing.per_layer_metrics(tracing.reference_times(delta, factor), extra))

            def traced_ops():
                return [lambda op=op: tracer.spanned(op, "bench.op") for op in make_ops()]

            try:
                raw, times, passes = run_passes(traced_ops, seconds, on_pass)
            finally:
                tracer.uninstall()
            tracer.dump(
                OUT / f"trace-{name}-seed{seed}.json",
                {"workload": name, "seed": seed, "numba_enabled": symbif._kernels.NUMBA_ENABLED},
            )
            metrics, unsteady = tracing.summarize(per_pass, symbif._kernels.NUMBA_ENABLED)
        else:
            raw, times, passes = run_passes(make_ops, seconds)
            if isinstance(wl, CliSession):
                rss_kb = max(o.rss_kb for outcomes in passes for o in outcomes)
            else:
                rss_kb = workloads.peak_rss_self_kb()  # before the checks import scipy and mpmath
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "pass_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            }
            unsteady = []

        problems, extra_ops = wl.check(state, inp, passes[0])
        attempted, failed, notes = tally(passes, problems, extra_ops)
        for note in notes[:20]:
            print(f"FAILED {note}")
        for key in unsteady:
            print(f"FAILED traced count {key} differs between passes")
        mode = "traced" if trace else "untraced"
        print(
            f"{mode} passes: {len(times)}, median {statistics.median(times):.4f} reference s "
            f"({statistics.median(raw):.4f} raw s)"
        )
        if setup_times:
            print(f"set-ups: {len(setup_times)}, median {statistics.median(setup_times):.4f} s")
        for key, m in metrics.items():
            print(f"  {key:28s} {m['value']!s:>22} {m['unit']}")
        print(f"attempted {attempted}  failed {failed}")
        return {
            "correct": failed == 0 and not unsteady,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            inp = wl.make_inputs(args.seed)
            speed.pin_to_one_cpu()
            _, raw, ref = speed.timed(lambda: wl.setup(inp))
            print(raw, ref)
            return 0
        workloads.import_symbif()
    except ImportError as exc:
        print(f"perfbench: cannot import symbif from this checkout: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
