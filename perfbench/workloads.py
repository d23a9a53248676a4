"""The three workloads: seeded inputs, set-up, one pass of operations, and checks.

A workload turns ``--seed`` into plain inputs (``make_inputs``), turns those
into program objects (``setup``), and lists one pass's operations (``ops``),
each a thunk that returns an :class:`Outcome`.  Every
operation's output is reduced to a comparable form; the first pass's forms
are checked against the computations of :mod:`checks`, and every later pass
must reproduce them exactly.  symbif is only ever reached through module
attributes (``symbif.analyze``, ...) so that the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROCESS_TIMEOUT_S = 60.0
#: relative spread of seeded sizes: seeds vary the inputs, not the amount of work
JITTER = 0.0025


def import_symbif():
    """Import symbif from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import symbif

    if Path(symbif.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"symbif was imported from {symbif.__file__}, not from {SRC}")
    return symbif


@dataclass
class Outcome:
    """One operation of a pass: its comparable output form, or why it failed.

    Library calls keep their raw result until :meth:`finish` converts it, so
    the conversion stays out of the timed pass.
    """

    name: str
    form: object = None
    error: str | None = None
    rss_kb: int = 0
    wall_s: float = 0.0
    value: object = None
    convert: object = None

    def finish(self) -> "Outcome":
        if self.convert is not None and self.error is None:
            self.form = self.convert(self.value)
        self.value = self.convert = None
        return self


def call(name: str, fn, convert) -> Outcome:
    try:
        return Outcome(name, value=fn(), convert=convert)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(name, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# disk-spectrum
# ---------------------------------------------------------------------------


@dataclass
class DiskInputs:
    alpha: float  # past 3600, so arguments reach the asymptotic band x >= 60
    ball_x: dict[int, float]
    alpha_small: float
    sample: list[int]


class DiskSpectrum:
    """disk_spectrum(alpha) with no cache, plus the trivial-type ball roots for N = 3, 4, 5."""

    name = "disk-spectrum"

    def make_inputs(self, seed: int) -> DiskInputs:
        rng = random.Random(f"disk-spectrum:{seed}")
        return DiskInputs(
            alpha=4000.0 * (1.0 + rng.uniform(-JITTER, JITTER)),
            ball_x={n: 150.0 + rng.uniform(0.0, 1.0) for n in (3, 4, 5)},
            alpha_small=rng.uniform(600.0, 900.0),
            sample=sorted(rng.sample(range(1, 400), 6)),
        )

    def setup(self, inp: DiskInputs):
        return import_symbif()

    def ops(self, symbif, inp: DiskInputs) -> list:
        out = [lambda: call("disk_spectrum", lambda: symbif.disk_spectrum(inp.alpha), _entries_form)]
        for n, x in inp.ball_x.items():
            out.append(
                lambda n=n, x=x: call(f"ball_roots_N{n}", lambda: symbif.radial_roots_up_to(0, n, x), list)
            )
        return out

    def check(self, symbif, inp: DiskInputs, first: list[Outcome]) -> tuple[list[list[str]], list[Outcome]]:
        """Problems per operation of the first pass, and the run's extra operations."""
        ref = checks.disk_spectrum_ref(inp.alpha)
        problems = []
        for o in first:
            if o.error is not None:
                problems.append([])  # already failed
            elif o.name == "disk_spectrum":
                problems.append(checks.check_disk_entries(o.form, ref) + checks.check_mpmath_sample(o.form, inp.sample))
            else:
                n = int(o.name[-1])
                problems.append(checks.check_roots(o.form, checks.bessel_zeros(n / 2.0, inp.ball_x[n])))
        prefix = call("disk_spectrum_prefix", lambda: symbif.disk_spectrum(inp.alpha_small), _entries_form).finish()
        if prefix.error is None and first[0].error is None:
            bad = checks.check_prefix(prefix.form, first[0].form, inp.alpha_small)
            prefix.error = "; ".join(bad) or None
        return problems, [prefix]


def _entries_form(entries) -> list[dict]:
    return [e.to_json() for e in entries]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class VerdictInputs:
    specs: list[checks.SpecModel]
    windows: list[tuple[float, float]]
    family_l: tuple[int, ...]  # angular indices the subset family is drawn from
    family_picks: list[int]  # positions among those eigenvalues, ascending


class Verdicts:
    """analyze() on three disk specs over a spectrum built in set-up, plus zero-sum subsets."""

    name = "verdicts"
    family_size = 14  # 2^14 subsets; the package refuses more than 20 members

    def make_inputs(self, seed: int) -> VerdictInputs:
        rng = random.Random(f"verdicts:{seed}")

        def jitter() -> float:
            return 1.0 + rng.uniform(-JITTER, JITTER)

        def frac() -> float:
            return rng.randrange(0, 4) / 4096.0

        a9_even = checks.SpecModel(p1=2, p2=2, b1={1: 2}, b2={1: 2}, mu_b0=0, a9=True)
        a9_odd = checks.SpecModel(p1=4, p2=1, b1={0: 1, 1: 3}, b2={1: 1}, mu_b0=1, a9=True)
        general = checks.SpecModel(
            p1=2,
            p2=3,
            b1={0.5 + frac(): 1, -(0.75 + frac()): 1},
            b2={1.25 + frac(): 2, -(0.375 + frac()): 1},
        )
        w1, w2, w3 = 1200.0 * jitter(), 1200.0 * jitter(), 800.0 * jitter()
        return VerdictInputs(
            specs=[a9_even, a9_odd, general],
            windows=[(-w1, w1), (-w2, w2), (-w3, w3)],
            family_l=(1, 2, 3),
            family_picks=sorted(rng.sample(range(30), self.family_size)),
        )

    def coverage(self, inp: VerdictInputs) -> float:
        return max(s.coverage(w) for s, w in zip(inp.specs, inp.windows)) * 1.001 + 1.0

    def setup(self, inp: VerdictInputs):
        symbif = import_symbif()
        domain = symbif.DiskDomain()
        entries = domain.entries_up_to(self.coverage(inp))
        specs = [
            symbif.SystemSpec(
                p1=s.p1, p2=s.p2, sigma_b1=dict(s.b1), sigma_b2=dict(s.b2), mu_b0=s.mu_b0, domain=domain, a9=s.a9
            )
            for s in inp.specs
        ]
        pool = [e.eigenvalue for e in entries if e.angular_index in inp.family_l]
        family = [(pool[i], symbif.bif_a9(specs[1], pool[i])) for i in inp.family_picks]
        return symbif, specs, family

    def ops(self, state, inp: VerdictInputs) -> list:
        symbif, specs, family = state
        out = [
            lambda i=i, s=s, w=w: call(f"analyze_{i}", lambda: symbif.analyze(s, w), _verdicts_form)
            for i, (s, w) in enumerate(zip(specs, inp.windows))
        ]
        out.append(
            lambda: call(
                "zero_sum_subsets", lambda: symbif.enumerate_zero_sum_subsets(family), lambda r: [list(t) for t in r]
            )
        )
        return out

    def check(self, state, inp: VerdictInputs, first: list[Outcome]) -> tuple[list[list[str]], list[Outcome]]:
        _, _, family = state
        spectrum = checks.disk_spectrum_ref(self.coverage(inp))
        models = [checks.VerdictModel(s, spectrum, exact=s.a9) for s in inp.specs]
        problems = [
            [] if o.error else checks.check_verdicts(o.form, m.verdicts(w), exact=m.exact)
            for o, m, w in zip(first, models, inp.windows)
        ]
        family_json = [(lam, ix.to_json()) for lam, ix in family]
        problems.append([] if first[3].error else checks.check_zero_sum(family_json, first[3].form, models[1]))
        return problems, []


def _verdicts_form(verdicts) -> list[dict]:
    return [v.to_json() for v in verdicts]


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


@dataclass
class CliInputs:
    spectrum_bound: float
    disk_window: tuple[float, float]
    ball_window: tuple[float, float]
    rabinowitz_window: tuple[float, float]
    ball_x_max: float = 22.0
    #: q1 = p2 = 2, analyzed on the disk and on the ball
    a9_spec: checks.SpecModel = field(
        default_factory=lambda: checks.SpecModel(p1=2, p2=2, b1={1: 2}, b2={1: 2}, a9=True)
    )
    rabinowitz_spec: checks.SpecModel = field(
        default_factory=lambda: checks.SpecModel(p1=4, p2=1, b1={0: 1, 1: 3}, b2={1: 1}, mu_b0=1, a9=True)
    )


@dataclass
class CliState:
    workdir: Path
    cache: Path
    commands: list[tuple[str, list[str]]]
    ball_docs: list[dict]


class CliSession:
    """Fresh ``python -m symbif.cli`` processes sharing one root cache file."""

    name = "cli-session"

    def make_inputs(self, seed: int) -> CliInputs:
        rng = random.Random(f"cli-session:{seed}")
        w = 250.0 * (1.0 + rng.uniform(-JITTER, JITTER))
        b = 375.0 * (1.0 + rng.uniform(-JITTER, JITTER))
        return CliInputs(
            spectrum_bound=1500.0 * (1.0 + rng.uniform(-JITTER, JITTER)),
            disk_window=(-w, w),
            ball_window=(-b, b),
            rabinowitz_window=(-12.0 + rng.uniform(-0.25, 0.25), 48.0 + rng.uniform(0.0, 0.5)),
        )

    def write_configs(self, inp: CliInputs, workdir: Path) -> CliState:
        """Config files and the command list of one session (input generation, untimed)."""
        ball_docs = checks.ball3_spectrum_doc(inp.ball_x_max)
        configs = {
            "disk.json": {"system": inp.a9_spec.to_doc({"type": "disk"}), "window": list(inp.disk_window)},
            "ball.json": {
                "system": inp.a9_spec.to_doc({"type": "ball", "dim": 3, "entries": ball_docs}),
                "window": list(inp.ball_window),
            },
            "rabinowitz.json": {
                "system": inp.rabinowitz_spec.to_doc({"type": "disk"}),
                "window": list(inp.rabinowitz_window),
            },
        }
        for fname, doc in configs.items():
            (workdir / fname).write_text(json.dumps(doc), encoding="utf-8")
        common = ["--format", "structured"]
        commands = [
            ("spectrum", ["spectrum", "--max-eigenvalue", repr(inp.spectrum_bound), *common]),
            ("analyze_disk", ["analyze", "--config", str(workdir / "disk.json"), *common]),
            ("analyze_ball", ["analyze", "--config", str(workdir / "ball.json"), *common]),
            ("rabinowitz", ["rabinowitz", "--config", str(workdir / "rabinowitz.json"), "--enumerate", *common]),
        ]
        return CliState(workdir, workdir / "roots-cache.json", commands, ball_docs)

    def process_ops(self, state: CliState, cache: Path | None, warm: bool) -> list:
        """Every command as a fresh process; in a warm session, changing the cache is a failure."""

        def run(name: str, argv: list[str]) -> Outcome:
            before = _digest(cache) if warm else None
            o = run_cli_process(name, argv + (["--cache", str(cache)] if cache else []), state.workdir)
            if o.error is None and warm and _digest(cache) != before:
                o.error = "the process changed a cache it only read from"
            return o

        return [lambda name=name, argv=argv: run(name, argv) for name, argv in state.commands]

    def session(self, state: CliState, cache: Path | None, warm: bool) -> list[Outcome]:
        return [op() for op in self.process_ops(state, cache, warm)]

    def setup(self, inp: CliInputs, state: CliState, repeats: int) -> list[float]:
        """Cold sessions, each starting with no cache file; the last one's file stays.

        Returns each session's time in reference seconds (see :mod:`speed`).
        """
        times = []
        for _ in range(repeats):
            state.cache.unlink(missing_ok=True)
            outcomes, _, ref = speed.timed_ops(self.process_ops(state, state.cache, warm=False))
            times.append(ref)
            for o in outcomes:
                if o.error:
                    raise RuntimeError(f"cold session: {o.name}: {o.error}")
        return times

    def ops(self, state: CliState, inp: CliInputs) -> list:
        return self.process_ops(state, state.cache, warm=True)

    def in_process_ops(self, symbif, state: CliState) -> list:
        """The same pass through ``symbif.cli.main(argv)`` in this process, for the traced run."""
        import contextlib
        import io

        import symbif.cli  # noqa: F401  (not imported by the package itself)

        def run(name: str, argv: list[str]) -> Outcome:
            before = _digest(state.cache)
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = symbif.cli.main(argv + ["--cache", str(state.cache)])
            except Exception as exc:
                return Outcome(name, error=f"{type(exc).__name__}: {exc}")
            o = Outcome(name, form=buf.getvalue().encode())
            if code != 0:
                o.error = f"exit status {code}"
            elif _digest(state.cache) != before:
                o.error = "the call changed a cache it only read from"
            return o

        return [lambda name=name, argv=argv: run(name, argv) for name, argv in state.commands]

    def check(self, state: CliState, inp: CliInputs, first: list[Outcome]) -> tuple[list[list[str]], list[Outcome]]:
        """Byte identity with no-cache runs, and those runs against the references."""
        cold = self.session(state, None, warm=False)
        by_name = {o.name: o for o in cold}
        disk = checks.disk_spectrum_ref(
            max(
                inp.spectrum_bound,
                inp.a9_spec.coverage(inp.disk_window),
                inp.rabinowitz_spec.coverage(inp.rabinowitz_window),
            )
            * 1.001
            + 1.0
        )
        trivial = checks.trivial_type_ball3(inp.ball_x_max**2)
        ball = checks.supplied_spectrum_ref(state.ball_docs, trivial)
        independent = {
            "spectrum": lambda doc: checks.check_disk_entries(
                doc["entries"], [e for e in disk if e.alpha <= inp.spectrum_bound]
            ),
            "analyze_disk": lambda doc: checks.check_verdicts(
                doc["verdicts"],
                checks.VerdictModel(inp.a9_spec, disk, exact=True).verdicts(inp.disk_window),
                exact=True,
            ),
            "analyze_ball": lambda doc: checks.check_verdicts(
                doc["verdicts"],
                checks.VerdictModel(inp.a9_spec, ball, exact=False).verdicts(inp.ball_window),
                exact=False,
            ),
            "rabinowitz": lambda doc: checks.check_rabinowitz(
                doc, checks.VerdictModel(inp.rabinowitz_spec, disk, exact=True), inp.rabinowitz_window
            ),
        }
        for o in cold:
            if o.error is None:
                o.error = "; ".join(independent[o.name](json.loads(o.form))) or None
        problems = []
        for o in first:
            ref = by_name[o.name]
            if o.error is not None:
                problems.append([])  # already failed
            elif ref.error is not None:
                problems.append([f"no-cache run failed: {ref.error}"])
            else:
                problems.append(check_identical(o.form, ref.form))
        return problems, cold


def check_identical(got: bytes, ref: bytes) -> list[str]:
    """Output served with a cache must be byte-identical to the output computed without one."""
    if got == ref:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, ref)) if a != b), min(len(got), len(ref)))
    return [f"output differs from the no-cache run at byte {at} ({len(got)} vs {len(ref)} bytes)"]


def _digest(path: Path | None) -> str | None:
    if path is None or not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], cwd: Path) -> tuple[bytes, str, int, int, float]:
    """Run a child to completion: (stdout, stderr, exit code, peak RSS in KiB, wall seconds).

    The child is reaped with ``os.wait4`` so its own peak RSS is known, and
    killed if it outlives PROCESS_TIMEOUT_S.
    """
    err_path = cwd / f"stderr-{os.getpid()}.txt"
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return out, stderr, proc.returncode, usage.ru_maxrss, wall


def run_cli_process(name: str, argv: list[str], cwd: Path) -> Outcome:
    out, err, code, rss, wall = run_process([sys.executable, "-m", "symbif.cli", *argv], cwd)
    o = Outcome(name, form=out, rss_kb=rss, wall_s=wall)
    if code != 0:
        o.error = f"exit status {code}: {err.strip()[-300:]}"
    return o


def import_seconds(cwd: Path, repeats: int = 3) -> float:
    """Median wall time of a process that only imports symbif."""
    times = []
    for _ in range(repeats):
        _, err, code, _, wall = run_process([sys.executable, "-c", "import symbif"], cwd)
        if code != 0:
            raise RuntimeError(f"import symbif failed: {err.strip()[-300:]}")
        times.append(wall)
    return statistics.median(times)


def peak_rss_self_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (DiskSpectrum(), Verdicts(), CliSession())}
