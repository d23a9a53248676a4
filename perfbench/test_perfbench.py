"""Tests of the benchmark itself: each check rejects a perturbed output, and the
layer-isolation predictions hold.  Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import tracing
import workloads

symbif = workloads.import_symbif()
import symbif.cli  # noqa: E402  (the package does not import its CLI module)


def small_disk_inputs():
    inp = workloads.DiskSpectrum().make_inputs(7)
    return replace(inp, alpha=300.0, ball_x={3: 30.0, 4: 30.0, 5: 30.0}, alpha_small=120.0, sample=[3, 9])


def small_verdict_inputs():
    inp = workloads.Verdicts().make_inputs(7)
    return replace(inp, windows=[(-100.0, 100.0), (-100.0, 100.0), (-80.0, 80.0)], family_picks=[0, 1, 2, 3, 4])


def run_pass(ops) -> list:
    return [op() for op in ops]


def traced_pass(run_one) -> dict:
    tracer = tracing.Tracer().install()
    try:
        before = tracer.snapshot()
        outcomes = run_one()
        delta = tracing.pass_delta(tracer.snapshot(), before)
    finally:
        tracer.uninstall()
    assert all(o.error is None for o in outcomes)
    return tracing.per_layer_metrics(delta, {})


@pytest.fixture(scope="module")
def disk_forms():
    entries = [e.to_json() for e in symbif.disk_spectrum(300.0)]
    return entries, checks.disk_spectrum_ref(300.0)


def moved(entries: list[dict], i: int, dx: float) -> list[dict]:
    out = copy.deepcopy(entries)
    out[i]["eigenvalue"] = (math.sqrt(out[i]["eigenvalue"]) + dx) ** 2
    return out


class TestRootChecks:
    def test_disk_spectrum_passes(self, disk_forms):
        got, ref = disk_forms
        assert checks.check_disk_entries(got, ref) == []
        assert checks.check_mpmath_sample(got, [1, 7, 20]) == []

    def test_moved_disk_root_is_rejected(self, disk_forms):
        got, ref = disk_forms
        assert checks.check_disk_entries(moved(got, 10, 1e-7), ref)
        assert checks.check_mpmath_sample(moved(got, 7, 1e-7), [7])

    def test_dropped_disk_root_is_rejected(self, disk_forms):
        got, ref = disk_forms
        assert checks.check_disk_entries(got[:10] + got[11:], ref)
        assert checks.check_disk_entries(got[:-1], ref)

    def test_ball_roots(self):
        for n in (3, 4, 5):
            got = symbif.radial_roots_up_to(0, n, 30.0)
            ref = checks.bessel_zeros(n / 2.0, 30.0)
            assert checks.check_roots(got, ref) == []
            assert checks.check_roots([*got[:2], got[2] + 1e-7, *got[3:]], ref)
            assert checks.check_roots(got[:2] + got[3:], ref)

    def test_prefix(self, disk_forms):
        got, _ = disk_forms
        small = [e.to_json() for e in symbif.disk_spectrum(120.0)]
        assert checks.check_prefix(small, got, 120.0) == []
        assert checks.check_prefix(small[:-1], got, 120.0)
        assert checks.check_prefix(moved(small, 4, 1e-7), got, 120.0)


class TestVerdictChecks:
    @pytest.fixture(scope="class")
    def run(self):
        wl = workloads.Verdicts()
        inp = small_verdict_inputs()
        state = wl.setup(inp)
        first = [o.finish() for o in run_pass(wl.ops(state, inp))]
        return wl, inp, state, first

    def test_outputs_pass(self, run):
        wl, inp, state, first = run
        problems, extra = wl.check(state, inp, first)
        assert problems == [[], [], [], []]
        assert extra == []

    def test_changed_ring_element_is_rejected(self, run):
        wl, inp, state, first = run
        bad = copy.deepcopy(first)
        verdict = next(v for v in bad[1].form if v["bif"]["cyclic"])
        k = next(iter(verdict["bif"]["cyclic"]))
        verdict["bif"]["cyclic"][k] += 1
        problems, _ = wl.check(state, inp, bad)
        assert problems[1] and not problems[0]

    def test_changed_unit_or_verdict_is_rejected(self, run):
        wl, inp, state, first = run
        bad = copy.deepcopy(first)
        bad[0].form[3]["bif"]["unit"] += 2
        bad[2].form[5]["glob"] = "Bifurcates" if bad[2].form[5]["glob"] != "Bifurcates" else "Inconclusive"
        problems, _ = wl.check(state, inp, bad)
        assert problems[0] and problems[2]

    def test_zero_sum_subsets(self, run):
        wl, inp, state, first = run
        assert first[3].form, "the family should have zero-sum subsets"
        bad = copy.deepcopy(first)
        bad[3].form.pop()
        assert wl.check(state, inp, bad)[0][3]
        bad = copy.deepcopy(first)
        bad[3].form.append(bad[3].form[0] + [state[2][-1][0]])
        assert wl.check(state, inp, bad)[0][3]


def test_ring_powers_match_repeated_products():
    for u, c in itertools.product((1, -1), ({1: 2}, {2: -3, 5: 1}, {})):
        a = checks.ring(u, c)
        for n in range(-3, 6):
            expected = checks.ring(1)
            step = a if n >= 0 else checks.ring(u, {k: -v for k, v in c.items()})
            for _ in range(abs(n)):
                expected = checks.r_mul(expected, step)
            assert checks.r_pow(a, n) == expected


def test_zero_sum_count_matches_brute_force():
    family = [checks.ring(0, {1: 3}), checks.ring(0, {1: -3}), checks.ring(0), checks.ring(0, {2: 1}), checks.ring(0, {1: 3})]
    brute = 0
    for r in range(1, len(family) + 1):
        for combo in itertools.combinations(family, r):
            total = checks.ring(0)
            for ix in combo:
                total = checks.r_add(total, ix)
            brute += total == checks.ring(0)
    assert checks.zero_sum_count(family) == brute == 5


def test_cache_served_output_byte_check(tmp_path, capsys):
    cache = tmp_path / "roots.json"
    argv = ["spectrum", "--max-eigenvalue", "150", "--format", "structured"]
    outputs = []
    for extra in ([], ["--cache", str(cache)], ["--cache", str(cache)]):
        assert symbif.cli.main(argv + extra) == 0
        outputs.append(capsys.readouterr().out.encode())
    cold, filled, warm = outputs
    assert workloads.check_identical(filled, cold) == []
    assert workloads.check_identical(warm, cold) == []
    flipped = bytearray(warm)
    flipped[len(flipped) // 2] ^= 1
    assert workloads.check_identical(bytes(flipped), cold)
    assert workloads.check_identical(warm + b" ", cold)


def test_cli_session_checks(tmp_path):
    wl = workloads.CliSession()
    inp = replace(wl.make_inputs(7), spectrum_bound=200.0, ball_window=(-60.0, 60.0), ball_x_max=10.0)
    state = wl.write_configs(inp, tmp_path)
    wl.setup(inp, state, 1)
    first = [op().finish() for op in wl.in_process_ops(symbif, state)]
    assert all(o.error is None for o in first)
    problems, cold = wl.check(state, inp, first)
    assert problems == [[], [], [], []]
    assert [o.error for o in cold] == [None] * 4
    doc = json.loads(first[2].form)
    assert any(v["unbounded"] == "Unbounded" for v in doc["verdicts"])
    assert any(v["unbounded"] == "NoVerdict" and v["lambda0"] != 0.0 for v in doc["verdicts"])


class TestLayerIsolation:
    def test_disk_spectrum_touches_no_ring_and_no_verdict(self):
        wl = workloads.DiskSpectrum()
        inp = small_disk_inputs()
        metrics = traced_pass(lambda: run_pass(wl.ops(symbif, inp)))
        assert metrics["kernels.evals"][0] > 0
        assert metrics["euler.ring_ops"][0] == 0
        assert metrics["bifurcation.candidates"][0] == 0

    def test_verdicts_make_no_kernel_evaluation(self):
        wl = workloads.Verdicts()
        inp = small_verdict_inputs()
        state = wl.setup(inp)
        metrics = traced_pass(lambda: run_pass(wl.ops(state, inp)))
        assert metrics["kernels.evals"][0] == 0
        assert metrics["bifurcation.candidates"][0] > 0
        assert metrics["euler.ring_ops"][0] > 0

    def test_traced_counts_repeat_and_tracer_restores_symbif(self):
        wl = workloads.Verdicts()
        inp = small_verdict_inputs()
        state = wl.setup(inp)
        runs = [traced_pass(lambda: run_pass(wl.ops(state, inp))) for _ in range(2)]
        _, unsteady = tracing.summarize(runs, numba_enabled=False)
        assert unsteady == []
        assert symbif.analyze.__module__ == "symbif.bifurcation"
        assert not hasattr(symbif.analyze, "__wrapped__")
        assert not hasattr(symbif.EulerSO2.__add__, "__wrapped__")


def test_stripped_checkout_fails_without_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = [sys.executable, "perfbench/run.py", "--workload", "disk-spectrum", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv + ["--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
