import ast
import errno
import gc
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symbif
import symbif.bifurcation
import symbif.system
from symbif import DomainError, SchemaError, ValidationError
from symbif.cli import main, parse_report, process_main

from oracles import ball3_spectrum

ALPHA2 = 3.3899577166932745  # close enough for --lambda matching (1e-8 relative)
#: sha256 of the cache file a cold ``spectrum --max-eigenvalue 100 --cache FILE`` writes
SPECTRUM_100_CACHE_SHA256 = "66f03a0d34391324cd57b9473e17ad506c10f7fb2f3a9c4fa94169899daececa"

A9_SYSTEM = {
    "p1": 2,
    "p2": 0,
    "b1": [{"value": 1, "mult": 2}],
    "b2": [],
    "mu_b0": 0,
    "domain": {"type": "disk"},
    "a9": True,
}


@pytest.fixture
def a9_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": A9_SYSTEM, "window": [-1.0, 15.0]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_table_output(self, capsys, a9_config):
        code, out, err = run_cli(capsys, "analyze", "--config", a9_config)
        assert code == 0
        assert "Bifurcates" in out
        assert "3.389958" in out

    def test_structured_round_trip(self, capsys, a9_config):
        code, out, _ = run_cli(capsys, "analyze", "--config", a9_config, "--format", "structured")
        assert code == 0
        doc = parse_report(out)
        assert doc["schema_version"] == 1
        assert len(doc["verdicts"]) == 4
        assert json.dumps(doc, indent=2, sort_keys=True) == out.rstrip("\n")

    def test_deterministic_bytes(self, capsys, a9_config):
        _, out1, _ = run_cli(capsys, "analyze", "--config", a9_config, "--format", "structured")
        _, out2, _ = run_cli(capsys, "analyze", "--config", a9_config, "--format", "structured")
        assert out1 == out2

    def test_window_flag_overrides(self, capsys, a9_config):
        code, out, _ = run_cli(
            capsys, "analyze", "--config", a9_config, "--window", "0.5", "1.0", "--format", "structured"
        )
        assert code == 0
        assert parse_report(out)["verdicts"] == []

    def test_insufficient_spectrum_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"system": A9_SYSTEM, "window": [0.0, 100.0], "spectrum_bound": 20.0})
        )
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "InsufficientSpectrum" in err

    def test_block_pairing_only_below_zero_needs_no_spectrum_above(self, capsys, tmp_path):
        # B2's b = 5 pairs with parameters -alpha/5 only, so the window (-1, 10)
        # reaches the spectrum up to 10 and the bound 20 suffices for analyze
        # as for lambda-set, and for bif at a member
        system = {**A9_SYSTEM, "p1": 1, "p2": 1, "b1": [{"value": 1, "mult": 1}], "b2": [{"value": 5, "mult": 1}]}
        system["a9"] = False
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": system, "window": [-1.0, 10.0]}))
        bounded = ("--max-eigenvalue", "20", "--format", "structured")
        code, out, err = run_cli(capsys, "lambda-set", "--config", str(cfg), *bounded)
        assert (code, err) == (0, "") and len(parse_report(out)["lambda_set"]) == 4
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg), *bounded)
        assert (code, err) == (0, "")
        _, unbounded, _ = run_cli(capsys, "analyze", "--config", str(cfg), "--format", "structured")
        assert out == unbounded and len(parse_report(out)["verdicts"]) == 4
        code, out, err = run_cli(capsys, "bif", "--config", str(cfg), "--lambda", "9.328363", *bounded)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("value", ["1e999", "-1e999", "1" + "0" * 400], ids=["inf", "neg-inf", "int-beyond-float"])
    def test_non_finite_block_eigenvalue_is_exit_1(self, capsys, tmp_path, value):
        # refused as input, not carried into a spectrum request up to inf
        # (exit 2) or into float arithmetic that overflows (a traceback)
        doc = json.dumps({"system": {**A9_SYSTEM, "a9": False}, "window": [-1.0, 15.0]})
        cfg = tmp_path / "c.json"
        cfg.write_text(doc.replace('"value": 1,', f'"value": {value},'))
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert (code, out) == (1, "")
        # an integer no float holds is named by its digit count, not printed digit by digit
        shown = f"{json.loads(value)!r} must be finite"
        if value.isdigit():
            shown = "is an integer of 401 digits, too large for a float"
        assert err == f"symbif: ValidationError: b1: eigenvalue {shown}\n"

    @pytest.mark.parametrize("field", ["window", "spectrum_bound", "max_eigenvalue", "entry_eigenvalue"])
    def test_integer_beyond_float_is_exit_1(self, capsys, tmp_path, field):
        # 1 followed by 400 zeros: a JSON number no float can hold
        big = 10**400
        entries = [{"eigenvalue": 0, "rep": {"trivial": 1}}, {"eigenvalue": big, "rep": {"trivial": 1}}]
        doc = {
            "window": {"system": A9_SYSTEM, "window": [0, big]},
            "spectrum_bound": {"system": A9_SYSTEM, "window": [0, 10], "spectrum_bound": big},
            "max_eigenvalue": {"system": {**A9_SYSTEM, "domain": {"type": "disk", "max_eigenvalue": big}}, "window": [0, 10]},
            "entry_eigenvalue": {"system": {**A9_SYSTEM, "domain": {"type": "custom", "entries": entries}}, "window": [0, 10]},
        }[field]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("symbif: ValidationError: ") and "Traceback" not in err

    @staticmethod
    def analyze_process(cfg):
        """``symbif analyze --config cfg`` in a fresh process that must end within 5 s."""
        src = str(Path(symbif.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        return subprocess.run(
            [sys.executable, "-m", "symbif.cli", "analyze", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=env,
            timeout=5,
        )

    def test_huge_window_is_refused_not_run(self, tmp_path):
        # the disk spectrum such a window needs is beyond the entry budget,
        # so the process ends at once with exit 2 instead of scanning for ever
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"system": A9_SYSTEM, "window": [0.0, 1e308]}))
        proc = self.analyze_process(cfg)
        assert proc.returncode == 2
        assert "InsufficientSpectrum" in proc.stderr and "Weyl" in proc.stderr

    def test_huge_ball_eigenvalue_is_refused_not_run(self, tmp_path):
        # the build's check against the computed spectrum up to the eigenvalue 1e12 would scan
        # the ball's radial roots up to x ~ 1e6; the entry budget stops it before any evaluation
        entries = [
            {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}},
            {"eigenvalue": 1e12, "rep": {"trivial": 0, "irr": {"1": 1}}},
        ]
        system = {**A9_SYSTEM, "domain": {"type": "ball", "dim": 3, "entries": entries}}
        cfg = tmp_path / "ball.json"
        cfg.write_text(json.dumps({"system": system, "window": [1.0, 1e12]}))
        proc = self.analyze_process(cfg)
        assert proc.returncode == 2
        assert "InsufficientSpectrum: the 3-ball spectrum up to" in proc.stderr and "Weyl" in proc.stderr


def ball3_entries(x_max: float) -> list[dict]:
    """The 3-ball spectrum up to x_max^2 as entry documents: degree l at each root of degree l, trivial at l = 0."""
    items = [(0.0, 0)] + sorted(
        (x * x, l) for l in range(int(x_max) + 1) for x in symbif.radial_roots_up_to(l, 3, x_max)
    )
    return [{"eigenvalue": a, "rep": {"irr": {str(l): 1}} if l else {"trivial": 1}} for a, l in items]


class TestSuppliedBall:
    """A supplied ball spectrum is checked against the computed one once, when it is built."""

    def config(self, tmp_path, entries, dim=3) -> str:
        system = {**A9_SYSTEM, "p2": 2, "b2": [{"value": 1, "mult": 2}]}
        system["domain"] = {"type": "ball", "dim": dim, "entries": entries}
        cfg = tmp_path / "ball.json"
        cfg.write_text(json.dumps({"system": system, "window": [-60.0, 60.0]}))
        return str(cfg)

    def test_true_spectrum_is_analyzed(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "analyze", "--config", self.config(tmp_path, ball3_entries(8.5)))
        assert (code, err) == (0, "") and "Unbounded" in out and "20.190729" in out

    @pytest.mark.parametrize("change", ["declared-irr", "dropped"])
    def test_first_trivial_eigenvalue_missing_is_exit_1(self, capsys, tmp_path, change):
        # the trivial entry at the first trivial-type eigenvalue, declared irr(1) in its place
        # or left out: either once exited 0, now the build names that eigenvalue
        entries = ball3_entries(8.5)
        at = next(i for i, e in enumerate(entries) if e["eigenvalue"] and "trivial" in e["rep"])
        if change == "dropped":
            del entries[at]
        else:
            entries[at]["rep"] = {"irr": {"1": 1}}
        code, out, err = run_cli(capsys, "analyze", "--config", self.config(tmp_path, entries))
        said = "none" if change == "dropped" else "1*irr(1)"
        assert (code, out) == (1, "") and err == (
            f"symbif: ValidationError: the supplied 3-ball spectrum has {said} at 20.19072855642663 "
            "where the computed one has 1*triv\n"
        )

    def test_trivial_summand_off_the_roots_is_exit_1(self, capsys, tmp_path):
        entries = ball3_entries(8.5)
        entries.insert(3, {"eigenvalue": 16.0, "rep": {"trivial": 1}})
        code, _, err = run_cli(capsys, "analyze", "--config", self.config(tmp_path, entries))
        assert code == 1 and "has 1*triv at 16.0 where the computed one has none" in err

    def test_degree_one_entry_off_the_roots_is_exit_1(self, capsys, tmp_path):
        # the old check read the trivial summands alone, so an irr(1) entry at 1.0 passed
        entries = ball3_entries(8.5)
        entries.insert(1, {"eigenvalue": 1.0, "rep": {"irr": {"1": 1}}})
        code, out, err = run_cli(capsys, "analyze", "--config", self.config(tmp_path, entries))
        assert (code, out) == (1, "") and err == (
            "symbif: ValidationError: the supplied 3-ball spectrum has 1*irr(1) at 1.0 "
            "where the computed one has none\n"
        )


    @pytest.mark.parametrize(
        "change, message",
        [
            (
                "unordered",
                "entries must be listed in ascending eigenvalue order (4.332958551429382 after 11.169590014604001)",
            ),
            (
                "zero-not-constants",
                "the zero eigenspace consists of the constants: trivial of dimension 1, got 1*triv + 1*irr(1)",
            ),
            ("dim-2", "ball dimension must be >= 3, got 2"),
        ],
    )
    def test_a_document_the_supplied_rule_refuses_is_exit_1(self, capsys, tmp_path, change, message):
        # the rule a custom spectrum meets, and a ball's least dimension, checked before the computed spectrum
        entries, dim = ball3_entries(8.5), 3
        if change == "unordered":
            entries[1], entries[2] = entries[2], entries[1]
        elif change == "zero-not-constants":
            entries[0]["rep"] = {"trivial": 1, "irr": {"1": 1}}
        else:
            dim = 2
        code, out, err = run_cli(capsys, "analyze", "--config", self.config(tmp_path, entries, dim))
        assert (code, out, err) == (1, "", f"symbif: ValidationError: {message}\n")


class TestComputedBall:
    """A ball document without entries is computed, as the disk is; a supplied one is checked against it."""

    def config(self, tmp_path, domain, window=480.0) -> str:
        system = {**A9_SYSTEM, "p2": 2, "b2": [{"value": 1, "mult": 2}], "domain": domain}
        cfg = tmp_path / "ball.json"
        cfg.write_text(json.dumps({"system": system, "window": [-window, window]}))
        return str(cfg)

    def test_supplied_and_computed_give_one_table(self, capsys, tmp_path):
        # supplied from scipy's zeros of j_l', so the eigenvalues differ from the computed ones in the last bits
        entries = [
            {"eigenvalue": a, "rep": {"irr": {str(l): 1}} if l else {"trivial": 1}} for a, l in ball3_spectrum(22.0)
        ]
        domains = ({"type": "ball", "dim": 3, "entries": entries}, {"type": "ball", "dim": 3})
        supplied, computed = (run_cli(capsys, "analyze", "--config", self.config(tmp_path, d)) for d in domains)
        assert supplied == computed and supplied[0] == 0 and len(supplied[1].splitlines()) > 133

    def test_a_supplied_ball_reports_as_its_computed_twin(self, capsys, tmp_path):
        # the 3-ball to x = 22 with window +-375, as the benchmark's session analyzes it: the document builds
        # the computed ball up to its top, so the structured report is the twin's, byte for byte
        entries = ball3_entries(22.0)
        twin = {"type": "ball", "dim": 3, "max_eigenvalue": entries[-1]["eigenvalue"] * (1 + 1e-8)}
        supplied, computed = (
            run_cli(capsys, "analyze", "--config", self.config(tmp_path, d, 375.0), "--format", "structured")
            for d in ({"type": "ball", "dim": 3, "entries": entries}, twin)
        )
        assert supplied == computed and supplied[0] == 0 and len(parse_report(supplied[1])["verdicts"]) == 103

    @pytest.mark.parametrize(
        "entries", [None, [{"eigenvalue": 0.0, "rep": {"trivial": 1}}]], ids=["computed", "supplied"]
    )
    def test_dim_past_the_orders_is_exit_1(self, capsys, tmp_path, kernel_calls, entries):
        # the l = 0 order (403 - 2)/2 lies above the kernels' orders: refused at build, before any evaluation
        domain = {"type": "ball", "dim": 403, **({"entries": entries} if entries else {})}
        kernel_calls.reset()
        code, out, err = run_cli(capsys, "analyze", "--config", self.config(tmp_path, domain, 1.0))
        assert (code, out, kernel_calls.total) == (1, "", 0) and err.startswith("symbif: DomainError: ")


class TestLambdaSet:
    def test_empty_window_exits_zero(self, capsys, a9_config):
        code, out, _ = run_cli(
            capsys, "lambda-set", "--config", a9_config, "--window", "0.5", "1.0", "--format", "structured"
        )
        assert code == 0
        assert parse_report(out)["lambda_set"] == []

    def test_members(self, capsys, a9_config):
        code, out, _ = run_cli(
            capsys, "lambda-set", "--config", a9_config, "--window", "0", "15", "--format", "structured"
        )
        members = parse_report(out)["lambda_set"]
        assert len(members) == 4 and members[0] == 0.0

    def test_missing_window_is_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": A9_SYSTEM}))
        code, _, err = run_cli(capsys, "lambda-set", "--config", str(cfg))
        assert code == 1
        assert "ValidationError" in err


class TestSpectrum:
    def test_defaults_to_disk(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--max-eigenvalue", "10", "--format", "structured")
        assert code == 0
        entries = parse_report(out)["entries"]
        assert [e["angular_index"] for e in entries] == [0, 1, 2]

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--max-eigenvalue", "10")
        assert code == 0
        assert "eigenvalue" in out and "1*triv" in out
        # the first rotation eigenvalue j'_{1,1}^2 at the fixed root tolerance
        assert "3.38995772" in out

    def test_needs_bound(self, capsys):
        code, _, err = run_cli(capsys, "spectrum")
        assert code == 1 and "ValidationError" in err

    def test_custom_domain_entries(self, capsys, tmp_path):
        system = {
            "p1": 1,
            "p2": 0,
            "b1": [{"value": 1, "mult": 1}],
            "b2": [],
            "mu_b0": 0,
            "domain": {
                "type": "custom",
                "entries": [
                    {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}},
                    {"eigenvalue": 2.5, "rep": {"trivial": 0, "irr": {"4": 2}}},
                ],
            },
            "a9": False,
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": system}))
        code, out, _ = run_cli(
            capsys, "spectrum", "--config", str(cfg), "--max-eigenvalue", "2.5", "--format", "structured"
        )
        assert code == 0
        entries = parse_report(out)["entries"]
        assert [e["eigenvalue"] for e in entries] == [0.0, 2.5]
        assert entries[1]["rep"] == {"trivial": 0, "irr": {"4": 2}}


class TestBif:
    def test_a9_closed_form(self, capsys, a9_config):
        code, out, _ = run_cli(
            capsys, "bif", "--config", a9_config, "--lambda", str(ALPHA2), "--format", "structured"
        )
        assert code == 0
        doc = parse_report(out)
        assert doc["kind"] == "a9_closed_form"
        assert doc["bif"] == {"unit": 0, "cyclic": {"1": -2}}

    def test_normalized_difference_without_a9(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        system = {**A9_SYSTEM, "a9": False}
        cfg.write_text(json.dumps({"system": system}))
        code, out, _ = run_cli(
            capsys, "bif", "--config", str(cfg), "--lambda", str(ALPHA2), "--format", "structured"
        )
        assert code == 0
        doc = parse_report(out)
        assert doc["kind"] == "normalized_difference"
        assert doc["bif"] == {"unit": 0, "cyclic": {"1": -2}}

    @pytest.mark.parametrize("lam", ["0", "1e-12", "-1e-12"])
    def test_near_zero_without_a9_is_refused_as_zero(self, capsys, tmp_path, lam):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {**A9_SYSTEM, "a9": False}}))
        err = "symbif: PreconditionError: the exact index at 0 needs the normalized block form (a9)\n"
        assert run_cli(capsys, "bif", "--config", str(cfg), "--lambda", lam) == (1, "", err)

    @pytest.mark.parametrize("a9", [True, False])
    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lambda_is_exit_1(self, capsys, tmp_path, a9, lam):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {**A9_SYSTEM, "a9": a9}}))
        err = f"symbif: ValidationError: lambda0 {lam} must be finite\n"
        assert run_cli(capsys, "bif", "--config", str(cfg), "--lambda", lam) == (1, "", err)

    def test_missing_lambda(self, capsys, a9_config):
        code, _, err = run_cli(capsys, "bif", "--config", a9_config)
        assert code == 1 and "ValidationError" in err

    def test_non_member_is_exit_1(self, capsys, a9_config):
        code, _, err = run_cli(capsys, "bif", "--config", a9_config, "--lambda", "1.25")
        assert code == 1 and "PreconditionError" in err

    def test_beyond_spectrum_bound_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": A9_SYSTEM, "spectrum_bound": 5.0}))
        code, _, err = run_cli(capsys, "bif", "--config", str(cfg), "--lambda", "9.33")
        assert code == 2 and "InsufficientSpectrum" in err


class TestRabinowitz:
    def test_lambdas_mode(self, capsys, a9_config):
        code, out, _ = run_cli(
            capsys, "rabinowitz", "--config", a9_config, "--lambdas",
            "3.3899577166932745,9.328363214467453", "--format", "structured",
        )
        assert code == 0
        doc = parse_report(out)
        assert doc["excludes_bounded"] is True
        assert doc["sum"] == {"unit": 0, "cyclic": {"1": -2, "2": -2}}

    def test_indices_mode(self, capsys, tmp_path):
        path = tmp_path / "indices.json"
        path.write_text(
            json.dumps([
                {"unit": 0, "cyclic": {"1": -2}},
                {"unit": 0, "cyclic": {"1": 2}},
            ])
        )
        code, out, _ = run_cli(capsys, "rabinowitz", "--indices", str(path), "--format", "structured")
        assert code == 0
        doc = parse_report(out)
        assert doc["excludes_bounded"] is False

    def test_enumerate_mode(self, capsys, a9_config):
        code, out, _ = run_cli(
            capsys, "rabinowitz", "--config", a9_config, "--window", "1", "10",
            "--enumerate", "--format", "structured",
        )
        assert code == 0
        doc = parse_report(out)
        assert doc["zero_sum_subsets"] == []

    def test_exactly_one_mode(self, capsys, a9_config):
        code, _, err = run_cli(capsys, "rabinowitz", "--config", a9_config)
        assert code == 1 and "ValidationError" in err

    @pytest.mark.parametrize(
        "lambdas, code, err",
        [
            ("3.3899577166932745,5.0,1000.0", 1, "PreconditionError: 5.0 is not an eigenvalue of the loaded spectrum"),
            ("1000.0,5.0", 2, "InsufficientSpectrum: need eigenvalues up to 1000.0001000100001 but the spectrum bound is 50.0"),
        ],
        ids=["non-member-first", "beyond-bound-first"],
    )
    def test_first_bad_lambda_decides(self, capsys, tmp_path, lambdas, code, err):
        # every lambda is looked up in input order before any index is built
        system = {**A9_SYSTEM, "p2": 1, "b2": [{"value": 1, "mult": 1}]}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": system, "spectrum_bound": 50.0}))
        assert run_cli(capsys, "rabinowitz", "--config", str(cfg), "--lambdas", lambdas) == (code, "", f"symbif: {err}\n")

    @pytest.mark.parametrize(
        "domain, a9, err",
        [
            ({"type": "disk"}, True, "ValidationError: subset enumeration is exponential; refusing 63 > 20 members"),
            ({"type": "disk"}, False, "PreconditionError: bif_a9 needs the normalized block form (a9 flag)"),
            ("ball", True, "UnsupportedDomain: bif_a9 computes an element of the Euler ring of SO(2)"),
        ],
        ids=["a9-disk", "not-a9", "ball"],
    )
    def test_enumerate_refuses_before_any_index(self, capsys, tmp_path, call_counts, domain, a9, err):
        # the refusal of more than 20 members follows lambda_set at once, after
        # the errors the first index would raise: one sort of the spectral pairs
        if domain == "ball":  # a true 3-ball spectrum past the window, as the build checks
            domain = {"type": "ball", "dim": 3, "entries": ball3_entries(299**0.5)}
        system = {**A9_SYSTEM, "p2": 2, "b2": [{"value": 1, "mult": 2}], "domain": domain, "a9": a9}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": system, "window": [-200, 200]}))
        sorts = [call_counts(module, "_spectral_pairs") for module in (symbif.system, symbif.bifurcation)]
        code, out, got = run_cli(capsys, "rabinowitz", "--config", str(cfg), "--enumerate")
        assert (code, out) == (1, "") and got.startswith(f"symbif: {err}")
        assert [s[0] for s in sorts] == [1, 0]

    def test_non_numeric_lambda_is_exit_1(self, capsys, a9_config):
        code, _, err = run_cli(capsys, "rabinowitz", "--config", a9_config, "--lambdas", "3.39,abc")
        assert code == 1 and "ValidationError" in err and "'abc'" in err and "Traceback" not in err


class TestMorseDegree:
    def test_degree_and_lift(self, capsys, tmp_path):
        orbits = tmp_path / "orbits.json"
        orbits.write_text(json.dumps([
            {"class": "Z2", "morse_index": 1},
            {"class": "SO2", "morse_index": 0},
        ]))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"Z2": "G.Z2", "SO2": "G.SO2"}))
        code, out, _ = run_cli(
            capsys, "morse-degree", "--orbits", str(orbits), "--table", str(table),
            "--format", "structured",
        )
        assert code == 0
        doc = parse_report(out)
        assert doc["degree"] == {"SO2": 1, "Z2": -1}
        assert doc["lifted"] == {"G.SO2": 1, "G.Z2": -1}

    def test_non_injective_table_is_exit_1(self, capsys, tmp_path):
        orbits = tmp_path / "orbits.json"
        orbits.write_text(json.dumps([
            {"class": "a", "morse_index": 0},
            {"class": "b", "morse_index": 0},
        ]))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"a": "g", "b": "g"}))
        code, _, err = run_cli(
            capsys, "morse-degree", "--orbits", str(orbits), "--table", str(table)
        )
        assert code == 1 and "NonInjectiveTable" in err


class TestTableText:
    """The exact table text of the listing subcommands, including their empty cases."""

    def test_lambda_set_members(self, capsys, a9_config):
        out = run_cli(capsys, "lambda-set", "--config", a9_config, "--window", "0", "15")
        assert out == (0, "0\n3.389957717\n9.328363214\n14.68197064\n", "")

    def test_lambda_set_empty(self, capsys, a9_config):
        out = run_cli(capsys, "lambda-set", "--config", a9_config, "--window", "0.5", "1")
        assert out == (0, "lambda set: (empty)\n", "")

    def test_analyze_without_candidates(self, capsys, a9_config):
        out = run_cli(capsys, "analyze", "--config", a9_config, "--window", "0.5", "1")
        header = f"{'lambda0':>14}  {'glob':<12} {'justification':<26} {'unbounded':<10} {'bif':<18} kernel"
        assert out == (0, f"{header}\n(no candidate parameters in the window)\n", "")

    @pytest.mark.parametrize(
        "orbits, lift, text",
        [
            ("Z2:1,SO2:0", True, "degree:\n  SO2: +1\n  Z2: -1\nlifted:\n  G.SO2: +1\n  G.Z2: -1\n"),
            ("Z2:1,SO2:0", False, "degree:\n  SO2: +1\n  Z2: -1\n"),
            ("Z2:1,Z2:0", False, "degree:\n  (zero)\n"),
            ("Z2:1,Z2:0", True, "degree:\n  (zero)\nlifted:\n"),
        ],
        ids=["lift", "no-lift", "zero", "zero-lift"],
    )
    def test_morse_degree(self, capsys, tmp_path, orbits, lift, text):
        data = [{"class": c, "morse_index": int(m)} for c, m in (o.split(":") for o in orbits.split(","))]
        (tmp_path / "orbits.json").write_text(json.dumps(data))
        (tmp_path / "table.json").write_text(json.dumps({"Z2": "G.Z2", "SO2": "G.SO2"}))
        argv = ["morse-degree", "--orbits", str(tmp_path / "orbits.json")]
        if lift:
            argv += ["--table", str(tmp_path / "table.json")]
        assert run_cli(capsys, *argv) == (0, text, "")


class TestCacheAndConfig:
    def test_cache_written_and_reused(self, capsys, a9_config, tmp_path):
        cache = tmp_path / "roots.json"
        code, out1, _ = run_cli(
            capsys, "analyze", "--config", a9_config, "--cache", str(cache), "--format", "structured"
        )
        assert code == 0 and cache.exists()
        cached = json.loads(cache.read_text())
        assert cached["records"]
        code, out2, err = run_cli(
            capsys, "analyze", "--config", a9_config, "--cache", str(cache), "--format", "structured"
        )
        assert code == 0 and out1 == out2 and "regenerating" not in err

    def test_stale_cache_notice(self, capsys, a9_config, tmp_path):
        # a file written at another root tolerance (say by an older release) is regenerated
        cache = tmp_path / "roots.json"
        run_cli(capsys, "analyze", "--config", a9_config, "--cache", str(cache))
        doc = json.loads(cache.read_text())
        doc["tolerances"]["xtol"] = 1e-9
        cache.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "analyze", "--config", a9_config, "--cache", str(cache))
        assert code == 0
        assert "regenerating" in err
        assert json.loads(cache.read_text())["tolerances"]["xtol"] == 1e-10

    def test_cache_file_is_written_only_when_it_changes(self, capsys, a9_config, tmp_path):
        cache = tmp_path / "roots.json"
        argv = ("spectrum", "--max-eigenvalue", "100", "--cache", str(cache))
        assert run_cli(capsys, *argv)[0] == 0
        cold = cache.read_bytes()
        assert hashlib.sha256(cold).hexdigest() == SPECTRUM_100_CACHE_SHA256
        before = os.stat(cache)
        code, _, err = run_cli(capsys, *argv)  # warm: computes nothing, so writes nothing
        after = os.stat(cache)
        assert code == 0 and err == ""
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        doc = json.loads(cold)
        doc["tolerances"]["xtol"] = 1e-9
        cache.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, *argv)  # stale: regenerated to the same bytes
        assert code == 0 and "regenerating" in err and cache.read_bytes() == cold
        assert run_cli(capsys, "spectrum", "--max-eigenvalue", "200", "--cache", str(cache))[0] == 0
        grown = json.loads(cache.read_bytes())["records"]
        assert len(grown) > len(doc["records"]) and all(r in grown for r in doc["records"])
        empty = tmp_path / "empty.json"  # a missing file is written even when no root was needed
        assert run_cli(capsys, "bif", "--config", a9_config, "--lambda", "0", "--cache", str(empty))[0] == 0
        assert json.loads(empty.read_bytes())["records"] == []

    def test_a_replaced_cache_file_keeps_its_permission_bits(self, capsys, tmp_path):
        # the file a cache replaces gives the new one its own bits
        cold, stale = tmp_path / "cold.json", tmp_path / "stale.json"
        assert run_cli(capsys, "spectrum", "--max-eigenvalue", "5", "--cache", str(cold))[0] == 0
        doc = json.loads(cold.read_bytes())
        doc["tolerances"]["xtol"] = 1e-9
        stale.write_text(json.dumps(doc))
        stale.chmod(0o644)
        code, _, err = run_cli(capsys, "spectrum", "--max-eigenvalue", "5", "--cache", str(stale))
        assert code == 0 and "regenerating" in err
        assert stale.stat().st_mode & 0o7777 == 0o644 and stale.read_bytes() == cold.read_bytes()

    @pytest.mark.parametrize(
        "where, reason",
        [
            (lambda tmp: tmp, "Is a directory"),
            (lambda tmp: tmp / "missing" / "roots.json", "the directory {parent} does not exist"),
            (lambda tmp: tmp / ("a" * 300), "File name too long"),
        ],
        ids=["directory", "no-parent", "name-too-long"],
    )
    def test_unusable_cache_path_is_exit_1_before_any_root(
        self, capsys, a9_config, tmp_path, kernel_calls, where, reason
    ):
        cache = where(tmp_path)
        code, out, err = run_cli(capsys, "analyze", "--config", a9_config, "--cache", str(cache))
        assert (code, out) == (1, "")
        assert err == f"symbif: ValidationError: cannot read root cache {cache}: {reason.format(parent=cache.parent)}\n"
        assert kernel_calls.total == 0

    def test_a_cache_name_near_the_limit_is_written(self, capsys, tmp_path):
        # the temporary's name does not grow with the target's: a 250-byte name once ended in a traceback
        cache = tmp_path / ("b" * 250)
        argv = ("spectrum", "--max-eigenvalue", "20", "--cache", str(cache))
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and json.loads(cache.read_bytes())["records"]
        assert [p.name for p in tmp_path.iterdir()] == [cache.name]
        before = os.stat(cache)
        code, _, err = run_cli(capsys, *argv)  # warm: the file is left as it was
        after = os.stat(cache)
        assert (code, err) == (0, "") and (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_a_refused_cache_write_is_exit_1_and_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "roots.json"
        assert run_cli(capsys, "spectrum", "--max-eigenvalue", "20", "--cache", str(cache))[0] == 0
        before = cache.read_bytes()

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full_disk)
        code, out, err = run_cli(capsys, "spectrum", "--max-eigenvalue", "50", "--cache", str(cache))
        assert (code, out) == (1, "")
        assert err == f"symbif: ValidationError: cannot write root cache {cache}: No space left on device\n"
        assert cache.read_bytes() == before and [p.name for p in tmp_path.iterdir()] == ["roots.json"]

    def test_malformed_config_is_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 1 and "SchemaError" in err

    @pytest.mark.parametrize(
        "reader, text",
        [
            ("config", '{"window": [0, ' + "1" * 5001 + "]}"),
            ("report", '{"schema_version": ' + "1" * 5001 + "}"),
            ("report", "{not json"),
            ("custom-spectrum", '{"system": {"domain": {"type": "custom", "entries": [' + "1" * 5001 + "]}}}"),
        ],
        ids=["config-5001-digits", "report-5001-digits", "report-syntax", "custom-spectrum-5001-digits"],
    )
    def test_json_python_cannot_read_is_a_schema_error(self, capsys, tmp_path, reader, text):
        # Python refuses integer literals of more than 4,300 digits with a plain ValueError
        if reader != "report":
            cfg = tmp_path / "bad.json"
            cfg.write_text(text)
            code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
            assert (code, out) == (1, "") and err.startswith("symbif: SchemaError: ")
        else:
            with pytest.raises(symbif.SchemaError, match="not valid JSON"):
                parse_report(text)

    def test_a_report_version_is_an_integer(self):
        # True == 1 and 1.0 == 1 in Python; the cache file refuses both for its own version too
        for version in ("true", "1.0"):
            with pytest.raises(SchemaError, match="wrong schema_version"):
                parse_report('{"schema_version": %s}' % version)
        assert parse_report('{"schema_version": 1}') == {"schema_version": 1}

    @pytest.mark.parametrize(
        "field",
        [{"windows": [0, 1]}, {"tolerances": {"merge": 1e-8}}, {"tolerances": {"root": 1e-10}}],
        ids=["windows", "merge-tolerance", "root-tolerance"],
    )
    def test_unknown_config_key_is_exit_1(self, capsys, tmp_path, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"system": A9_SYSTEM, **field}))
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 1 and "SchemaError" in err

    def test_config_window_validation(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"system": A9_SYSTEM, "window": [2.0, 1.0]}))
        code, _, err = run_cli(capsys, "lambda-set", "--config", str(cfg))
        assert code == 1 and "ValidationError" in err

    @pytest.mark.parametrize(
        "field",
        [
            {"window": ["a", 1]},
            {"window": [0, True]},
            {"tolerances": {"root": "x"}},
            {"tolerances": {"merge": False}},
            {"spectrum_bound": "20"},
            {"system": {**A9_SYSTEM, "domain": {"type": "disk", "max_eigenvalue": "x"}}},
            {"system": {**A9_SYSTEM, "domain": {"type": "disk", "max_eigenvalue": [1]}}},
        ],
    )
    def test_non_numeric_config_value_is_exit_1(self, capsys, tmp_path, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"system": A9_SYSTEM, "window": [0.0, 1.0], **field}))
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 1 and "SchemaError" in err and "Traceback" not in err

    @pytest.mark.parametrize("bound", [-5, 0, float("nan")], ids=["negative", "zero", "nan"])
    def test_disk_bound_must_be_positive(self, capsys, tmp_path, bound):
        # json writes nan as NaN, which Python's json reads back
        system = {**A9_SYSTEM, "domain": {"type": "disk", "max_eigenvalue": bound}}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"system": system, "window": [0.0, 1.0]}))
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 1 and "ValidationError" in err and "Traceback" not in err


#: the a9 disk system with a negative block, so negative parameters are candidates
NEGATIVE_SYSTEM = {**A9_SYSTEM, "p2": 1, "b2": [{"value": 1, "mult": 1}]}


def run_cli_exit(capsys, *argv):
    """(exit status, stdout, stderr) of a run, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNegativeRealFlags:
    """A negative flag value in exponent form, or -inf, is a value as its plain spelling is, not a flag."""

    @pytest.fixture
    def negative_config(self, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"system": NEGATIVE_SYSTEM, "spectrum_bound": 50.0}))
        return str(path)

    def test_analyze_window(self, capsys, a9_config):
        spelled, plain = (
            run_cli_exit(capsys, "analyze", "--config", a9_config, "--window", *w, "--format", "structured")
            for w in (["-1e2", "1e2"], ["-100", "100"])
        )
        assert spelled == plain
        assert spelled[0] == 0 and parse_report(spelled[1])["verdicts"]

    @pytest.mark.parametrize(
        "spelled, plain, code",
        [("-1e1", "-10", 1), ("-3.3899577166932745E0", "-3.3899577166932745", 0)],
    )
    def test_bif_lambda(self, capsys, negative_config, spelled, plain, code):
        runs = [run_cli_exit(capsys, "bif", "--config", negative_config, "--lambda", lam) for lam in (spelled, plain)]
        assert runs[0] == runs[1]
        assert runs[0][0] == code and "usage:" not in runs[0][2]

    @pytest.mark.parametrize(
        "spelled, plain, code",
        [("-1e1,5", "-10,5", 1), ("-3.3899577166932745e0,3.3899577166932745", "-3.3899577166932745,3.3899577166932745", 0)],
    )
    def test_rabinowitz_lambdas(self, capsys, negative_config, spelled, plain, code):
        runs = [
            run_cli_exit(capsys, "rabinowitz", "--config", negative_config, "--lambdas", lams) for lams in (spelled, plain)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == code and "usage:" not in runs[0][2]

    @pytest.mark.parametrize(
        "argv", [["bif", "--lambda", "-1e1"], ["rabinowitz", "--lambdas", "-1e1,5"]], ids=["bif", "rabinowitz"]
    )
    def test_negative_non_member_names_the_parameter(self, capsys, negative_config, argv):
        code, out, err = run_cli_exit(capsys, argv[0], "--config", negative_config, *argv[1:])
        assert (code, out) == (1, "")
        assert err == (
            "symbif: PreconditionError: -10.0 is not in Lambda: 10.0 is not an eigenvalue of the loaded spectrum\n"
        )

    def test_infinite_window_matches_the_config_file(self, capsys, negative_config, tmp_path):
        doc = tmp_path / "window.json"
        doc.write_text(json.dumps({"system": NEGATIVE_SYSTEM, "spectrum_bound": 50.0, "window": [-math.inf, math.inf]}))
        flag = run_cli_exit(capsys, "analyze", "--config", negative_config, "--window", "-inf", "inf")
        assert flag == run_cli_exit(capsys, "analyze", "--config", str(doc))
        assert flag[0] == 2 and "InsufficientSpectrum" in flag[2]


class TestUsageErrors:
    """A bad command line exits 1 like any other bad input; exit 2 means a failed computation."""

    @pytest.mark.parametrize(
        "argv",
        [
            # --tol is gone: the root tolerance is the constant ROOT_XTOL at every value
            *(["spectrum", "--max-eigenvalue", "20", "--tol", tol] for tol in ("1", "1e-8", "1e9", "inf")),
            ["spectrum", "--max-eigenvalue", "abc"],
            ["bif", "--lambda", "x"],
            ["analyze", "--no-such-flag"],
        ],
        ids=["tol-1", "tol-1e-8", "tol-1e9", "tol-inf", "max-eigenvalue-abc", "lambda-x", "unknown-flag"],
    )
    def test_usage_error_is_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: symbif") and "error: " in err and "Traceback" not in err

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--help"])
        assert exc.value.code == 0 and "--max-eigenvalue" in capsys.readouterr().out


def _system(**fields):
    """A config over the a9 system with ``fields`` replaced."""
    return {"system": {**A9_SYSTEM, **fields}, "window": [0.0, 1.0]}


class TestRefusals:
    """Refusals that no other test reaches in process: each names its error and its message."""

    @pytest.mark.parametrize(
        "files, call, error, message",
        [
            ({"c.json": [1]}, ["analyze", "--config", "c.json"], SchemaError, "config must be an object, got list"),
            (
                {"c.json": {"window": [1]}},
                ["analyze", "--config", "c.json"],
                SchemaError,
                "window must be [lo, hi], got [1]",
            ),
            (
                {"c.json": {"output_format": "xml"}},
                ["analyze", "--config", "c.json"],
                ValidationError,
                "output_format must be 'table' or 'structured', got 'xml'",
            ),
            (
                {},
                ["analyze", "--config", "missing.json"],
                ValidationError,
                "cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'",
            ),
            (
                {"c.json": {"window": [0.0, 1.0]}},
                ["analyze", "--config", "c.json"],
                ValidationError,
                "this subcommand needs a 'system' document in the config",
            ),
            (
                {"i.json": {}},
                ["rabinowitz", "--indices", "i.json"],
                SchemaError,
                "--indices file must hold an array of ring elements",
            ),
            ({}, ["morse-degree"], ValidationError, "morse-degree needs --orbits FILE"),
            (
                {"c.json": {"system": [1], "window": [0.0, 1.0]}},
                ["analyze", "--config", "c.json"],
                SchemaError,
                "system document must be an object, got list",
            ),
            (
                {"c.json": {"system": {"p1": 1, "domain": {"type": "disk"}}}},
                ["analyze", "--config", "c.json"],
                SchemaError,
                "system document needs 'p2'",
            ),
            (
                {"c.json": _system(b1={})},
                ["analyze", "--config", "c.json"],
                SchemaError,
                "'b1' must be an array of {value, mult} objects",
            ),
            (
                {
                    "c.json": _system(
                        a9=False,
                        domain={
                            "type": "custom",
                            "entries": [
                                {"eigenvalue": 0.0, "angular_index": 3, "rep": {"trivial": 1}},
                                {"eigenvalue": 5.0, "rep": {"trivial": 1}},
                            ],
                        },
                    )
                },
                ["analyze", "--config", "c.json"],
                ValidationError,
                "the zero eigenvalue has angular index 0",
            ),
            (
                {"c.json": _system(a9=1)},
                ["analyze", "--config", "c.json"],
                SchemaError,
                "'a9' must be a boolean, got 1",
            ),
            ({}, lambda: symbif.radial_condition(0, 2, 0.0), DomainError, "radial condition needs x > 0, got 0.0"),
            ({}, lambda: symbif.disk_spectrum(-1.0), ValidationError, "max_eigenvalue must be positive, got -1.0"),
            (
                {},
                lambda: symbif.SO2Rep(trivial_dim=[10**5000]),
                ValidationError,
                "trivial_dim must be an integer, got a list holding an integer too long to print",
            ),
            (
                {},
                lambda: parse_report("{}"),
                SchemaError,
                "not a structured report (missing or wrong schema_version)",
            ),
        ],
        ids=[
            "config-not-an-object",
            "window-not-a-pair",
            "output-format",
            "config-missing",
            "no-system",
            "indices-not-an-array",
            "morse-without-orbits",
            "system-not-an-object",
            "system-without-p2",
            "b1-not-an-array",
            "zero-at-angular-index-3",
            "a9-not-a-boolean",
            "radial-condition-at-0",
            "disk-spectrum-negative",
            "list-holding-an-unprintable-integer",
            "report-without-version",
        ],
    )
    def test_refusal_names_its_error(self, capsys, tmp_path, monkeypatch, files, call, error, message):
        monkeypatch.chdir(tmp_path)
        for name, doc in files.items():
            Path(name).write_text(json.dumps(doc))
        if callable(call):
            with pytest.raises(error) as exc:
                call()
            assert str(exc.value) == message
        else:
            code = main(call)
            assert (code, capsys.readouterr().err) == (1, f"symbif: {error.__name__}: {message}\n")


def cli_process(argv, cwd, **kwargs):
    """``python -m symbif.cli ARGV`` in a fresh process, as a Popen with the package on its path.

    Its stdout is buffered, as in a shell without PYTHONUNBUFFERED.
    """
    src = str(Path(symbif.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "symbif.cli", *argv], env=env, cwd=cwd, **kwargs)


class TestProcessEntry:
    """A process enters through ``process_main``; ``main`` itself leaves the process as it found it."""

    def test_console_script_calls_what_the_main_block_calls(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        module, _, name = tomllib.loads(pyproject.read_text())["project"]["scripts"]["symbif"].partition(":")
        cli = importlib.import_module("symbif.cli")
        assert importlib.import_module(module) is cli
        tree = ast.parse(Path(cli.__file__).read_text())
        [block] = [n for n in tree.body if isinstance(n, ast.If) and ast.unparse(n.test) == "__name__ == '__main__'"]
        assert [ast.unparse(stmt) for stmt in block.body] == [f"sys.exit({name}())"]
        assert getattr(cli, name) is process_main

    def test_main_leaves_the_collector_as_it_found_it(self, capsys, a9_config):
        before = (gc.get_freeze_count(), gc.isenabled())
        code, out, _ = run_cli(capsys, "analyze", "--config", a9_config, "--format", "structured")
        assert code == 0 and parse_report(out)["verdicts"]
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_a_process_prints_what_main_prints_cold_and_warm(self, capsys, a9_config, tmp_path):
        cache = tmp_path / "roots.json"
        argv = ["analyze", "--config", a9_config, "--format", "structured", "--cache", str(cache)]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        written = cache.read_bytes()
        cache.unlink()
        for _ in ("cold", "warm"):  # the warm process only reads the file the cold one wrote
            proc = cli_process(argv, tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out, err) == (0, expected.encode(), b"")
            assert cache.read_bytes() == written

    @pytest.mark.parametrize(
        "bound, form, read",
        [("20000", "structured", 100), ("20000", "table", 100), ("100", "structured", 0)],
        ids=["structured", "table", "small-report-unread"],
    )
    def test_a_closed_pipe_is_exit_1_and_the_cache_is_complete(self, capsys, tmp_path, bound, form, read):
        # the reports up to 20000 (100 kB as a table, 490 kB structured) outgrow a 64 kB pipe buffer, so the
        # process is still writing when the reader leaves; a small report, its pipe closed before the
        # process starts, fails only when stdout is flushed
        cache = tmp_path / "roots.json"
        argv = ["spectrum", "--max-eigenvalue", bound, "--format", form, "--cache", str(cache)]
        proc = cli_process(argv, tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(read)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")
        written = cache.read_bytes()
        code, out, err = run_cli(capsys, *argv)  # warm: a complete cache serves every root
        assert (code, err) == (0, "") and out.encode().startswith(head)
        assert cache.read_bytes() == written
