import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symbif
from symbif.cli import main, parse_report

ALPHA2 = 3.3899577166932745  # close enough for --lambda matching (1e-8 relative)

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

    @pytest.mark.parametrize("value", ["1e999", "-1e999", "1" + "0" * 400], ids=["inf", "neg-inf", "int-beyond-float"])
    def test_non_finite_block_eigenvalue_is_exit_1(self, capsys, tmp_path, value):
        # refused as input, not carried into a spectrum request up to inf
        # (exit 2) or into float arithmetic that overflows (a traceback)
        doc = json.dumps({"system": {**A9_SYSTEM, "a9": False}, "window": [-1.0, 15.0]})
        cfg = tmp_path / "c.json"
        cfg.write_text(doc.replace('"value": 1,', f'"value": {value},'))
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"symbif: ValidationError: b1: eigenvalue {json.loads(value)!r} must be finite\n"

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
        # the trivial-type test of the eigenvalue 1e12 would scan the ball's
        # radial roots up to x ~ 1e6; the root range stops it before any evaluation
        entries = [
            {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}},
            {"eigenvalue": 1e12, "rep": {"trivial": 0, "irr": {"1": 1}}},
        ]
        system = {**A9_SYSTEM, "domain": {"type": "ball", "dim": 3, "entries": entries}}
        cfg = tmp_path / "ball.json"
        cfg.write_text(json.dumps({"system": system, "window": [1.0, 1e12]}))
        proc = self.analyze_process(cfg)
        assert proc.returncode == 2
        assert "InsufficientSpectrum" in proc.stderr and "supported range" in proc.stderr


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

    @pytest.mark.parametrize(
        "where", [lambda tmp: tmp, lambda tmp: tmp / "missing" / "roots.json"], ids=["directory", "no-parent"]
    )
    def test_unusable_cache_path_is_exit_1_before_any_root(self, capsys, a9_config, tmp_path, kernel_calls, where):
        cache = where(tmp_path)
        code, out, err = run_cli(capsys, "analyze", "--config", a9_config, "--cache", str(cache))
        assert code == 1 and out == ""
        assert err.startswith("symbif: ValidationError: --cache ") and "Traceback" not in err
        assert kernel_calls.total == 0

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
            ("custom-spectrum", '{"domain": "custom", "entries": [' + "1" * 5001 + "]}"),
        ],
        ids=["config-5001-digits", "report-5001-digits", "report-syntax", "custom-spectrum-5001-digits"],
    )
    def test_json_python_cannot_read_is_a_schema_error(self, capsys, tmp_path, reader, text):
        # Python refuses integer literals of more than 4,300 digits with a plain ValueError
        if reader == "config":
            cfg = tmp_path / "bad.json"
            cfg.write_text(text)
            code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
            assert (code, out) == (1, "") and err.startswith("symbif: SchemaError: ")
        else:
            read = parse_report if reader == "report" else symbif.load_custom_spectrum
            with pytest.raises(symbif.SchemaError, match="not valid JSON"):
                read(text)

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
