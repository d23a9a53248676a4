"""Guards on what a process loads: the package root is lazy, and each subcommand imports what it runs.

A warm-cache ``spectrum`` serves its roots from the cache file, so it needs
neither the system model nor the verdicts nor the Bessel kernels; a
warm-cache ``analyze`` needs no kernel and no Morse module.  No run needs
``dataclasses`` or ``inspect``.  Modules a bare interpreter has already
loaded (through ``site``) are not counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symbif
from symbif import spectral

SRC = str(Path(symbif.__file__).resolve().parent.parent)

#: ``python -m symbif.cli ARGV`` through runpy, then the loaded modules on the last stderr line
RUN_CLI = """
import atexit, runpy, sys
atexit.register(lambda: print("MODULES", *sorted(sys.modules), file=sys.stderr))
sys.argv = ["symbif", *sys.argv[1:]]
runpy.run_module("symbif.cli", run_name="__main__", alter_sys=True)
"""

A9_DISK = {
    "system": {
        "p1": 2, "p2": 2, "b1": [{"value": 1, "mult": 2}], "b2": [{"value": 1, "mult": 2}],
        "domain": {"type": "disk"}, "a9": True,
    },
    "window": [-60.0, 60.0],
}

#: the 52 names the package root exports and the 7 submodules it imports on demand
PARENT_NAMESPACE = [
    "BIFURCATES", "BifurcationVerdict", "ConvergenceError", "CustomDomain", "DiskDomain", "DomainError", "Error",
    "EulerSO2", "GlobCheck", "INCONCLUSIVE", "InsufficientSpectrum", "KernelReps",
    "LinearizationEigenvalue", "MissingClass", "NO_VERDICT", "NonInjectiveTable", "NotInvertible",
    "OrbitDatum", "PreconditionError", "RootCache", "SO2Rep", "SchemaError", "SpectrumEntry", "SystemSpec",
    "UNBOUNDED", "UnboundedReport", "UnsupportedDomain", "ValidationError", "_kernels", "analyze",
    "ball_rep_nontrivial", "bessel_j", "bessel_j_prime", "bif_a9", "bif_difference", "bifurcation", "check_glob",
    "check_glob_zero", "deg_minus_id", "degree_from_orbits", "disk_spectrum", "enumerate_zero_sum_subsets",
    "errors", "euler", "kernel_reps", "lambda_membership", "lambda_set", "lift_degree",
    "linearization_eigenvalues", "morse", "rabinowitz_excludes_bounded", "radial_condition", "radial_roots_up_to",
    "rep_equiv_mod_even_trivial", "so2_class_map_to_euler", "spectral", "system", "system_spec_from_json",
    "unbounded_verdict",
]
SUBMODULES = {"_kernels", "bifurcation", "errors", "euler", "morse", "spectral", "system"}


def python(args, cwd):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_by(argv, cwd) -> set[str]:
    """Modules a ``symbif`` process loads beyond those a bare interpreter has loaded."""
    bare = python(["-c", "import sys; print(*sys.modules)"], cwd).stdout.split()
    last = python(["-c", RUN_CLI, *argv], cwd).stderr.splitlines()[-1].split()
    assert last[0] == "MODULES"
    return set(last[1:]) - set(bare)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["spectrum", "--max-eigenvalue", "400"],
            {"dataclasses", "inspect", "symbif._kernels", "symbif.system", "symbif.bifurcation", "symbif.morse"},
        ),
        (["analyze", "--config", "disk.json"], {"dataclasses", "inspect", "symbif._kernels", "symbif.morse"}),
    ],
    ids=["spectrum", "analyze"],
)
def test_warm_cache_run_loads_only_what_it_runs(tmp_path, argv, absent):
    (tmp_path / "disk.json").write_text(json.dumps(A9_DISK))
    argv = [*argv, "--cache", "roots.json", "--format", "structured"]
    cold = loaded_by(argv, tmp_path)
    assert "symbif._kernels" in cold  # the cold run filled the cache
    warm = loaded_by(argv, tmp_path)
    assert "symbif.spectral" in warm
    assert sorted(warm & absent) == []


@pytest.mark.parametrize("command", ["spectrum", "analyze"])
def test_warm_computed_ball_loads_no_kernel_and_keeps_the_cache(tmp_path, command):
    # the warm rule of a CLI session, on a ball document without entries
    system = {**A9_DISK["system"], "domain": {"type": "ball", "dim": 3}}
    (tmp_path / "ball.json").write_text(json.dumps({**A9_DISK, "system": system, "spectrum_bound": 400.0}))
    argv = [command, "--config", "ball.json", "--cache", "roots.json", "--format", "structured"]
    assert "symbif._kernels" in loaded_by(argv, tmp_path)  # the cold run filled the cache
    cached = (tmp_path / "roots.json").read_bytes()
    warm = loaded_by(argv, tmp_path)
    assert "symbif.spectral" in warm and "symbif._kernels" not in warm
    assert (tmp_path / "roots.json").read_bytes() == cached


def test_import_loads_no_submodule(tmp_path):
    out = python(["-c", "import sys, symbif; print(*sys.modules)"], tmp_path).stdout.split()
    assert [m for m in out if m.startswith("symbif.")] == []


def test_every_former_name_resolves_and_is_listed():
    listed = set(dir(symbif))
    for name in PARENT_NAMESPACE:
        value = getattr(symbif, name)
        assert name in listed
        if name in SUBMODULES:
            assert value.__name__ == f"symbif.{name}"
        else:
            assert any(getattr(getattr(symbif, m), name, None) is value for m in SUBMODULES)
    assert sorted(symbif.__all__) == sorted(set(PARENT_NAMESPACE) - SUBMODULES)
    with pytest.raises(AttributeError, match="no_such_name"):
        symbif.no_such_name  # noqa: B018


def test_a_name_patched_on_its_submodule_is_what_the_package_gives(monkeypatch):
    real = spectral.disk_spectrum

    def patched(*args, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "disk_spectrum", patched)
    assert symbif.disk_spectrum is patched
    monkeypatch.undo()
    assert symbif.disk_spectrum is real
