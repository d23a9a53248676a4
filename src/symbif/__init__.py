"""Bifurcation certificates for symmetric elliptic systems.

The package decides and certifies global bifurcation of solution orbits for
elliptic systems with Neumann boundary conditions on rotation-invariant
domains.  It combines exact arithmetic in the Euler ring of SO(2)
(:mod:`symbif.euler`), Neumann spectra of balls via Bessel-derivative roots
(:mod:`symbif.spectral`), the spectral model of the linearized system
(:mod:`symbif.system`), verdicts and exact index elements
(:mod:`symbif.bifurcation`), slice-level gradient degrees
(:mod:`symbif.morse`) and a config-driven CLI (:mod:`symbif.cli`).

``import symbif`` loads no submodule.  Each public name is looked up in its
submodule when it is read (PEP 562), which imports that submodule the first
time, so a process pays only for the modules it uses.  The name is never
copied here, so ``symbif.<name>`` is always what the submodule holds now.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the public names, by the submodule that defines them; each submodule's ``__all__`` is built from its entry
_EXPORTS = {
    "bifurcation": (
        "BIFURCATES", "INCONCLUSIVE", "NO_VERDICT", "UNBOUNDED", "BifurcationVerdict", "GlobCheck", "UnboundedReport",
        "analyze", "bif_a9", "bif_difference", "check_glob", "check_glob_zero", "enumerate_zero_sum_subsets",
        "rabinowitz_excludes_bounded", "unbounded_verdict",
    ),
    "errors": (
        "ConvergenceError", "DomainError", "Error", "InsufficientSpectrum", "MissingClass", "NonInjectiveTable",
        "NotAMember", "NotInvertible", "PreconditionError", "SchemaError", "UnsupportedDomain", "ValidationError",
    ),
    "euler": ("EulerSO2", "SO2Rep", "deg_minus_id", "rep_equiv_mod_even_trivial"),
    "morse": ("OrbitDatum", "compare_orbit_degrees", "degree_from_orbits", "lift_degree", "so2_class_map_to_euler"),
    "spectral": (
        "BallDomain", "CustomDomain", "DiskDomain", "RootCache", "SpectrumEntry", "ball_rep_nontrivial", "bessel_j",
        "bessel_j_prime", "disk_spectrum", "load_custom_spectrum", "neumann_radial_roots", "radial_condition",
        "radial_roots_up_to",
    ),
    "system": (
        "KernelReps", "LinearizationEigenvalue", "SystemSpec", "epsilon_gap", "kernel_reps", "lambda_membership",
        "lambda_set", "linearization_eigenvalues", "system_spec_from_json",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

#: the submodule behind each public name, and each submodule under its own name
_WHERE = {name: module for module, names in _EXPORTS.items() for name in names}
_WHERE.update((module, module) for module in (*_EXPORTS, "_kernels"))


def __getattr__(name: str):
    module = _WHERE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = import_module(f"{__name__}.{module}")
    return found if name == module else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_WHERE})
