"""Neumann Laplacian spectra on balls, and ingestion of user-supplied spectra.

On the unit disk the distinct eigenvalues are 0 (constants) together with the
squares of the positive roots of J_l'(x) = 0 over all angular indices l; the
eigenspace for a root with l >= 1 is one copy of the rotation-l irreducible
(real dimension 2), and trivial of dimension 1 for l = 0.  On the N-ball with
N >= 3 the package evaluates only the stated radial test
J_nu'(x) - (nu/x) J_nu(x) = 0 with nu = (N-2)/2, which characterises the
eigenvalues whose eigenspace is a trivial SO(N)-representation; it is
evaluated as -J_{nu+1}(x), the same function (DLMF 10.6.2).  Full spectra
for N >= 3 (or for other invariant domains) are supplied by the user as
structured documents.

Root finding is one scan: sign-change bracketing on a fixed pi/8 lattice,
then bisection.  Each kernel call also gives a partner whose zeros
interlace with the condition's (J_l for J_l', J_nu for -J_{nu+1}; DLMF
10.21(i)); the scan checks after every cell that the two still alternate,
so a root list is complete or the call raises :class:`ConvergenceError`.
The scan starts from the signs of the pair as x -> 0+ (DLMF 10.2.2), so
the first cell is checked like every other.
Two structurally different Bessel evaluation paths (ascending series vs.
backward recurrence) back the production kernels, and the test suite runs
an independent series-based oracle against every root.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import _kernels
from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientSpectrum,
    SchemaError,
    UnsupportedDomain,
    ValidationError,
)
from .euler import SO2Rep

__all__ = [
    "MERGE_REL",
    "ROOT_XTOL",
    "GRID_STEP",
    "MAX_DISK_ENTRIES",
    "RepDescriptor",
    "SpectrumEntry",
    "SpectrumIndex",
    "RootCache",
    "bessel_j",
    "bessel_j_prime",
    "radial_condition",
    "neumann_radial_roots",
    "radial_roots_up_to",
    "disk_spectrum",
    "ball_rep_nontrivial",
    "load_custom_spectrum",
    "DiskDomain",
    "BallDomain",
    "CustomDomain",
    "domain_from_json",
]

#: relative tolerance at which two nearby eigenvalues are one logical eigenvalue
MERGE_REL = 1e-8
#: absolute width to which root brackets are refined
ROOT_XTOL = 1e-10
#: grid step for sign-change bracketing
GRID_STEP = math.pi / 8.0
#: most distinct disk eigenvalues one request may ask for, by the two-term Weyl
#: estimate alpha/4 + sqrt(alpha)/2 (10,000 reaches alpha ~ 39,600, x ~ 199,
#: inside the x <= 200 range the kernels' accuracy is stated for)
MAX_DISK_ENTRIES = 10_000


def close(a: float, b: float, rel: float = MERGE_REL) -> bool:
    """Tolerant equality used for eigenvalue merging and spectral matching."""
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _beyond_coverage(alpha_max: float, coverage: float, rel: float) -> bool:
    # slack mirrors the matching margin so boundary-exact requests succeed
    return alpha_max > coverage * (1.0 + 20.0 * rel) + 1e-12


# ---------------------------------------------------------------------------
# representation descriptors and spectrum entries
# ---------------------------------------------------------------------------


@dataclass(eq=True)
class RepDescriptor:
    """Isotypic description of an eigenspace of the domain's symmetry group.

    ``irreducibles`` maps an integer label of a nontrivial irreducible to its
    multiplicity; for the disk the label is the rotation number (so the
    descriptor specialises losslessly to :class:`symbif.euler.SO2Rep`), for
    the N-ball the spherical-harmonic degree.  Zero multiplicities are pruned,
    so equality of descriptors is equality of contents.
    """

    trivial_dim: int = 0
    irreducibles: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.trivial_dim, int) or isinstance(self.trivial_dim, bool) or self.trivial_dim < 0:
            raise ValidationError(f"trivial_dim must be a nonnegative integer, got {self.trivial_dim!r}")
        out: dict[int, int] = {}
        for label, mult in self.irreducibles.items():
            if not isinstance(label, int) or isinstance(label, bool) or label < 1:
                raise ValidationError(f"irreducible label {label!r} must be an integer >= 1")
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise ValidationError(f"multiplicity {mult!r} for label {label} must be an integer")
            if mult < 0:
                raise ValidationError(f"label {label} has negative multiplicity {mult}")
            if mult:
                out[label] = mult
        self.irreducibles = out

    @classmethod
    def zero(cls) -> "RepDescriptor":
        return cls(0, {})

    @classmethod
    def trivial(cls, dim: int) -> "RepDescriptor":
        return cls(dim, {})

    @classmethod
    def irr(cls, label: int, mult: int = 1) -> "RepDescriptor":
        return cls(0, {label: mult})

    def is_zero(self) -> bool:
        return self.trivial_dim == 0 and not self.irreducibles

    def has_nontrivial(self) -> bool:
        return bool(self.irreducibles)

    def direct_sum(self, other: "RepDescriptor") -> "RepDescriptor":
        irr = dict(self.irreducibles)
        for label, mult in other.irreducibles.items():
            irr[label] = irr.get(label, 0) + mult
        return RepDescriptor(self.trivial_dim + other.trivial_dim, irr)

    __add__ = direct_sum

    def scaled(self, n: int) -> "RepDescriptor":
        """Direct sum of ``n`` copies (n >= 0)."""
        if n < 0:
            raise ValidationError(f"cannot take {n} copies of a representation")
        return RepDescriptor(n * self.trivial_dim, {k: n * m for k, m in self.irreducibles.items()})

    def total_dim(self, irr_dims: Mapping[int, int] | None = None, default_irr_dim: int = 2) -> int:
        """Real dimension; nontrivial labels default to dimension 2 (disk)."""
        dim = self.trivial_dim
        for label, mult in self.irreducibles.items():
            per = default_irr_dim if irr_dims is None else irr_dims.get(label, default_irr_dim)
            dim += per * mult
        return dim

    def equiv_mod_even_trivial(self, other: "RepDescriptor") -> bool:
        """Equal up to adding even-dimensional trivial summands on either side."""
        return (
            self.irreducibles == other.irreducibles
            and self.trivial_dim % 2 == other.trivial_dim % 2
        )

    def to_so2_rep(self) -> SO2Rep:
        """Disk specialisation: labels become rotation numbers."""
        return SO2Rep(self.trivial_dim, dict(self.irreducibles))

    def describe(self) -> str:
        parts = []
        if self.trivial_dim:
            parts.append(f"{self.trivial_dim}*triv")
        for label in sorted(self.irreducibles):
            parts.append(f"{self.irreducibles[label]}*irr({label})")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"trivial": self.trivial_dim, "irr": {str(k): m for k, m in sorted(self.irreducibles.items())}}

    @classmethod
    def from_json(cls, doc) -> "RepDescriptor":
        if not isinstance(doc, dict):
            raise SchemaError(f"representation descriptor must be an object, got {doc!r}")
        keys = set(doc)
        if keys - {"trivial", "irr", "rot"}:
            raise SchemaError(f"unknown keys in representation descriptor: {sorted(keys - {'trivial', 'irr', 'rot'})}")
        if "irr" in keys and "rot" in keys:
            raise SchemaError("representation descriptor carries both 'irr' and 'rot'")
        table = doc.get("irr", doc.get("rot", {}))
        if not isinstance(table, dict):
            raise SchemaError("irreducible table must be an object")
        try:
            irr = {int(k): m for k, m in table.items()}
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad irreducible label: {exc}") from exc
        trivial = doc.get("trivial", 0)
        if not isinstance(trivial, int) or isinstance(trivial, bool):
            raise SchemaError(f"trivial dimension must be an integer, got {trivial!r}")
        return cls(trivial, irr)


@dataclass(eq=True)
class SpectrumEntry:
    """One distinct Neumann eigenvalue with the isotypic type of its eigenspace.

    ``root_index`` is the 1-based index of the radial root producing the
    eigenvalue; the injected zero eigenvalue (constants) carries None there.
    """

    eigenvalue: float
    rep: RepDescriptor
    angular_index: int | None = None
    root_index: int | None = None

    def __post_init__(self) -> None:
        self.eigenvalue = float(self.eigenvalue)
        if not (self.eigenvalue >= 0.0):
            raise ValidationError(f"eigenvalue must be nonnegative, got {self.eigenvalue!r}")

    def to_json(self) -> dict:
        return {
            "eigenvalue": self.eigenvalue,
            "angular_index": self.angular_index,
            "root_index": self.root_index,
            "rep": self.rep.to_json(),
        }

    @classmethod
    def from_json(cls, doc) -> "SpectrumEntry":
        if not isinstance(doc, dict):
            raise SchemaError(f"spectrum entry must be an object, got {doc!r}")
        unknown = set(doc) - {"eigenvalue", "angular_index", "root_index", "rep"}
        if unknown:
            raise SchemaError(f"unknown keys in spectrum entry: {sorted(unknown)}")
        if "eigenvalue" not in doc or "rep" not in doc:
            raise SchemaError("spectrum entry needs 'eigenvalue' and 'rep'")
        ev = doc["eigenvalue"]
        if not isinstance(ev, (int, float)) or isinstance(ev, bool):
            raise SchemaError(f"eigenvalue must be a number, got {ev!r}")
        if ev < 0:
            raise ValidationError(f"eigenvalue must be nonnegative, got {ev!r}")
        for key in ("angular_index", "root_index"):
            v = doc.get(key)
            if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 0):
                raise SchemaError(f"{key} must be a nonnegative integer or null, got {v!r}")
        return cls(float(ev), RepDescriptor.from_json(doc["rep"]), doc.get("angular_index"), doc.get("root_index"))


# ---------------------------------------------------------------------------
# Bessel evaluation wrappers
# ---------------------------------------------------------------------------


def _check_order(order: float) -> float:
    nu = float(order)
    if nu < 0.0 or 2.0 * nu != math.floor(2.0 * nu):
        raise DomainError(f"order must be a nonnegative integer or half-integer, got {order!r}")
    return nu


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind, J_order(x), for x >= 0.

    Orders are nonnegative integers or half-integers.  Accuracy is within
    1e-13 * max(1, |J|) for x <= 200 (see ``symbif._kernels``).
    """
    nu = _check_order(order)
    x = float(x)
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"bessel_j needs x >= 0, got {x!r}")
    return _kernels._bessel_j(nu, x)


def bessel_j_prime(order: float, x: float) -> float:
    """Derivative J_order'(x) via (J_{order-1} - J_{order+1})/2, J_0' = -J_1."""
    nu = _check_order(order)
    x = float(x)
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"bessel_j_prime needs x >= 0, got {x!r}")
    if x == 0.0 and nu != math.floor(nu):
        raise DomainError("derivative of a half-integer order is singular at x = 0")
    return _kernels._bessel_j_prime(nu, x)


def radial_condition(angular_index: int, dim: int, x: float) -> float:
    """Value of the radial Neumann condition at x > 0.

    Disk (dim == 2): J_l'(x).  Ball (dim >= 3, l == 0 only): the trivial-type
    radial test J_nu'(x) - (nu/x) J_nu(x) = -J_{nu+1}(x), nu = (dim-2)/2.
    """
    _check_radial_family(angular_index, dim)
    x = float(x)
    if x <= 0.0 or math.isnan(x):
        raise DomainError(f"radial condition needs x > 0, got {x!r}")
    return _kernels._radial_condition(angular_index, dim, x)[0]


def _check_radial_family(angular_index: int, dim: int) -> None:
    if not isinstance(dim, int) or dim < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {dim!r}")
    if not isinstance(angular_index, int) or angular_index < 0:
        raise DomainError(f"angular index must be a nonnegative integer, got {angular_index!r}")
    if dim >= 3 and angular_index != 0:
        raise UnsupportedDomain(
            "for dim >= 3 only the angular_index == 0 radial test is available; "
            "supply spectra for other types explicitly"
        )


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

#: halvings of a lattice cell that fails the interlacing check before the scan gives up
_MAX_HALVINGS = 3
#: stand-in magnitude for a kernel value that underflowed to 0.0
_UNDERFLOW = math.ulp(0.0)


def _refine(l: int, dim: int, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    x = _kernels._bisect_radial(l, dim, a, fa, b, fb, xtol)
    if math.isnan(x):
        raise ConvergenceError(
            f"bisection failed to refine bracket [{a!r}, {b!r}] for (l={l}, dim={dim})"
        )
    return x


def _lattice_scan(
    l: int, dim: int, x_max: float, step: float, xtol: float, after: float = 0.0
) -> list[float]:
    """Roots of f above ``after`` through the first beyond ``x_max``, on the lattice step, 2*step, ...

    The zeros of f and of its partner g (both from ``_kernels._radial_condition``)
    interlace, f leading for the disk with l >= 1 and g otherwise, so the
    leader's sign changes run ahead of the other's by 0 or 1.  A cell that
    breaks this hides a pair of zeros and is scanned again on its halved
    lattice, at most ``_MAX_HALVINGS`` times before ConvergenceError.  No
    bracket depends on ``x_max`` or ``after`` (prefix stability).  With
    ``after == 0`` the scan starts at x = 0+, where g > 0 and f has the sign
    of its leading power (DLMF 10.2.2): J_l' > 0 for l >= 1, while J_0' and
    -J_{nu+1} are negative; otherwise it starts at the end of the cell
    holding ``after``.  A value that underflowed to 0.0 (high orders near
    the origin) keeps the sign of the point before it.
    """
    f_leads = dim == 2 and l >= 1
    origin = (0.0, 1.0 if f_leads else -1.0, 1.0)

    def point(x: float, before: tuple[float, float, float]) -> tuple[float, float, float]:
        f, g = _kernels._radial_condition(l, dim, x)
        if math.isnan(f) or math.isnan(g):
            raise ConvergenceError(f"radial condition evaluated to NaN at x={x!r} (l={l}, dim={dim})")
        if f == 0.0:
            f = math.copysign(_UNDERFLOW, before[1])
        if g == 0.0:
            g = math.copysign(_UNDERFLOW, before[2])
        return x, f, g

    def cell(a, b, ahead: int, halvings: int) -> tuple[list[float], int]:
        """Roots in the cell (a, b] of two lattice points, and the lead's count ahead at b."""
        (xa, fa, ga), (xb, fb, gb) = a, b
        f_turns = (fa > 0.0) != (fb > 0.0)
        g_turns = (ga > 0.0) != (gb > 0.0)
        ahead_b = ahead + ((f_turns - g_turns) if f_leads else (g_turns - f_turns))
        if ahead_b in (0, 1):
            return ([_refine(l, dim, xa, fa, xb, fb, xtol)] if f_turns else []), ahead_b
        if halvings == _MAX_HALVINGS:
            raise ConvergenceError(
                f"zeros of the radial condition and its partner fail to interlace in "
                f"({xa!r}, {xb!r}] after {halvings} halvings (l={l}, dim={dim})"
            )
        mid = point(0.5 * (xa + xb), a)
        left, ahead = cell(a, mid, ahead, halvings + 1)
        right, ahead = cell(mid, b, ahead, halvings + 1)
        return left + right, ahead

    i = math.ceil(after / step)
    prev = point(i * step, origin) if i else origin
    # the lead is one zero ahead exactly when the sign pattern differs from that at 0+
    ahead = int(((prev[1] > 0.0) == (prev[2] > 0.0)) != f_leads)
    roots: list[float] = []
    while not roots or roots[-1] <= x_max:
        i += 1
        x = point(i * step, prev)
        found, ahead = cell(prev, x, ahead, 0)
        roots.extend(r for r in found if r > after)
        prev = x
    return roots


def radial_roots_up_to(
    angular_index: int,
    dim: int,
    x_max: float,
    *,
    xtol: float = ROOT_XTOL,
    step: float = GRID_STEP,
    cache: "RootCache | None" = None,
) -> list[float]:
    """All positive roots of the radial condition not exceeding ``x_max``.

    No root is silently missed while no lattice cell holds more than three
    zeros of the condition f and its partner g together (see
    ``_lattice_scan``).  Consecutive zeros lie at least 1.2 apart, and four
    of them span at least 4.5 (disk l <= 70 and balls N <= 7, x <= 200), so
    the default pi/8 step holds at most one and steps up to 4 at most three.
    A ``cache`` also keeps the first root beyond ``x_max``, so it serves the
    same request again, and a longer request resumes the scan after the last
    cached root.
    """
    _check_radial_family(angular_index, dim)
    if x_max <= 0.0:
        return []
    cached = cache.get(dim, angular_index) if cache is not None else []
    if not cached or x_max > cached[-1]:
        after = cached[-1] if cached else 0.0
        cached = cached + _lattice_scan(angular_index, dim, x_max, step, xtol, after)
        if cache is not None:
            cache.put(dim, angular_index, cached)
    return [r for r in cached if r <= x_max]


def neumann_radial_roots(
    angular_index: int,
    dim: int = 2,
    count: int = 1,
    *,
    xtol: float = ROOT_XTOL,
    step: float = GRID_STEP,
    cache: "RootCache | None" = None,
) -> list[float]:
    """First ``count`` positive roots of the radial Neumann condition.

    x = 0 is excluded by convention; the zero eigenvalue is injected once by
    the spectrum builders, not reported as a radial root.
    """
    _check_radial_family(angular_index, dim)
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count!r}")
    if cache is not None:
        cached = cache.get(dim, angular_index)
        if len(cached) >= count:
            return cached[:count]
    # roots sit near l + (k + dim/2) * pi; scan a window and extend if short
    x_max = angular_index + dim + (count + 2) * math.pi
    for _ in range(64):
        roots = radial_roots_up_to(angular_index, dim, x_max, xtol=xtol, step=step, cache=cache)
        if len(roots) >= count:
            return roots[:count]
        x_max *= 1.5
    raise ConvergenceError(
        f"could not locate {count} roots for (l={angular_index}, dim={dim}); "
        f"search stalled at x <= {x_max!r}"
    )


# ---------------------------------------------------------------------------
# root cache
# ---------------------------------------------------------------------------


@dataclass
class RootCache:
    """On-disk memo of radial roots, keyed by the tolerances that built it.

    The record list for each (dim, l) pair is always a complete prefix of the
    true root sequence, so cached data can serve any request whose range it
    covers.  A file whose tolerance metadata disagrees with the requested
    tolerances, or that holds a list that is not finite, strictly increasing
    and indexed 1..n, is discarded and regenerated.  Saving writes a
    temporary file beside the target and renames it over the target, so a
    reader sees the old file or the new one, never a partial write.
    """

    xtol: float = ROOT_XTOL
    step: float = GRID_STEP
    records: dict[tuple[int, int], list[float]] = field(default_factory=dict)

    def get(self, dim: int, l: int) -> list[float]:
        return self.records.get((dim, l), [])

    def put(self, dim: int, l: int, roots: Sequence[float]) -> None:
        self.records[(dim, l)] = list(roots)

    def to_json(self) -> dict:
        recs = []
        for (dim, l) in sorted(self.records):
            for i, x in enumerate(self.records[(dim, l)], start=1):
                recs.append([dim, l, i, x])
        return {
            "schema_version": 1,
            "tolerances": {"xtol": self.xtol, "step": self.step},
            "records": recs,
        }

    def save(self, path: str | Path) -> None:
        target = Path(path)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(json.dumps(self.to_json(), sort_keys=True) + "\n")
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(
        cls, path: str | Path, *, xtol: float = ROOT_XTOL, step: float = GRID_STEP
    ) -> tuple["RootCache", bool]:
        """Load a cache; returns (cache, stale) where stale means regenerated."""
        fresh = cls(xtol=xtol, step=step)
        p = Path(path)
        if not p.exists():
            return fresh, False
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
            tol = doc["tolerances"]
            if tol["xtol"] != xtol or tol["step"] != step:
                return fresh, True
            for dim, l, idx, x in doc["records"]:
                roots = fresh.records.setdefault((int(dim), int(l)), [])
                x = float(x)
                # indexed 1..n in order, finite and strictly increasing
                if idx != len(roots) + 1 or not math.isfinite(x) or (roots and x <= roots[-1]):
                    return cls(xtol=xtol, step=step), True
                roots.append(x)
            return fresh, False
        except (KeyError, TypeError, ValueError, json.JSONDecodeError):
            return cls(xtol=xtol, step=step), True


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def _merge_entries(entries: Iterable[SpectrumEntry], merge_rel: float) -> list[SpectrumEntry]:
    """Sort ascending and fuse near-coincident eigenvalues, summing their reps."""
    ordered = sorted(entries, key=lambda e: e.eigenvalue)
    merged: list[SpectrumEntry] = []
    for e in ordered:
        if merged and close(merged[-1].eigenvalue, e.eigenvalue, merge_rel):
            prev = merged[-1]
            merged[-1] = SpectrumEntry(
                prev.eigenvalue,
                prev.rep + e.rep,
                prev.angular_index if prev.angular_index == e.angular_index else None,
                prev.root_index if prev.root_index == e.root_index else None,
            )
        else:
            merged.append(e)
    return merged


def disk_spectrum(
    max_eigenvalue: float,
    *,
    xtol: float = ROOT_XTOL,
    step: float = GRID_STEP,
    merge_rel: float = MERGE_REL,
    cache: RootCache | None = None,
) -> list[SpectrumEntry]:
    """Distinct Neumann eigenvalues of the unit disk up to ``max_eigenvalue``.

    The zero eigenvalue (constants, trivial of dimension 1) is always present;
    each positive eigenvalue is the square of a root of J_l' and carries one
    copy of the rotation-l irreducible (trivial of dimension 1 when l = 0).
    A request whose Weyl estimate exceeds ``MAX_DISK_ENTRIES`` raises
    InsufficientSpectrum before any evaluation.
    """
    if not max_eigenvalue > 0.0:
        raise ValidationError(f"max_eigenvalue must be positive, got {max_eigenvalue!r}")
    estimate = max_eigenvalue / 4.0 + math.sqrt(max_eigenvalue) / 2.0
    if estimate > MAX_DISK_ENTRIES:
        raise InsufficientSpectrum(
            f"the disk spectrum up to {max_eigenvalue!r} has about {estimate:.4g} distinct eigenvalues "
            f"(Weyl estimate), more than the budget of {MAX_DISK_ENTRIES}"
        )
    x_max = math.sqrt(max_eigenvalue)
    entries = [SpectrumEntry(0.0, RepDescriptor.trivial(1), angular_index=0, root_index=None)]
    l = 0
    while l <= x_max + 1.0:
        roots = radial_roots_up_to(l, 2, x_max, xtol=xtol, step=step, cache=cache)
        if not roots and l >= 1:
            break  # first roots increase with l, so higher l find nothing
        rep = RepDescriptor.trivial(1) if l == 0 else RepDescriptor.irr(l)
        for i, x in enumerate(roots, start=1):
            alpha = x * x
            if alpha <= max_eigenvalue:
                entries.append(SpectrumEntry(alpha, rep, angular_index=l, root_index=i))
        l += 1
    return _merge_entries(entries, merge_rel)


def ball_rep_nontrivial(
    entry: SpectrumEntry,
    dim: int,
    *,
    xtol: float = ROOT_XTOL,
    step: float = GRID_STEP,
    match_rel: float = MERGE_REL,
    cache: RootCache | None = None,
) -> bool:
    """Whether the eigenspace is a nontrivial SO(dim)-representation, dim >= 3.

    True iff sqrt(eigenvalue) is NOT a root of the trivial-type radial test.
    The constants (eigenvalue 0) are trivial; a declared angular index >= 1
    short-circuits the numeric test.
    """
    if not isinstance(dim, int) or dim < 3:
        raise DomainError(f"ball_rep_nontrivial needs dim >= 3, got {dim!r}")
    if close(entry.eigenvalue, 0.0, match_rel):
        return False
    if entry.angular_index is not None:
        return entry.angular_index >= 1
    x = math.sqrt(entry.eigenvalue)
    roots = radial_roots_up_to(0, dim, x + math.pi, xtol=xtol, step=step, cache=cache)
    return not any(close(entry.eigenvalue, r * r, match_rel) for r in roots)


def _entries_from_docs(raw, merge_rel: float) -> list[SpectrumEntry]:
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'entries' must be a nonempty array of spectrum entries")
    entries = [SpectrumEntry.from_json(item) for item in raw]
    for prev, nxt in zip(entries, entries[1:]):
        if nxt.eigenvalue < prev.eigenvalue and not close(prev.eigenvalue, nxt.eigenvalue, merge_rel):
            raise ValidationError(
                f"entries must be listed in ascending eigenvalue order "
                f"({nxt.eigenvalue!r} after {prev.eigenvalue!r})"
            )
    merged = _merge_entries(entries, merge_rel)
    zero = [e for e in merged if e.eigenvalue == 0.0]
    if not zero:
        raise ValidationError("a Neumann spectrum must contain the eigenvalue 0 (constants)")
    z = zero[0]
    if z.rep.has_nontrivial() or z.rep.trivial_dim != 1:
        raise ValidationError(
            f"the zero eigenspace consists of the constants: trivial of dimension 1, got {z.rep.describe()}"
        )
    if z.angular_index not in (None, 0):
        raise ValidationError("the zero eigenvalue has angular index 0")
    return merged


def load_custom_spectrum(source, *, merge_rel: float = MERGE_REL) -> list[SpectrumEntry]:
    """Validate a custom-spectrum document: ``{"domain": "custom", "entries": [...]}``.

    Accepts a parsed document, a JSON string, or a path to a JSON file.
    Entries must be ascending; near-coincident eigenvalues are merged with
    their representations summed.
    """
    doc = source
    if isinstance(source, (str, Path)):
        text = str(source)
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        else:
            try:
                if Path(source).exists():
                    text = Path(source).read_text(encoding="utf-8")
            except (OSError, ValueError):
                pass  # not a usable path; treat as inline JSON
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"custom spectrum document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"domain", "entries"}
    if unknown:
        raise SchemaError(f"unknown keys in custom spectrum document: {sorted(unknown)}")
    if doc.get("domain") != "custom":
        raise SchemaError("custom spectrum document needs \"domain\": \"custom\"")
    return _entries_from_docs(doc.get("entries"), merge_rel)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class SpectrumIndex:
    """Lookup structure over a domain's ascending spectrum entries.

    ``eigenvalues`` is the sorted eigenvalue list, searched by bisection.
    The prefix table describes V(n), the sum of the first n eigenspaces:
    ``trivial[n]`` is its trivial dimension, and its irreducible
    multiplicities are kept at every ``_STRIDE``-th n, so
    :meth:`prefix_rep` adds at most ``_STRIDE - 1`` eigenspaces to a stored
    table and deg(-Id, B(V(n))) = (-1)^t (I - sum_k m_k chi[k]) needs no
    sum over the spectrum.  A domain builds one index and rebuilds it only
    when its spectrum grows.
    """

    __slots__ = ("entries", "eigenvalues", "trivial", "checkpoints")

    #: entries between stored multiplicity tables (memory n/_STRIDE tables, lookup O(labels + _STRIDE))
    _STRIDE = 32

    def __init__(self, entries: Sequence[SpectrumEntry]) -> None:
        self.entries = entries
        self.eigenvalues = [e.eigenvalue for e in entries]
        self.trivial = [0]
        self.checkpoints: list[dict[int, int]] = [{}]
        mults: dict[int, int] = {}
        for n, e in enumerate(entries, start=1):
            self.trivial.append(self.trivial[-1] + e.rep.trivial_dim)
            for k, m in e.rep.irreducibles.items():
                mults[k] = mults.get(k, 0) + m
            if n % self._STRIDE == 0:
                self.checkpoints.append(dict(mults))

    def count_up_to(self, alpha_max: float) -> int:
        """Number of entries with eigenvalue <= alpha_max."""
        return bisect_right(self.eigenvalues, alpha_max)

    def matches(self, target: float, rel: float, n: int) -> list[int]:
        """Ascending positions i < n with ``close(target, eigenvalues[i], rel)``.

        A match lies at most rel * max(1, |target|) / (1 - rel) from the
        target; bisection narrows the search to twice that distance (slack
        for rounding), and ``close`` decides on each eigenvalue found.
        """
        lo, hi = 0, n
        if rel < 1.0:
            reach = 2.0 * rel * max(1.0, abs(target)) / (1.0 - rel) + 4.0 * math.ulp(max(1.0, abs(target)))
            lo = bisect_left(self.eigenvalues, target - reach, 0, n)
            hi = bisect_right(self.eigenvalues, target + reach, lo, n)
        eigs = self.eigenvalues
        return [i for i in range(lo, hi) if close(target, eigs[i], rel)]

    def prefix_rep(self, n: int) -> SO2Rep:
        """V(n), the first n eigenspaces, with labels read as rotation numbers (disk)."""
        start = n - n % self._STRIDE
        mults = dict(self.checkpoints[start // self._STRIDE])
        for e in self.entries[start:n]:
            for k, m in e.rep.irreducibles.items():
                mults[k] = mults.get(k, 0) + m
        return SO2Rep(self.trivial[n], mults)


@dataclass
class DiskDomain:
    """Unit disk; the spectrum is computed on demand (and memoised).

    ``bound``, when set, caps how far the spectrum may be extended; requests
    beyond it raise :class:`InsufficientSpectrum`.
    """

    bound: float | None = None
    xtol: float = ROOT_XTOL
    step: float = GRID_STEP
    merge_rel: float = MERGE_REL
    cache: RootCache | None = field(default=None, repr=False, compare=False)
    _memo: list[SpectrumEntry] = field(default_factory=list, init=False, repr=False, compare=False)
    _memo_bound: float = field(default=-1.0, init=False, repr=False, compare=False)
    _index: SpectrumIndex | None = field(default=None, init=False, repr=False, compare=False)

    kind = "disk"
    dim = 2
    is_disk = True

    def irr_dims(self) -> None:
        return None  # rotation irreducibles all have real dimension 2

    def spectrum_index(self, alpha_max: float) -> tuple[SpectrumIndex, int]:
        """The index over the computed spectrum, and how many of its entries are <= alpha_max.

        Extends the spectrum to ``alpha_max`` first, or raises
        InsufficientSpectrum beyond ``bound``; the index is rebuilt only
        when the spectrum grows.
        """
        alpha_max = max(0.0, float(alpha_max))
        if self.bound is not None and _beyond_coverage(alpha_max, self.bound, self.merge_rel):
            raise InsufficientSpectrum(
                f"need eigenvalues up to {alpha_max!r} but the spectrum bound is {self.bound!r}"
            )
        if alpha_max > self._memo_bound:
            target = max(alpha_max, 1.0)
            self._memo = disk_spectrum(
                target, xtol=self.xtol, step=self.step, merge_rel=self.merge_rel, cache=self.cache
            )
            self._memo_bound = target
            self._index = None
        if self._index is None:
            self._index = SpectrumIndex(self._memo)
        return self._index, self._index.count_up_to(alpha_max)

    def entries_up_to(self, alpha_max: float) -> list[SpectrumEntry]:
        index, n = self.spectrum_index(alpha_max)
        return index.entries[:n]

    def first_entries(self, k: int) -> list[SpectrumEntry]:
        if k < 1:
            raise ValidationError(f"need k >= 1, got {k!r}")
        target = max(self._memo_bound, 25.0)
        for _ in range(64):
            if self.bound is not None:
                target = min(target, self.bound)
            entries = self.entries_up_to(target)
            if len(entries) >= k:
                return entries[:k]
            if self.bound is not None and target >= self.bound:
                raise InsufficientSpectrum(
                    f"only {len(entries)} distinct eigenvalues below the bound {self.bound!r}, need {k}"
                )
            target *= 2.0
        raise InsufficientSpectrum(f"could not collect {k} eigenvalues")  # pragma: no cover


@dataclass
class _SuppliedDomain:
    """Base for domains whose spectrum is user-supplied and finite."""

    entries: list[SpectrumEntry]
    _index: SpectrumIndex | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries or self.entries[0].eigenvalue != 0.0:
            raise ValidationError("supplied spectra must start at the zero eigenvalue")
        for prev, nxt in zip(self.entries, self.entries[1:]):
            if nxt.eigenvalue < prev.eigenvalue:
                raise ValidationError(
                    f"supplied entries must be in ascending eigenvalue order ({nxt.eigenvalue!r} after {prev.eigenvalue!r})"
                )

    @property
    def coverage(self) -> float:
        return self.entries[-1].eigenvalue

    def spectrum_index(self, alpha_max: float) -> tuple[SpectrumIndex, int]:
        """The index over the supplied entries, and how many are <= alpha_max.

        Raises InsufficientSpectrum when alpha_max lies beyond the supplied
        spectrum; the index is built on first use.
        """
        alpha_max = max(0.0, float(alpha_max))
        if _beyond_coverage(alpha_max, self.coverage, getattr(self, "merge_rel", MERGE_REL)):
            raise InsufficientSpectrum(
                f"need eigenvalues up to {alpha_max!r} but the supplied spectrum stops at {self.coverage!r}"
            )
        if self._index is None:
            self._index = SpectrumIndex(self.entries)
        return self._index, self._index.count_up_to(alpha_max)

    def entries_up_to(self, alpha_max: float) -> list[SpectrumEntry]:
        index, n = self.spectrum_index(alpha_max)
        return index.entries[:n]

    def first_entries(self, k: int) -> list[SpectrumEntry]:
        if k < 1:
            raise ValidationError(f"need k >= 1, got {k!r}")
        if k > len(self.entries):
            raise InsufficientSpectrum(f"supplied spectrum has {len(self.entries)} entries, need {k}")
        return self.entries[:k]


@dataclass
class BallDomain(_SuppliedDomain):
    """Unit ball of dimension >= 3 with a user-supplied spectrum."""

    dim: int = 3
    xtol: float = ROOT_XTOL
    step: float = GRID_STEP
    merge_rel: float = MERGE_REL
    cache: RootCache | None = field(default=None, repr=False, compare=False)

    kind = "ball"
    is_disk = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.dim, int) or self.dim < 3:
            raise ValidationError(f"ball dimension must be an integer >= 3, got {self.dim!r}")
        if self.cache is None:
            self.cache = RootCache(xtol=self.xtol, step=self.step)

    def irr_dims(self) -> None:
        return None  # harmonic dimension tables are out of scope; callers may override

    def rep_nontrivial(self, entry: SpectrumEntry) -> bool:
        return ball_rep_nontrivial(
            entry, self.dim, xtol=self.xtol, step=self.step, match_rel=self.merge_rel, cache=self.cache
        )


@dataclass
class CustomDomain(_SuppliedDomain):
    """Arbitrary invariant domain with a user-supplied spectrum.

    ``irr_dim_table`` optionally gives the real dimension of each labelled
    irreducible (default 2), used for linearization multiplicities.
    """

    irr_dim_table: dict[int, int] | None = None
    merge_rel: float = MERGE_REL

    kind = "custom"
    dim = None
    is_disk = False

    def irr_dims(self) -> dict[int, int] | None:
        return self.irr_dim_table


def domain_from_json(
    doc,
    *,
    spectrum_bound: float | None = None,
    xtol: float = ROOT_XTOL,
    step: float = GRID_STEP,
    merge_rel: float = MERGE_REL,
    cache: RootCache | None = None,
):
    """Build a domain from its document form ``{"type": "disk"|"ball"|"custom", ...}``."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError(f"domain document must be an object with a 'type', got {doc!r}")
    kind = doc["type"]
    if kind == "disk":
        unknown = set(doc) - {"type", "max_eigenvalue"}
        if unknown:
            raise SchemaError(f"unknown keys in disk domain: {sorted(unknown)}")
        bound = doc.get("max_eigenvalue", spectrum_bound)
        return DiskDomain(bound=bound, xtol=xtol, step=step, merge_rel=merge_rel, cache=cache)
    if kind == "ball":
        unknown = set(doc) - {"type", "dim", "entries"}
        if unknown:
            raise SchemaError(f"unknown keys in ball domain: {sorted(unknown)}")
        if "dim" not in doc:
            raise SchemaError("ball domain needs 'dim'")
        entries = _entries_from_docs(doc.get("entries"), merge_rel)
        return BallDomain(entries, dim=doc["dim"], xtol=xtol, step=step, merge_rel=merge_rel, cache=cache)
    if kind == "custom":
        unknown = set(doc) - {"type", "entries", "irr_dims"}
        if unknown:
            raise SchemaError(f"unknown keys in custom domain: {sorted(unknown)}")
        entries = _entries_from_docs(doc.get("entries"), merge_rel)
        table = doc.get("irr_dims")
        if table is not None:
            try:
                table = {int(k): int(v) for k, v in dict(table).items()}
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"bad irr_dims table: {exc}") from exc
        return CustomDomain(entries, irr_dim_table=table, merge_rel=merge_rel)
    raise SchemaError(f"unknown domain type {kind!r}")
