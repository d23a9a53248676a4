"""Algebraic model of the elliptic system's spectral linearization.

A :class:`SystemSpec` holds the block data of the linearization at the trivial
solution: the split p = p1 + p2 of components by the sign of the leading
coefficient, the eigenvalue multisets of the two symmetric blocks B1 and B2,
the nullity absorbed by the group orbit (``mu_b0``), and a reference to the
domain's Neumann spectrum.  From these the module derives

* the candidate parameter set ``Lambda = {alpha/b : b in sigma(B1)\\{0}}
  union {-alpha/b : b in sigma(B2)\\{0}}`` over Laplacian eigenvalues alpha,
* the isotypic decomposition ``V1(lambda0), V2(lambda0)`` of the kernel on the
  slice normal to the orbit, and
* the full eigenvalue list of the linearized operator on a spectral cutoff,
  with values ``(alpha - lambda*b)/(1 + alpha)`` on the B1 block and
  ``(-alpha - lambda*b)/(1 + alpha)`` on the B2 block.

The same relative tolerance drives eigenvalue merging, Lambda membership and
kernel matching, so the three stay consistent by construction.  Membership
and kernel lookups search the domain's :class:`~symbif.spectral.SpectrumIndex`
by bisection and apply that tolerance to the few neighbours found, so each
costs O(log n) in the number of eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NotAMember, SchemaError, ValidationError
from .spectral import (
    BallDomain,
    CustomDomain,
    DiskDomain,
    RepDescriptor,
    SpectrumEntry,
    close,
    domain_from_json,
)

__all__ = [
    "SystemSpec",
    "KernelReps",
    "LinearizationEigenvalue",
    "lambda_set",
    "lambda_membership",
    "kernel_reps",
    "linearization_eigenvalues",
    "epsilon_gap",
    "system_spec_from_json",
]

Domain = DiskDomain | BallDomain | CustomDomain


def _as_multiset(pairs, what: str) -> dict[float, int]:
    out: dict[float, int] = {}
    for value, mult in pairs:
        if not isinstance(mult, int) or isinstance(mult, bool) or mult <= 0:
            raise ValidationError(f"{what}: multiplicity {mult!r} must be a positive integer")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
            raise ValidationError(f"{what}: eigenvalue {value!r} must be a real number")
        out[value] = out.get(value, 0) + mult
    return out


@dataclass
class SystemSpec:
    """Block data of the linearization plus the spectral domain.

    ``sigma_b1`` and ``sigma_b2`` are eigenvalue -> multiplicity multisets of
    the two symmetric blocks; their total multiplicities must equal ``p1`` and
    ``p2``.  ``mu_b0`` is the nullity of the full block matrix carried by the
    orbit of trivial solutions.  The ``a9`` flag asserts the normalized shape
    B1 = diag(0,...,0,1,...,1), B2 = Id used by the closed-form bifurcation
    indices and the unboundedness certificates.
    """

    p1: int
    p2: int
    sigma_b1: dict[float, int] = field(default_factory=dict)
    sigma_b2: dict[float, int] = field(default_factory=dict)
    mu_b0: int = 0
    domain: Domain = field(default_factory=DiskDomain)
    a9: bool = False

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "mu_b0"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {v!r}")
        if self.p1 + self.p2 < 1:
            raise ValidationError("the system needs at least one component (p1 + p2 >= 1)")
        self.sigma_b1 = _as_multiset(self.sigma_b1.items(), "sigma_b1")
        self.sigma_b2 = _as_multiset(self.sigma_b2.items(), "sigma_b2")
        if sum(self.sigma_b1.values()) != self.p1:
            raise ValidationError(
                f"sigma_b1 multiplicities sum to {sum(self.sigma_b1.values())}, expected p1 = {self.p1}"
            )
        if sum(self.sigma_b2.values()) != self.p2:
            raise ValidationError(
                f"sigma_b2 multiplicities sum to {sum(self.sigma_b2.values())}, expected p2 = {self.p2}"
            )
        zero_mult = self.sigma_b1.get(0, 0) + self.sigma_b2.get(0, 0)
        if self.mu_b0 > zero_mult:
            raise ValidationError(
                f"mu_b0 = {self.mu_b0} exceeds the multiplicity {zero_mult} of 0 in the blocks"
            )
        if self.a9:
            expected_b1 = {v: m for v, m in ((0, self.mu_b0), (1, self.p1 - self.mu_b0)) if m > 0}
            expected_b2 = {1: self.p2} if self.p2 else {}
            if self.sigma_b1 != expected_b1 or self.sigma_b2 != expected_b2:
                raise ValidationError(
                    "a9 requires B1 = diag(0^mu, 1^(p1-mu)) and B2 = Id; "
                    f"got sigma_b1={self.sigma_b1!r}, sigma_b2={self.sigma_b2!r}"
                )

    # -- views ---------------------------------------------------------------

    def nonzero_b1(self) -> list[tuple[float, int]]:
        return sorted((b, m) for b, m in self.sigma_b1.items() if b != 0)

    def nonzero_b2(self) -> list[tuple[float, int]]:
        return sorted((b, m) for b, m in self.sigma_b2.items() if b != 0)

    def morse_plus(self) -> int:
        """Total multiplicity of positive eigenvalues over both blocks."""
        return sum(m for b, m in self.sigma_b1.items() if b > 0) + sum(
            m for b, m in self.sigma_b2.items() if b > 0
        )

    def morse_minus(self) -> int:
        """Total multiplicity of negative eigenvalues over both blocks."""
        return sum(m for b, m in self.sigma_b1.items() if b < 0) + sum(
            m for b, m in self.sigma_b2.items() if b < 0
        )

    @property
    def q1(self) -> int:
        """p1 - mu_b0, the effective multiplicity on the indefinite block."""
        return self.p1 - self.mu_b0

    def to_json(self) -> dict:
        def pack(sigma: dict[float, int]) -> list[dict]:
            return [{"value": b, "mult": m} for b, m in sorted(sigma.items())]

        dom: dict = {"type": self.domain.kind}
        if isinstance(self.domain, DiskDomain):
            if self.domain.bound is not None:
                dom["max_eigenvalue"] = self.domain.bound
        else:
            dom["entries"] = [e.to_json() for e in self.domain.entries]
            if isinstance(self.domain, BallDomain):
                dom["dim"] = self.domain.dim
            elif self.domain.irr_dim_table is not None:
                dom["irr_dims"] = {str(k): v for k, v in sorted(self.domain.irr_dim_table.items())}
        return {
            "p1": self.p1,
            "p2": self.p2,
            "b1": pack(self.sigma_b1),
            "b2": pack(self.sigma_b2),
            "mu_b0": self.mu_b0,
            "domain": dom,
            "a9": self.a9,
        }


def system_spec_from_json(doc, *, spectrum_bound=None, cache=None, xtol=None, merge_rel=None) -> SystemSpec:
    """Parse the system document schema.

    ``{"p1": int, "p2": int, "b1": [{"value": num, "mult": int}], "b2": [...],
    "mu_b0": int, "domain": {...}, "a9": bool}``.  Tolerances and the optional
    root cache are threaded into the constructed domain.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"system document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"p1", "p2", "b1", "b2", "mu_b0", "domain", "a9"}
    if unknown:
        raise SchemaError(f"unknown keys in system document: {sorted(unknown)}")
    for key in ("p1", "p2", "domain"):
        if key not in doc:
            raise SchemaError(f"system document needs '{key}'")

    def unpack(key: str) -> list[tuple[float, int]]:
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise SchemaError(f"'{key}' must be an array of {{value, mult}} objects")
        pairs = []
        for item in raw:
            if not isinstance(item, dict) or set(item) - {"value", "mult"} or "value" not in item:
                raise SchemaError(f"bad entry in '{key}': {item!r}")
            pairs.append((item["value"], item.get("mult", 1)))
        return pairs

    kwargs = {}
    if xtol is not None:
        kwargs["xtol"] = xtol
    if merge_rel is not None:
        kwargs["merge_rel"] = merge_rel
    domain = domain_from_json(doc["domain"], spectrum_bound=spectrum_bound, cache=cache, **kwargs)
    a9 = doc.get("a9", False)
    if not isinstance(a9, bool):
        raise SchemaError(f"'a9' must be a boolean, got {a9!r}")
    return SystemSpec(
        p1=doc["p1"],
        p2=doc["p2"],
        sigma_b1=_as_multiset(unpack("b1"), "b1"),
        sigma_b2=_as_multiset(unpack("b2"), "b2"),
        mu_b0=doc.get("mu_b0", 0),
        domain=domain,
        a9=a9,
    )


# ---------------------------------------------------------------------------
# Lambda, kernels, linearization
# ---------------------------------------------------------------------------


def _coverage_needed(spec: SystemSpec, lo: float, hi: float) -> float:
    """Largest Laplacian eigenvalue that could pair into the window [lo, hi]."""
    need = 0.0
    for b, _ in spec.nonzero_b1():
        need = max(need, hi * b if b > 0 else lo * b)
    for b, _ in spec.nonzero_b2():
        need = max(need, -lo * b if b > 0 else -hi * b)
    return need


def _with_margin(alpha: float, rel: float) -> float:
    return alpha * (1.0 + 10.0 * rel) + rel


def lambda_set(spec: SystemSpec, window: tuple[float, float]) -> list[float]:
    """Candidate bifurcation parameters in the closed window, ascending.

    Members are alpha/b for b in sigma(B1) without 0 and -alpha/b for b in
    sigma(B2) without 0; values agreeing within the merge tolerance are
    reported once.  Raises InsufficientSpectrum when the window demands
    eigenvalues beyond the loaded spectrum.
    """
    lo, hi = float(window[0]), float(window[1])
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        raise ValidationError(f"window must satisfy lo <= hi, got {window!r}")
    rel = spec.domain.merge_rel
    bs1, bs2 = spec.nonzero_b1(), spec.nonzero_b2()
    if not bs1 and not bs2:
        return []
    entries = spec.domain.entries_up_to(_with_margin(_coverage_needed(spec, lo, hi), rel))
    members: list[float] = []
    for b, _ in bs1:
        members.extend(e.eigenvalue / b + 0.0 for e in entries)  # +0.0 drops -0.0
    for b, _ in bs2:
        members.extend(-e.eigenvalue / b + 0.0 for e in entries)
    members = sorted(m for m in members if lo <= m <= hi)
    out: list[float] = []
    for m in members:
        if not out or not close(out[-1], m, rel):
            out.append(m)
    return out


def _matched_entries(spec: SystemSpec, lam: float):
    """The spectrum index and, for B1 and for B2, (mult, matched positions) per nonzero b.

    The spectrum is asked for the entries up to the largest |lam * b| plus
    the matching margin, so InsufficientSpectrum is raised exactly where the
    matching needs more of the spectrum than is available.
    """
    rel = spec.domain.merge_rel
    bs1, bs2 = spec.nonzero_b1(), spec.nonzero_b2()
    cap = max((abs(lam * b) for b, _ in bs1 + bs2), default=0.0)
    index, n = spec.domain.spectrum_index(_with_margin(cap, rel))
    # close(lam*b, -alpha) and close(-(lam*b), alpha) agree bit for bit
    v1 = [(mult, index.matches(lam * b, rel, n)) for b, mult in bs1]
    v2 = [(mult, index.matches(-(lam * b), rel, n)) for b, mult in bs2]
    return index, v1, v2


def lambda_membership(spec: SystemSpec, lam: float) -> bool:
    """Whether some spectral pair matches lam within the merge tolerance."""
    _, v1, v2 = _matched_entries(spec, lam)
    return any(hits for _, hits in v1 + v2)


@dataclass(eq=True)
class KernelReps:
    """Isotypic pieces V1, V2 of the Hessian kernel on the normal slice.

    ``matched`` (set by :func:`kernel_reps`, not compared) records whether
    some spectral pair matched the parameter, which is Lambda membership:
    a supplied eigenspace may be the zero representation, so a zero kernel
    does not rule a match out.
    """

    v1: RepDescriptor
    v2: RepDescriptor
    matched: bool = field(default=False, init=False, repr=False, compare=False)

    def is_zero(self) -> bool:
        return self.v1.is_zero() and self.v2.is_zero()

    def total_dim(self, irr_dims=None) -> int:
        return self.v1.total_dim(irr_dims) + self.v2.total_dim(irr_dims)

    def to_json(self) -> dict:
        return {"v1": self.v1.to_json(), "v2": self.v2.to_json()}


def kernel_reps(spec: SystemSpec, lambda0: float) -> KernelReps:
    """V1, V2 at lambda0: eigenspaces matched by lambda0*b = alpha resp. -alpha.

    Each match contributes the eigenspace repeated mu_B(b) times; b = 0 never
    matches (those directions belong to the orbit, not the normal slice).
    """
    index, *blocks = _matched_entries(spec, float(lambda0))
    pieces = []
    for block in blocks:
        trivial, irr = 0, {}
        for mult, hits in block:
            for i in hits:
                rep = index.entries[i].rep
                trivial += mult * rep.trivial_dim
                for label, m in rep.irreducibles.items():
                    irr[label] = irr.get(label, 0) + mult * m
        pieces.append(RepDescriptor(trivial, irr))
    kr = KernelReps(*pieces)
    kr.matched = any(hits for block in blocks for _, hits in block)
    return kr


@dataclass(eq=True)
class LinearizationEigenvalue:
    """One eigenvalue of the linearized operator on a spectral cutoff.

    ``vanishes`` flags the lambda-dependent kernel (a nonzero block eigenvalue
    b matched against the Laplacian eigenvalue); ``structural`` flags the
    (alpha = 0, b = 0) directions that are zero for every lambda and belong to
    the orbit of trivial solutions.
    """

    value: float
    multiplicity: int
    entry: SpectrumEntry
    block: str  # "B1" | "B2"
    b: float
    vanishes: bool
    structural: bool


def linearization_eigenvalues(
    spec: SystemSpec, lam: float, k_max: int
) -> list[LinearizationEigenvalue]:
    """All eigenvalues of the linearization on the first ``k_max`` eigenspaces.

    B1 block: (alpha - lambda*b)/(1 + alpha); B2 block:
    (-alpha - lambda*b)/(1 + alpha); multiplicity is the eigenspace dimension
    times the block multiplicity of b.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise ValidationError(f"k_max must be an integer >= 1, got {k_max!r}")
    lam = float(lam)
    rel = spec.domain.merge_rel
    entries = spec.domain.first_entries(k_max)
    irr_dims = spec.domain.irr_dims()
    out: list[LinearizationEigenvalue] = []
    for e in entries:
        dim = e.rep.total_dim(irr_dims)
        alpha = e.eigenvalue
        for b, mult in sorted(spec.sigma_b1.items()):
            out.append(
                LinearizationEigenvalue(
                    value=(alpha - lam * b) / (1.0 + alpha),
                    multiplicity=dim * mult,
                    entry=e,
                    block="B1",
                    b=b,
                    vanishes=b != 0 and close(lam * b, alpha, rel),
                    structural=b == 0 and alpha == 0.0,
                )
            )
        for b, mult in sorted(spec.sigma_b2.items()):
            out.append(
                LinearizationEigenvalue(
                    value=(-alpha - lam * b) / (1.0 + alpha),
                    multiplicity=dim * mult,
                    entry=e,
                    block="B2",
                    b=b,
                    vanishes=b != 0 and close(lam * b, -alpha, rel),
                    structural=b == 0 and alpha == 0.0,
                )
            )
    return out


def epsilon_gap(lambda0: float, members: Sequence[float], *, rel: float = 1e-8) -> float:
    """Half the distance from lambda0 to the nearest other member (1 if alone).

    ``lambda0`` must itself be a member (within the matching tolerance);
    otherwise NotAMember is raised.
    """
    lam = float(lambda0)
    idx = [i for i, m in enumerate(members) if close(lam, m, rel)]
    if not idx:
        raise NotAMember(f"{lambda0!r} is not a member of the supplied parameter list")
    others = [m for i, m in enumerate(members) if i not in idx]
    if not others:
        return 1.0
    return min(abs(lam - m) for m in others) / 2.0
