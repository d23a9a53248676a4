"""Algebraic model of the elliptic system's spectral linearization.

A :class:`SystemSpec` holds the block data of the linearization at the trivial
solution: the split p = p1 + p2 of components by the sign of the leading
coefficient, the eigenvalue multisets of the two symmetric blocks B1 and B2,
the nullity absorbed by the group orbit (``mu_b0``), and a reference to the
domain's Neumann spectrum.  From these the module derives

* the candidate parameter set ``Lambda = {s*alpha/b : b in sigma(B_s)\\{0}}``
  over Laplacian eigenvalues alpha, with block sign s = +1 for B1 and -1 for
  B2 (the blocks carry opposite signs of the Laplacian),
* the isotypic decomposition ``V1(lambda0), V2(lambda0)`` of the kernel on the
  slice normal to the orbit, and
* the full eigenvalue list of the linearized operator on a spectral cutoff,
  with value ``(s*alpha - lambda*b)/(1 + alpha)`` on block B_s.

Each formula is written once over the signed blocks; IEEE negation is exact,
so ``-(alpha/b) == alpha/(-b)`` and the sign costs no rounding.

One relative tolerance, ``MERGE_REL``, drives eigenvalue merging, Lambda
membership and kernel matching, so the three stay consistent.  The spectral
pairs of a window are sorted once by the parameter at which each vanishes,
and one walk up them gives every candidate's kernel.  The walk and
:func:`linearization_eigenvalues` match a pair against a parameter by the
one test ``close(s*(lam*b), alpha)``.  A single lookup (:func:`kernel_reps`,
:func:`lambda_membership`) is that walk over [lambda0, lambda0].  A
parameter that is not a finite number raises ValidationError, as does a
spec that is not a SystemSpec.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from . import _EXPORTS
from .errors import SchemaError, ValidationError, _bool, _int, _object, _real, _Record, _show, _window
from .euler import SO2Rep
from .spectral import MERGE_REL, CustomDomain, DiskDomain, SpectrumEntry, close, domain_from_json

__all__ = [*_EXPORTS["system"]]

Domain = DiskDomain | CustomDomain


def _as_multiset(pairs, what: str) -> dict:
    out = {}
    for value, mult in pairs:
        # a wrong type is a SchemaError, as for p1 and p2; the value itself is kept, so an integer stays one
        _int(mult, f"{what}: multiplicity", 1, SchemaError, ValidationError)
        _real(value, f"{what}: eigenvalue", error=SchemaError, invalid=ValidationError)
        out[value] = out.get(value, 0) + mult
    return out


class SystemSpec(_Record):
    """Block data of the linearization plus the spectral domain.

    ``sigma_b1`` and ``sigma_b2`` are eigenvalue -> multiplicity multisets of
    the two symmetric blocks; their total multiplicities must equal ``p1`` and
    ``p2``.  ``mu_b0`` is the nullity of the full block matrix carried by the
    orbit of trivial solutions.  The ``a9`` flag asserts the normalized shape
    B1 = diag(0,...,0,1,...,1), B2 = Id used by the closed-form bifurcation
    indices and the unboundedness certificates.
    """

    _fields = ("p1", "p2", "sigma_b1", "sigma_b2", "mu_b0", "domain", "a9")

    def __init__(
        self,
        p1: int,
        p2: int,
        sigma_b1: dict[float, int] | None = None,
        sigma_b2: dict[float, int] | None = None,
        mu_b0: int = 0,
        domain: Domain | None = None,
        a9: bool = False,
    ) -> None:
        self.p1 = p1
        self.p2 = p2
        self.sigma_b1 = {} if sigma_b1 is None else sigma_b1
        self.sigma_b2 = {} if sigma_b2 is None else sigma_b2
        self.mu_b0 = mu_b0
        self.domain = DiskDomain() if domain is None else domain
        self.a9 = _bool(a9, "a9")
        if not isinstance(self.domain, Domain):
            raise ValidationError(f"domain must be a DiskDomain or CustomDomain, got {_show(domain)}")
        for name in ("p1", "p2", "mu_b0"):  # the one check, so a wrong type is a SchemaError as in a document
            _int(getattr(self, name), name, 0, SchemaError, ValidationError)
        if self.p1 + self.p2 < 1:
            raise ValidationError("the system needs at least one component (p1 + p2 >= 1)")
        for name, p in (("sigma_b1", "p1"), ("sigma_b2", "p2")):
            sigma = getattr(self, name)
            if not isinstance(sigma, Mapping):
                raise ValidationError(f"{name} must be a mapping of eigenvalue to multiplicity, got {_show(sigma)}")
            sigma = _as_multiset(sigma.items(), name)
            setattr(self, name, sigma)
            total, expected = sum(sigma.values()), getattr(self, p)
            if total != expected:
                raise ValidationError(f"{name} multiplicities sum to {_show(total)}, expected {p} = {_show(expected)}")
        zero_mult = self.sigma_b1.get(0, 0) + self.sigma_b2.get(0, 0)
        if self.mu_b0 > zero_mult:
            raise ValidationError(
                f"mu_b0 = {_show(self.mu_b0)} exceeds the multiplicity {_show(zero_mult)} of 0 in the blocks"
            )
        if self.a9:
            expected_b1 = {v: m for v, m in ((0, self.mu_b0), (1, self.p1 - self.mu_b0)) if m > 0}
            expected_b2 = {1: self.p2} if self.p2 else {}
            if self.sigma_b1 != expected_b1 or self.sigma_b2 != expected_b2:
                raise ValidationError(
                    "a9 requires B1 = diag(0^mu, 1^(p1-mu)) and B2 = Id; "
                    f"got sigma_b1={_show(self.sigma_b1)}, sigma_b2={_show(self.sigma_b2)}"
                )

    # -- views ---------------------------------------------------------------

    def _blocks(self) -> list[tuple[int, float, int]]:
        """``(s, b, mult)`` for the nonzero b of B1 (s = +1), then of B2 (s = -1), each block by ascending b."""
        signed = ((1, self.sigma_b1), (-1, self.sigma_b2))
        return [(s, b, m) for s, sigma in signed for b, m in sorted(sigma.items()) if b != 0]

    def morse_plus(self) -> int:
        """Total multiplicity of positive eigenvalues over both blocks."""
        return sum(m for _, b, m in self._blocks() if b > 0)

    def morse_minus(self) -> int:
        """Total multiplicity of negative eigenvalues over both blocks."""
        return sum(m for _, b, m in self._blocks() if b < 0)

    @property
    def q1(self) -> int:
        """p1 - mu_b0, the effective multiplicity on the indefinite block."""
        return self.p1 - self.mu_b0

    def to_json(self) -> dict:
        def pack(sigma: dict[float, int]) -> list[dict]:
            return [{"value": b, "mult": m} for b, m in sorted(sigma.items())]

        return {
            "p1": self.p1,
            "p2": self.p2,
            "b1": pack(self.sigma_b1),
            "b2": pack(self.sigma_b2),
            "mu_b0": self.mu_b0,
            "domain": self.domain.to_json(),
            "a9": self.a9,
        }


def _spec(spec) -> SystemSpec:
    """``spec`` if it is a SystemSpec: the one check of a spec, made where a call first reads it."""
    if not isinstance(spec, SystemSpec):
        raise ValidationError(f"spec must be a SystemSpec, got {_show(spec)}")
    return spec


def system_spec_from_json(doc, *, spectrum_bound=None, cache=None) -> SystemSpec:
    """Parse the system document schema.

    ``{"p1": int, "p2": int, "b1": [{"value": num, "mult": int}], "b2": [...],
    "mu_b0": int, "domain": {...}, "a9": bool}``.  The optional root cache,
    which carries the root tolerance, is threaded into the constructed
    domain, whose eigenvalues are merged and matched at the one tolerance
    ``MERGE_REL``.
    """
    _object(doc, "system document", {"p1", "p2", "b1", "b2", "mu_b0", "domain", "a9"}, ("p1", "p2", "domain"))

    def unpack(key: str) -> dict:
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise SchemaError(f"'{key}' must be an array of {{value, mult}} objects")
        pairs = []
        for item in raw:
            _object(item, f"'{key}' entry", {"value", "mult"}, ("value",))
            pairs.append((item["value"], item.get("mult", 1)))
        return _as_multiset(pairs, key)

    domain = domain_from_json(doc["domain"], spectrum_bound=spectrum_bound, cache=cache)
    a9 = _bool(doc.get("a9", False), "'a9'", SchemaError)
    return SystemSpec(
        p1=doc["p1"],
        p2=doc["p2"],
        sigma_b1=unpack("b1"),
        sigma_b2=unpack("b2"),
        mu_b0=doc.get("mu_b0", 0),
        domain=domain,
        a9=a9,
    )


# ---------------------------------------------------------------------------
# Lambda, kernels, linearization
# ---------------------------------------------------------------------------


def _covered_entries(spec: SystemSpec, lo: float, hi: float) -> list[SpectrumEntry]:
    """The entries that could pair into the window [lo, hi]: up to the largest s*lam*b there, plus a margin.

    Raises InsufficientSpectrum when that reach lies beyond the loaded spectrum.
    """
    reach = max([0.0, *(s * (hi if s * b > 0 else lo) * b for s, b, _ in spec._blocks())])
    return spec.domain.entries_up_to(reach * (1.0 + 10.0 * MERGE_REL) + MERGE_REL)


def _spectral_pairs(spec: SystemSpec, window: tuple[float, float]):
    """The checked window, the covered entries, the signed blocks and every spectral pair, sorted.

    ``blocks`` is ``spec._blocks()``, (s, b, mult) per nonzero b.  Pair
    (m, k, i) puts entry i against blocks[k]: m = alpha_i/(s*b) + 0.0 is the
    parameter at which the pair vanishes (+0.0 drops -0.0), and the pairs
    are sorted by (m, k, i).  The entries reach
    every eigenvalue that could pair into the window, and the pairs are not
    cut to the window: a pair just outside it may still match a candidate
    inside.  Raises InsufficientSpectrum when that reach lies beyond the
    loaded spectrum.
    """
    lo, hi = (_real(w, "window entry", finite=False) for w in _window(window))
    if lo > hi:
        raise ValidationError(f"window must satisfy lo <= hi, got {window!r}")
    blocks = _spec(spec)._blocks()
    if not blocks:
        return lo, hi, [], blocks, []
    entries = _covered_entries(spec, lo, hi)
    pairs = sorted(
        (e.eigenvalue / (s * b) + 0.0, k, i) for k, (s, b, _) in enumerate(blocks) for i, e in enumerate(entries)
    )
    return lo, hi, entries, blocks, pairs


def _merged(pairs, lo: float, hi: float) -> list[float]:
    """The pair values in [lo, hi], ascending, each reported once within the merge tolerance."""
    out: list[float] = []
    for m, _, _ in pairs:
        if lo <= m <= hi and (not out or not close(out[-1], m)):
            out.append(m)
    return out


def lambda_set(spec: SystemSpec, window: tuple[float, float]) -> list[float]:
    """Candidate bifurcation parameters in the closed window, ascending.

    Members are s*alpha/b for b in sigma(B_s) without 0, s = +1 for B1 and
    -1 for B2; values agreeing within the merge tolerance are reported once.
    Raises InsufficientSpectrum when the window demands eigenvalues beyond
    the loaded spectrum.
    """
    lo, hi, _, _, pairs = _spectral_pairs(spec, window)
    return _merged(pairs, lo, hi)


def lambda_membership(spec: SystemSpec, lam: float) -> bool:
    """Whether some spectral pair matches lam within the merge tolerance."""
    return bool(kernel_reps(spec, lam).matched)


class KernelReps(_Record):
    """Isotypic pieces V1, V2 of the Hessian kernel on the normal slice.

    ``matched`` (not compared, not shown) holds the spectrum entries that some
    nonzero b paired with the parameter, B1 pairs first.  It is nonempty
    exactly on Lambda: a supplied eigenspace may be the zero representation,
    so a zero kernel does not rule a match out.
    """

    _fields = ("v1", "v2")

    def __init__(self, v1: SO2Rep, v2: SO2Rep, matched: tuple[SpectrumEntry, ...] = ()) -> None:
        self.v1 = v1
        self.v2 = v2
        self.matched = matched

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
    The matched spectrum entries come along as ``matched``.
    """
    lam = _real(lambda0, "lambda0")
    _, _, entries, blocks, pairs = _spectral_pairs(spec, (lam, lam))
    return _swept_kernels(entries, blocks, pairs, [lam])[0]


def _swept_kernels(entries, blocks, pairs, lams: Sequence[float]) -> list[KernelReps]:
    """The kernel at each of the ascending ``lams``, its matched entries in ``matched`` (none off Lambda).

    ``entries``, ``blocks`` and ``pairs`` come from :func:`_spectral_pairs`
    over a window holding every lam.  A pair (m, k, i) with b = blocks[k]
    can match lam only if |lam - m| <= MERGE_REL * max(1/|b|, |lam|, |m|),
    and |m| <= |lam| / (1 - MERGE_REL) then; so one window moving up the
    sorted pairs, twice that wide at the largest 1/|b|, holds every match.
    Each pair in it is decided by ``close(s*(lam*b), alpha_i)``, the one
    matching test, and each hit adds its eigenspace mult times to V1
    (s = +1) or V2 (s = -1), in the order of ``matched``: B1 first, by b,
    by position.  A lone hit, nearly every candidate, is one scaled copy of
    its eigenspace and a zero rep; no kernel shares an entry's rep.
    """
    inv_b = max((1.0 / abs(b) for _, b, _ in blocks), default=0.0)
    alphas = [e.eigenvalue for e in entries]
    out: list[KernelReps] = []
    start, end = 0, len(pairs)
    for lam in lams:
        scale = max(inv_b, abs(lam))
        reach = 2.0 * MERGE_REL * scale / (1.0 - MERGE_REL) + 4.0 * math.ulp(scale)
        lowest, highest = lam - reach, lam + reach
        while start < end and pairs[start][0] < lowest:
            start += 1
        hits = []
        for j in range(start, end):
            m, k, i = pairs[j]
            if m > highest:
                break
            s, b, _ = blocks[k]
            if close(s * (lam * b), alphas[i]):
                hits.append((k, i))
        if len(hits) == 1:  # mult copies of one eigenspace on its block's side, the zero rep on the other
            ((k, i),) = hits
            s, _, mult = blocks[k]
            rep = entries[i].rep
            piece = SO2Rep._make(mult * rep.trivial_dim, {label: mult * m for label, m in rep.irreducibles.items()})
            v1, v2 = (piece, SO2Rep._make(0, {})) if s == 1 else (SO2Rep._make(0, {}), piece)
            out.append(KernelReps(v1, v2, (entries[i],)))
            continue
        hits.sort()
        trivial, irr = {1: 0, -1: 0}, {1: {}, -1: {}}
        for k, i in hits:
            s, _, mult = blocks[k]
            rep, table = entries[i].rep, irr[s]
            trivial[s] += mult * rep.trivial_dim
            for label, m in rep.irreducibles.items():
                table[label] = table.get(label, 0) + mult * m
        v1, v2 = (SO2Rep._make(trivial[s], irr[s]) for s in (1, -1))
        out.append(KernelReps(v1, v2, matched=tuple(entries[i] for _, i in hits)))
    return out


class LinearizationEigenvalue(_Record):
    """One eigenvalue of the linearized operator on a spectral cutoff.

    ``vanishes`` flags the lambda-dependent kernel (a nonzero block eigenvalue
    b matched against the Laplacian eigenvalue); ``structural`` flags the
    (alpha = 0, b = 0) directions that are zero for every lambda and belong to
    the orbit of trivial solutions.
    """

    _fields = ("value", "multiplicity", "entry", "block", "b", "vanishes", "structural")

    def __init__(
        self,
        value: float,
        multiplicity: int,
        entry: SpectrumEntry,
        block: str,  # "B1" | "B2"
        b: float,
        vanishes: bool,
        structural: bool,
    ) -> None:
        self.value = value
        self.multiplicity = multiplicity
        self.entry = entry
        self.block = block
        self.b = b
        self.vanishes = vanishes
        self.structural = structural


def linearization_eigenvalues(spec: SystemSpec, lam: float, k_max: int) -> list[LinearizationEigenvalue]:
    """All eigenvalues of the linearization on the first ``k_max`` eigenspaces.

    Block B_s (s = +1 for B1, -1 for B2): (s*alpha - lambda*b)/(1 + alpha);
    multiplicity is the eigenspace dimension times the block multiplicity of
    b.  Per eigenspace, the B1 rows come first, each block by ascending b.
    """
    lam = _real(lam, "lambda0")
    entries = _spec(spec).domain.first_entries(k_max)  # checks k_max
    irr_dims = spec.domain.irr_dim_table
    out: list[LinearizationEigenvalue] = []
    for e in entries:
        dim = e.rep.total_dim(irr_dims)
        alpha = e.eigenvalue
        for s, block, sigma in ((1, "B1", spec.sigma_b1), (-1, "B2", spec.sigma_b2)):
            for b, mult in sorted(sigma.items()):
                out.append(
                    LinearizationEigenvalue(
                        value=(s * alpha - lam * b) / (1.0 + alpha),
                        multiplicity=dim * mult,
                        entry=e,
                        block=block,
                        b=b,
                        vanishes=b != 0 and close(s * (lam * b), alpha),
                        structural=b == 0 and alpha == 0.0,
                    )
                )
    return out

