"""Global-bifurcation verdicts and exact bifurcation indices.

For a candidate parameter lambda0 != 0 the sufficient criterion is
representation-theoretic: a global bifurcation of solution orbits occurs
whenever the kernel pieces V1(lambda0) and V2(lambda0) are not equivalent
modulo even-dimensional trivial summands (their degrees of -Id differ, so the
jump of the degree across lambda0 is nonzero).  At lambda0 = 0 the criterion
is the parity test (-1)^{m+(B)} != (-1)^{m-(B)}.  Both are sufficient only,
so the negative outcome is always reported as Inconclusive.

On the disk the package also computes elements of the Euler ring of SO(2):
the normalized degree difference behind the criterion, and, in the normalized
block form (a9), the closed-form bifurcation index

    lambda0 = alpha_k0 > 0:  D(V(k0-1))^q1 * (D(E_k0)^q1 - I)
    lambda0 = -alpha_k0 < 0: D(V(k0))^-p2 * (D(E_k0)^p2 - I)
    lambda0 = 0:             ((-1)^q1 - (-1)^p2) * I

with D = deg(-Id, B(.)), E_k0 the eigenspace of alpha_k0, V(n) the sum of the
first n eigenspaces and q1 = p1 - mu_b0.  A family of indices whose sum is
nonzero excludes the bounded alternative for any continuum returning exactly
at those parameters; the parity conditions of the unboundedness certificates
are checked exactly.

A verdict costs one bisection, O(log n) in the number n of eigenvalues,
plus work proportional to the ring elements it returns, so :func:`analyze`
is linear in the number of candidates.  The domain's spectrum index finds
k0 by bisection and holds V(n) as a prefix table, so
D(V(n)) = (-1)^t (I - sum_k m_k chi[k]) is read off without summing
eigenspaces; the powers use the closed form (u; c)^n = (u^n; n u^(n-1) c)
of :mod:`symbif.euler`.  :func:`analyze` looks the kernel up once per
candidate and takes Lambda membership from the same lookup.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PreconditionError, UnsupportedDomain, ValidationError, _real, _repr, _show
from .euler import EulerSO2, deg_minus_id, rep_equiv_mod_even_trivial
from .spectral import BallDomain, DiskDomain, SpectrumEntry, close
from .system import (
    KernelReps,
    SystemSpec,
    _with_margin,
    kernel_reps,
    lambda_set,
)

__all__ = [
    "BIFURCATES",
    "INCONCLUSIVE",
    "UNBOUNDED",
    "NO_VERDICT",
    "GlobCheck",
    "UnboundedReport",
    "BifurcationVerdict",
    "check_glob",
    "check_glob_zero",
    "bif_difference",
    "bif_a9",
    "rabinowitz_excludes_bounded",
    "unbounded_verdict",
    "analyze",
    "enumerate_zero_sum_subsets",
]

BIFURCATES = "Bifurcates"
INCONCLUSIVE = "Inconclusive"

J_REP_NONEQUIV = "RepNonEquivalence"
J_ZERO_PARITY = "ZeroCaseParity"
J_KERNEL_EMPTY = "KernelEmpty"
J_EQUIV_MOD_EVEN = "EquivalentModEvenTrivial"

UNBOUNDED = "Unbounded"
NO_VERDICT = "NoVerdict"

#: most members :func:`enumerate_zero_sum_subsets` walks (it visits 2^n - 1 subsets)
MAX_SUBSET_MEMBERS = 20


class GlobCheck:
    """Outcome of the sufficient global-bifurcation criterion at one parameter."""

    def __init__(self, glob: str, justification: str) -> None:
        self.glob = glob
        self.justification = justification

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.glob, self.justification) == (other.glob, other.justification)

    def __repr__(self) -> str:
        return _repr(self, "glob", "justification")


def check_glob(spec: SystemSpec, lambda0: float) -> GlobCheck:
    """Criterion at lambda0 != 0: kernel pieces inequivalent mod even trivial."""
    if lambda0 == 0.0:
        raise PreconditionError("check_glob needs lambda0 != 0; use check_glob_zero at 0")
    return _glob_from_kernel(kernel_reps(spec, lambda0))  # kernel_reps checks lambda0


def _glob_from_kernel(kr: KernelReps) -> GlobCheck:
    if kr.is_zero():
        return GlobCheck(INCONCLUSIVE, J_KERNEL_EMPTY)
    if rep_equiv_mod_even_trivial(kr.v1, kr.v2):
        return GlobCheck(INCONCLUSIVE, J_EQUIV_MOD_EVEN)
    return GlobCheck(BIFURCATES, J_REP_NONEQUIV)


def check_glob_zero(spec: SystemSpec) -> GlobCheck:
    """Criterion at lambda0 = 0: odd total Morse index of the block matrix."""
    if (spec.morse_plus() + spec.morse_minus()) % 2 == 1:
        return GlobCheck(BIFURCATES, J_ZERO_PARITY)
    return GlobCheck(INCONCLUSIVE, J_ZERO_PARITY)


def _require_disk(spec: SystemSpec, op: str) -> None:
    if not isinstance(spec.domain, DiskDomain):
        raise UnsupportedDomain(
            f"{op} computes an element of the Euler ring of SO(2) and needs the disk domain; "
            "use check_glob for verdict-level results on other domains"
        )


def bif_difference(spec: SystemSpec, lambda0: float) -> EulerSO2:
    """Normalized degree difference whose nonvanishing detects bifurcation.

    For lambda0 > 0: deg(-Id, B(V1)) - deg(-Id, B(V2)); the order is reversed
    for lambda0 < 0.  It differs from the bifurcation index only by an
    invertible factor, so it is nonzero exactly when the index is.
    """
    _require_disk(spec, "bif_difference")
    if lambda0 == 0.0:
        raise PreconditionError("bif_difference needs lambda0 != 0")
    kr = kernel_reps(spec, lambda0)  # checks lambda0
    own, other = (kr.v1, kr.v2) if lambda0 > 0 else (kr.v2, kr.v1)
    return deg_minus_id(own) - deg_minus_id(other)


def bif_a9(spec: SystemSpec, lambda0: float) -> EulerSO2:
    """Exact bifurcation index on the disk in the normalized block form.

    Requires ``spec.a9`` and lambda0 in Lambda union {0}; see the module
    docstring for the three closed forms.
    """
    if not spec.a9:
        raise PreconditionError("bif_a9 needs the normalized block form (a9 flag)")
    _require_disk(spec, "bif_a9")
    lam = _real(lambda0, "lambda0")
    q1, p2 = spec.q1, spec.p2
    if close(lam, 0.0):
        return ((-1) ** q1 - (-1) ** p2) * EulerSO2.one()
    # D(V(m))^power * (D(E_k0)^|power| - I), (m, power) = (k0 - 1, q1) above 0 and (k0, -p2) below
    power, side, needs = (q1, "positive", "p1 - mu_b0") if lam > 0 else (-p2, "negative", "p2")
    if power == 0:
        raise PreconditionError(f"{side} parameters need {needs} > 0; {lambda0!r} is not in Lambda")
    alpha = abs(lam)
    index, n = spec.domain.spectrum_index(_with_margin(alpha))
    hits = index.matches(alpha, n)
    if not hits:
        raise PreconditionError(f"{alpha!r} is not an eigenvalue of the loaded spectrum")
    k0 = hits[0] + 1  # 1-based, as in the closed forms
    eig_deg = deg_minus_id(index.entries[k0 - 1].rep)
    prefix = deg_minus_id(index.prefix_rep(k0 - 1 if lam > 0 else k0))
    return prefix**power * (eig_deg ** abs(power) - EulerSO2.one())


def rabinowitz_excludes_bounded(indices: Iterable[EulerSO2]) -> bool:
    """True when the indices sum to a nonzero ring element.

    A bounded continuum meeting the trivial solutions exactly at a parameter
    family forces the family's bifurcation indices to sum to zero; a nonzero
    sum therefore certifies that any continuum meeting exactly these
    parameters is unbounded.
    """
    total = EulerSO2.zero()
    for ix in indices:
        total = total + ix
    return not total.is_zero()


#: what boundedness of the continuum at sign * alpha would force, by sign
_BOUNDED_WOULD_IMPLY = {
    1: ("p2 > 0", "p2 odd", "continuum returns to trivial solutions at negative parameters"),
    -1: ("p1 - mu_b0 > 0", "p1 - mu_b0 odd", "continuum returns to trivial solutions at positive parameters"),
}


class UnboundedReport:
    """Unboundedness certificate plus the structural facts boundedness would force."""

    def __init__(self, verdict: str, bounded_would_imply: tuple[str, ...] = ()) -> None:
        self.verdict = verdict
        self.bounded_would_imply = bounded_would_imply

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.verdict, self.bounded_would_imply) == (other.verdict, other.bounded_would_imply)

    def __repr__(self) -> str:
        return _repr(self, "verdict", "bounded_would_imply")


def _eigenspace_nontrivial(spec: SystemSpec, entry: SpectrumEntry) -> bool:
    if isinstance(spec.domain, BallDomain):
        return spec.domain.rep_nontrivial(entry)
    return entry.rep.has_nontrivial()


def unbounded_verdict(spec: SystemSpec, entry: SpectrumEntry, sign: int) -> UnboundedReport:
    """Certificate for the continuum at sign * alpha, alpha = entry.eigenvalue.

    With q1 = p1 - mu_b0 and q2 = p2: for sign +1 the continuum is certified
    unbounded when q1 > 0 is even, q2 is even and the eigenspace is a
    nontrivial representation; for sign -1 the roles of q1 and q2 swap.
    Everything else is NoVerdict.  When one-sided parity holds (q even and
    positive on the matching side, nontrivial eigenspace) the report also
    carries what boundedness of the continuum would force.
    """
    if not spec.a9:
        raise PreconditionError("unbounded_verdict needs the normalized block form (a9 flag)")
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {_show(sign)}")
    own, other = (spec.q1, spec.p2) if sign == 1 else (spec.p2, spec.q1)
    nontrivial = _eigenspace_nontrivial(spec, entry)
    one_sided = own > 0 and own % 2 == 0 and nontrivial
    verdict = UNBOUNDED if one_sided and other % 2 == 0 else NO_VERDICT
    return UnboundedReport(verdict, _BOUNDED_WOULD_IMPLY[sign] if one_sided else ())


class BifurcationVerdict:
    """Per-parameter report assembled by :func:`analyze`."""

    def __init__(
        self,
        lambda0: float,
        in_lambda: bool,
        kernel: KernelReps,
        glob: str,
        justification: str,
        bif_element: EulerSO2 | None,
        unbounded: str,
    ) -> None:
        self.lambda0 = lambda0
        self.in_lambda = in_lambda
        self.kernel = kernel
        self.glob = glob
        self.justification = justification
        self.bif_element = bif_element
        self.unbounded = unbounded

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.lambda0, self.in_lambda, self.kernel, self.glob, self.justification, self.bif_element, self.unbounded
        ) == (
            other.lambda0, other.in_lambda, other.kernel, other.glob, other.justification, other.bif_element,
            other.unbounded,
        )

    def __repr__(self) -> str:
        return _repr(self, "lambda0", "in_lambda", "kernel", "glob", "justification", "bif_element", "unbounded")

    def to_json(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "in_lambda": self.in_lambda,
            "kernel": self.kernel.to_json(),
            "glob": self.glob,
            "justification": self.justification,
            "bif": None if self.bif_element is None else self.bif_element.to_json(),
            "unbounded": self.unbounded,
        }


def analyze(spec: SystemSpec, window: tuple[float, float]) -> list[BifurcationVerdict]:
    """One verdict per candidate parameter in the window, ascending.

    Candidates are the members of Lambda in the window together with 0 when
    the window contains it.  Exact index elements are attached only in the
    normalized block form on the disk, where the closed forms apply.  Each
    candidate costs one bisection of the spectrum index, O(log n).
    """
    candidates = lambda_set(spec, window)  # checks the window
    if window[0] <= 0.0 <= window[1] and not any(close(c, 0.0) for c in candidates):
        candidates.append(0.0)
    candidates.sort()
    exact = spec.a9 and isinstance(spec.domain, DiskDomain)
    verdicts = []
    for lam in candidates:
        at_zero = close(lam, 0.0)
        kr = kernel_reps(spec, lam)
        gc = check_glob_zero(spec) if at_zero else _glob_from_kernel(kr)
        bif = bif_a9(spec, lam) if exact else None
        unb = NO_VERDICT
        if spec.a9 and not at_zero:
            # a9 pairs only b = 1, so the one matched entry is the eigenspace of |lam|
            unb = unbounded_verdict(spec, kr.matched[0], 1 if lam > 0 else -1).verdict
        verdicts.append(
            BifurcationVerdict(
                lambda0=0.0 if at_zero else lam,
                in_lambda=bool(kr.matched),
                kernel=kr,
                glob=gc.glob,
                justification=gc.justification,
                bif_element=bif,
                unbounded=unb,
            )
        )
    return verdicts


def enumerate_zero_sum_subsets(indices: Sequence[tuple[float, EulerSO2]]) -> list[tuple[float, ...]]:
    """Nonempty parameter subsets whose indices sum to zero.

    These are the only families at which a bounded continuum could return to
    the trivial solutions; every other subset is excluded.  Subsets come in
    the order of ``itertools.combinations`` by size.  Exponential in the
    number of members, so refuses more than ``MAX_SUBSET_MEMBERS``.

    Each index becomes one integer: its coefficient vector read as balanced
    digits in a base above twice the largest possible partial sum of any
    coordinate, so a subset sums to the zero element exactly when its
    integers sum to 0.  A depth-first walk visits every subset once, adding
    one integer per step, in lexicographic order of positions; sorting the
    hits by size (stably) gives the combinations order.  Memory is O(n + hits).
    """
    if len(indices) > MAX_SUBSET_MEMBERS:
        raise ValidationError(
            f"subset enumeration is exponential; refusing {len(indices)} > {MAX_SUBSET_MEMBERS} members"
        )
    lams = [lam for lam, _ in indices]
    keys = sorted({k for _, ix in indices for k in ix.cyclic})
    coords = [[ix.unit, *(ix.coefficient(k) for k in keys)] for _, ix in indices]
    base = 2 * max((sum(abs(c[j]) for c in coords) for j in range(len(keys) + 1)), default=0) + 1
    weights = [sum(v * base**j for j, v in enumerate(c)) for c in coords]
    hits: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(start: int, total: int) -> None:
        for i in range(start, len(weights)):
            chosen.append(i)
            s = total + weights[i]
            if s == 0:
                hits.append(tuple(chosen))
            walk(i + 1, s)
            chosen.pop()

    walk(0, 0)
    hits.sort(key=len)
    return [tuple(lams[i] for i in hit) for hit in hits]
