"""Global-bifurcation verdicts and exact bifurcation indices.

For a candidate parameter lambda0 != 0 the sufficient criterion is
representation-theoretic: a global bifurcation of solution orbits occurs
whenever the kernel pieces V1(lambda0) and V2(lambda0) are not equivalent
modulo even-dimensional trivial summands (their degrees of -Id differ, so the
jump of the degree across lambda0 is nonzero).  At lambda0 = 0 the criterion
is the parity test (-1)^{m+(B)} != (-1)^{m-(B)}.  Both are sufficient only,
so the negative outcome is always reported as Inconclusive.  A finite
parameter is 0 when ``close(lambda0, 0.0)``, |lambda0| <= ``MERGE_REL``:
:func:`analyze` and :func:`bif_a9` take the zero case there, and
:func:`check_glob` and :func:`bif_difference` refuse it (:func:`_nonzero`).

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

:func:`analyze` sorts the spectral pairs (sign, block eigenvalue, entry)
once, by the parameter at which each vanishes; one walk up them gives
every candidate, its kernel and its Lambda membership.  a9 pairs only
b = 1, so E_k0 is the kernel's first matched entry, where the index and the
unboundedness certificate read it; one ascending sweep of the spectrum gives
every index, and the parities behind the certificate are decided once per
call.  So :func:`analyze` costs one sort plus time linear in the pairs and
candidates.  A single parameter (:func:`bif_a9`, :func:`check_glob`,
:func:`bif_difference`) takes the same walk over the one candidate; many a9
parameters (``rabinowitz``) share one sort and one walk.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

from . import _EXPORTS
from .errors import Error, PreconditionError, UnsupportedDomain, ValidationError, _real, _Record, _show
from .euler import EulerSO2, SO2Rep, deg_minus_id, rep_equiv_mod_even_trivial
from .spectral import DiskDomain, SpectrumEntry, close
from .system import (
    KernelReps, SystemSpec, _covered_entries, _merged, _spec, _spectral_pairs, _swept_kernels, kernel_reps
)

__all__ = [*_EXPORTS["bifurcation"]]

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


class GlobCheck(_Record):
    """Outcome of the sufficient global-bifurcation criterion at one parameter."""

    _fields = ("glob", "justification")

    def __init__(self, glob: str, justification: str) -> None:
        self.glob = glob
        self.justification = justification


def _nonzero(lambda0: float, refusal: str) -> float:
    """``lambda0`` as a float: ValidationError unless finite, PreconditionError(``refusal``) at 0."""
    lam = _real(lambda0, "lambda0")  # first, as an infinity is close to 0
    if close(lam, 0.0):
        raise PreconditionError(refusal)
    return lam


def check_glob(spec: SystemSpec, lambda0: float) -> GlobCheck:
    """Criterion at lambda0 != 0: kernel pieces inequivalent mod even trivial."""
    lam = _nonzero(lambda0, "check_glob needs lambda0 != 0; use check_glob_zero at 0")
    return GlobCheck(*_glob_from_kernel(kernel_reps(spec, lam)))


def _glob_from_kernel(kr: KernelReps) -> tuple[str, str]:
    """The criterion's (glob, justification) at lambda0 != 0 from the kernel there; a zero kernel is equivalent."""
    if not rep_equiv_mod_even_trivial(kr.v1, kr.v2):
        return BIFURCATES, J_REP_NONEQUIV
    return INCONCLUSIVE, J_KERNEL_EMPTY if kr.is_zero() else J_EQUIV_MOD_EVEN


def check_glob_zero(spec: SystemSpec) -> GlobCheck:
    """Criterion at lambda0 = 0: odd total Morse index of the block matrix."""
    odd = (_spec(spec).morse_plus() + spec.morse_minus()) % 2 == 1
    return GlobCheck(BIFURCATES if odd else INCONCLUSIVE, J_ZERO_PARITY)


def _require_disk(spec: SystemSpec, op: str) -> None:
    if not isinstance(_spec(spec).domain, DiskDomain) or spec.domain.dim != 2:
        raise UnsupportedDomain(
            f"{op} computes an element of the Euler ring of SO(2) and needs the disk domain; "
            "use check_glob for verdict-level results on other domains"
        )


def _require_a9_disk(spec: SystemSpec) -> None:
    """The preconditions of every a9 index, in order: the a9 flag, then the disk."""
    if not _spec(spec).a9:
        raise PreconditionError("bif_a9 needs the normalized block form (a9 flag)")
    _require_disk(spec, "bif_a9")


def bif_difference(spec: SystemSpec, lambda0: float) -> EulerSO2:
    """Normalized degree difference whose nonvanishing detects bifurcation.

    For lambda0 > 0: deg(-Id, B(V1)) - deg(-Id, B(V2)); the order is reversed
    for lambda0 < 0.  It differs from the bifurcation index only by an
    invertible factor, so it is nonzero exactly when the index is.
    """
    _require_disk(spec, "bif_difference")
    lam = _nonzero(lambda0, "bif_difference needs lambda0 != 0")
    kr = kernel_reps(spec, lam)
    own, other = (kr.v1, kr.v2) if lam > 0 else (kr.v2, kr.v1)
    return deg_minus_id(own) - deg_minus_id(other)


def bif_a9(spec: SystemSpec, lambda0: float) -> EulerSO2:
    """Exact bifurcation index on the disk in the normalized block form.

    Requires ``spec.a9`` and lambda0 in Lambda union {0}; see the module
    docstring for the three closed forms.
    """
    return _a9_indices(spec, [lambda0])[0]


def _a9_indices(spec: SystemSpec, lams: Sequence[float]) -> list[EulerSO2]:
    """:func:`bif_a9` at each of ``lams``, in order: one walk gives every kernel, then one sweep.

    Every lambda is checked and asks for the spectrum it needs in input
    order, up to the first error, so errors and spectrum extensions come as
    they would one call at a time.  One walk of :func:`analyze` over the
    nonzero lambdas checked, sorted, then gives their kernels; a kernel
    that matched no entry marks a lambda outside Lambda.  The first such
    lambda, in input order, is raised, or else the error that stopped the
    checks.
    """
    if not lams:
        return []
    _require_a9_disk(spec)
    kernels: list[KernelReps | None] = [None] * len(lams)  # None at 0
    checked: list[tuple[float, int]] = []  # (lambda, slot) of each nonzero lambda, in input order
    stopped = None
    for slot, lambda0 in enumerate(lams):
        try:
            lam = _real(lambda0, "lambda0")
            if close(lam, 0.0):
                continue
            power, side, needs = (spec.q1, "positive", "p1 - mu_b0") if lam > 0 else (spec.p2, "negative", "p2")
            if power == 0:
                raise PreconditionError(f"{side} parameters need {needs} > 0; {lambda0!r} is not in Lambda")
            _covered_entries(spec, lam, lam)
        except Error as exc:  # raised after any earlier lambda outside Lambda
            stopped = exc
            break
        checked.append((lam, slot))
    entries: Sequence[SpectrumEntry] = ()
    if checked:
        ordered = sorted(checked)
        _, _, entries, blocks, pairs = _spectral_pairs(spec, (ordered[0][0], ordered[-1][0]))
        for (_, slot), kr in zip(ordered, _swept_kernels(entries, blocks, pairs, [m for m, _ in ordered])):
            kernels[slot] = kr
        for lam, slot in checked:
            if not kernels[slot].matched:
                missing = f"{abs(lam)!r} is not an eigenvalue of the loaded spectrum"
                raise PreconditionError(missing if lam > 0 else f"{lams[slot]!r} is not in Lambda: {missing}")
    if stopped is not None:
        raise stopped
    return _a9_sweep(spec, entries, lams, kernels)


def _a9_sweep(
    spec: SystemSpec, entries: Sequence[SpectrumEntry], lams: Sequence[float], kernels: Sequence[KernelReps | None]
) -> list[EulerSO2]:
    """The a9 index at each lambda from its kernel, None at 0, by one ascending sweep of ``entries``.

    a9 pairs only b = 1, so E_k0 is the kernel's first matched entry.  The
    sweep keeps the trivial dimension and multiplicities of V(n), the
    entries passed so far: V(k0-1) before E_k0 and V(k0) after it.  Each
    element is read off :func:`_a9_element`.
    """
    q1, p2 = spec.q1, spec.p2
    out: list = [None] * len(lams)
    wanted: dict[float, list[tuple[int, int]]] = {}  # eigenvalue of E_k0 -> (slot, power) per lambda
    for slot, (lam, kr) in enumerate(zip(lams, kernels)):
        if kr is None:
            out[slot] = ((-1) ** q1 - (-1) ** p2) * EulerSO2.one()
        else:
            wanted.setdefault(kr.matched[0].eigenvalue, []).append((slot, q1 if lam > 0 else -p2))
    t, mults = 0, {}
    for e in entries:
        at_e = wanted.get(e.eigenvalue, ())
        for slot, power in at_e:
            if power > 0:  # D(V(k0-1))^q1 * (D(E_k0)^q1 - I)
                out[slot] = _a9_element(t, mults, e.rep, power)
        t += e.rep.trivial_dim
        for k, mult in e.rep.irreducibles.items():
            mults[k] = mults.get(k, 0) + mult
        for slot, power in at_e:
            if power < 0:  # D(V(k0))^-p2 * (D(E_k0)^p2 - I)
                out[slot] = _a9_element(t, mults, e.rep, power)
    return out


def _a9_element(t: int, mults: dict[int, int], eig: SO2Rep, power: int) -> EulerSO2:
    """D(V)^n * (D(E)^a - I), n = ``power`` and a = |n|, for V of trivial dimension t and multiplicities ``mults``.

    With D(V) = (s; -s m), s = (-1)^t, e = (-1)^(trivial dimension of E),
    and the rules (u; c)^n = (u^n; n u^(n-1) c) and (u_a; c_a)(u_b; c_b) =
    (u_a u_b; u_a c_b + u_b c_a), the element is

        (s^n (e^a - 1); -s^n (a e^a m_E + n (e^a - 1) m)),

    so V enters only when e^a = -1.  The labels of E come first, as in the
    product of the generic ring operations.
    """
    a = abs(power)
    sn = -1 if t % 2 and a % 2 else 1
    if eig.trivial_dim % 2 and a % 2:  # e^a = -1
        cyclic = {k: sn * a * m for k, m in eig.irreducibles.items()}
        for k, m in mults.items():
            cyclic[k] = cyclic.get(k, 0) + 2 * sn * power * m
        return EulerSO2._make(-2 * sn, {k: v for k, v in cyclic.items() if v})  # m_E = 2 m_V cancels at n = -a
    return EulerSO2._make(0, {k: -sn * a * m for k, m in eig.irreducibles.items()})


def rabinowitz_excludes_bounded(indices: Iterable[EulerSO2]) -> bool:
    """True when the indices sum to a nonzero ring element.

    A bounded continuum meeting the trivial solutions exactly at a parameter
    family forces the family's bifurcation indices to sum to zero; a nonzero
    sum therefore certifies that any continuum meeting exactly these
    parameters is unbounded.
    """
    if not isinstance(indices, Iterable):
        raise ValidationError(f"indices must be an iterable of EulerSO2 elements, got {_show(indices)}")
    indices = list(indices)
    for ix in indices:
        if not isinstance(ix, EulerSO2):
            raise ValidationError(f"indices must hold EulerSO2 elements, got {_show(ix)}")
    return not sum(indices, EulerSO2.zero()).is_zero()


#: what boundedness of the continuum at sign * alpha would force, by sign
_BOUNDED_WOULD_IMPLY = {
    1: ("p2 > 0", "p2 odd", "continuum returns to trivial solutions at negative parameters"),
    -1: ("p1 - mu_b0 > 0", "p1 - mu_b0 odd", "continuum returns to trivial solutions at positive parameters"),
}


class UnboundedReport(_Record):
    """Unboundedness certificate plus the structural facts boundedness would force."""

    _fields = ("verdict", "bounded_would_imply")

    def __init__(self, verdict: str, bounded_would_imply: tuple[str, ...] = ()) -> None:
        self.verdict = verdict
        self.bounded_would_imply = bounded_would_imply


def unbounded_verdict(spec: SystemSpec, entry: SpectrumEntry, sign: int) -> UnboundedReport:
    """Certificate for the continuum at sign * alpha, alpha = entry.eigenvalue.

    With q1 = p1 - mu_b0 and q2 = p2: for sign +1 the continuum is certified
    unbounded when q1 > 0 is even, q2 is even and the eigenspace is a
    nontrivial representation; for sign -1 the roles of q1 and q2 swap.
    Everything else is NoVerdict.  When one-sided parity holds (q even and
    positive on the matching side, nontrivial eigenspace) the report also
    carries what boundedness of the continuum would force.
    """
    if not _spec(spec).a9:
        raise PreconditionError("unbounded_verdict needs the normalized block form (a9 flag)")
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {_show(sign)}")
    if not isinstance(entry, SpectrumEntry):
        raise ValidationError(f"entry must be a SpectrumEntry, got {_show(entry)}")
    nontrivial = entry.rep.has_nontrivial()
    own_even, other_even = _parities(spec, sign)
    one_sided = own_even and nontrivial
    verdict = UNBOUNDED if one_sided and other_even else NO_VERDICT
    return UnboundedReport(verdict, _BOUNDED_WOULD_IMPLY[sign] if one_sided else ())


def _parities(spec: SystemSpec, sign: int) -> tuple[bool, bool]:
    """Whether q is even and positive on the side of ``sign``, and even on the other; q1 above 0, p2 below."""
    own, other = (spec.q1, spec.p2) if sign == 1 else (spec.p2, spec.q1)
    return own > 0 and own % 2 == 0, other % 2 == 0


class BifurcationVerdict(_Record):
    """Per-parameter report assembled by :func:`analyze`."""

    _fields = ("lambda0", "in_lambda", "kernel", "glob", "justification", "bif_element", "unbounded")

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
    normalized block form on the disk, where the closed forms apply.  The
    spectral pairs are formed and sorted once; one walk up them gives every
    candidate and its kernel, and one sweep of the spectrum the exact
    elements, each at its kernel's E_k0, with no spectrum lookup per
    candidate.
    """
    lo, hi, entries, blocks, pairs = _spectral_pairs(spec, window)  # checks the window
    candidates = _merged(pairs, lo, hi)
    at = bisect_left(candidates, 0.0)  # a candidate close to 0 is a neighbour of this slot, at most one per side
    zeros = [slot for slot in range(max(at - 1, 0), min(at + 1, len(candidates))) if close(candidates[slot], 0.0)]
    if lo <= 0.0 <= hi and not zeros:
        candidates.insert(at, 0.0)
        zeros = [at]
    kernels = _swept_kernels(entries, blocks, pairs, candidates)
    exact = spec.a9 and isinstance(spec.domain, DiskDomain) and spec.domain.dim == 2
    a9_kernels: list[KernelReps | None] = kernels.copy()  # _a9_sweep reads None as the zero case
    for slot in zeros:
        a9_kernels[slot] = None
    bifs = _a9_sweep(spec, entries, candidates, a9_kernels) if exact else [None] * len(candidates)
    # by lambda0 > 0: whether the parities let a nontrivial E_k0 certify Unbounded (a9 only)
    parity = {True: all(_parities(spec, 1)), False: all(_parities(spec, -1))} if spec.a9 else None
    verdicts = []
    for slot, (lam, kr, bif) in enumerate(zip(candidates, kernels, bifs)):
        unb = NO_VERDICT
        if slot in zeros:
            gc = check_glob_zero(spec)
            lam, glob, why = 0.0, gc.glob, gc.justification
        else:
            glob, why = _glob_from_kernel(kr)
            if parity is not None and kr.matched[0].rep.has_nontrivial() and parity[lam > 0]:
                unb = UNBOUNDED
        verdicts.append(BifurcationVerdict(lam, bool(kr.matched), kr, glob, why, bif, unb))
    return verdicts


def _refuse_subsets(members: int) -> None:
    """ValidationError when :func:`enumerate_zero_sum_subsets` would walk more than ``MAX_SUBSET_MEMBERS``."""
    if members > MAX_SUBSET_MEMBERS:
        raise ValidationError(f"subset enumeration is exponential; refusing {members} > {MAX_SUBSET_MEMBERS} members")


def enumerate_zero_sum_subsets(indices: Sequence[tuple[float, EulerSO2]]) -> list[tuple[float, ...]]:
    """Nonempty parameter subsets whose indices sum to zero.

    These are the only families at which a bounded continuum could return to
    the trivial solutions; every other subset is excluded.  Subsets come in
    the order of ``itertools.combinations`` by size.  Exponential in the
    number of members, so refuses more than ``MAX_SUBSET_MEMBERS``.

    Each index becomes one integer: its coefficient vector read as balanced
    digits in a base above twice the largest possible partial sum of any
    coordinate, so a subset sums to the zero element exactly when its
    integers sum to 0.  The subsets are then met in the middle (Horowitz and
    Sahni, 1974): the sums of the 2^ceil(n/2) subsets of the second half are
    hashed, and each of the 2^floor(n/2) subsets of the first half looks up
    the negative of its sum.  Sorting the hits by (size, positions) gives
    the combinations order.  Time and memory are O(2^(n/2) + hits).
    """
    if not isinstance(indices, Sequence):
        raise ValidationError(f"indices must be a sequence of (lambda0, EulerSO2) pairs, got {_show(indices)}")
    _refuse_subsets(len(indices))
    for item in indices:
        if not isinstance(item, Sequence) or len(item) != 2 or not isinstance(item[1], EulerSO2):
            raise ValidationError(f"indices must hold (lambda0, EulerSO2) pairs, got {_show(item)}")
        _real(item[0], "lambda0 of an index pair")
    lams = [lam for lam, _ in indices]
    keys = sorted({k for _, ix in indices for k in ix.cyclic})
    coords = [[ix.unit, *(ix.coefficient(k) for k in keys)] for _, ix in indices]
    base = 2 * max((sum(abs(c[j]) for c in coords) for j in range(len(keys) + 1)), default=0) + 1
    weights = [sum(v * base**j for j, v in enumerate(c)) for c in coords]

    def subset_sums(start: int, stop: int) -> list[tuple[int, tuple[int, ...]]]:
        sums: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        for i in range(start, stop):
            sums += [(s + weights[i], chosen + (i,)) for s, chosen in sums]
        return sums

    half = len(weights) // 2
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for s, chosen in subset_sums(half, len(weights)):
        by_sum.setdefault(s, []).append(chosen)
    hits = [
        first + second
        for s, first in subset_sums(0, half)
        for second in by_sum.get(-s, ())
        if first or second
    ]
    hits.sort(key=lambda hit: (len(hit), hit))
    return [tuple(lams[i] for i in hit) for hit in hits]
