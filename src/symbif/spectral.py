"""Neumann Laplacian spectra on balls, and ingestion of user-supplied spectra.

On the unit N-ball the Neumann eigenfunctions of harmonic degree l are
x^-c J_nu(x r) times a degree-l harmonic, with c = (N-2)/2 and nu = l + c,
so the eigenvalues of degree l are the squares of the positive roots of one
radial condition J_nu'(x) - (c/x) J_nu(x) = 0 (``radial_condition``; DLMF
10.6.2, 10.21(i)), for every N >= 2 and l >= 0 with nu <= ``MAX_ROOT_X``.
On the disk (N = 2, c = 0) it is J_l'(x) = 0; the eigenspace for a root
with l >= 1 is one copy of the rotation-l irreducible (real dimension 2),
and trivial of dimension 1 for l = 0, together with the eigenvalue 0
(constants).  On a ball the eigenspace of degree l is a trivial
SO(N)-representation exactly when l = 0, and is labelled irr(l).  One loop
(``disk_spectrum``) computes the spectrum of every N-ball, the disk being
N = 2, whose l = 0 order (N - 2)/2 is at most ``MAX_ROOT_X``; a larger N is
refused when the domain is built.  Spectra of other invariant domains
(:class:`CustomDomain`) may be supplied as structured documents or
:class:`SpectrumEntry` lists, and a ball's as a document, under one rule:
ascending order, where a step down within ``MERGE_REL`` is a tie, and
near-coincident eigenvalues merged with their representations summed.
Every eigenspace is a :class:`symbif.euler.SO2Rep`, the package's one
representation class; an entry's ``rep`` document is ``{"trivial", "irr"}``,
and ``"rot"`` is accepted in place of ``"irr"`` on input only.  On every
domain an eigenspace is nontrivial exactly when its stated ``rep`` has a
nontrivial summand.  A supplied ball spectrum is checked once, when
``domain_from_json`` reads it, against the computed spectrum up to its top
t: entry by entry, the eigenvalues agree within ``MERGE_REL`` and the reps
are equal, or ValidationError names the first eigenvalue that differs.  The
result is the computed ball, ``DiskDomain(bound=_reach(max(t, 1)), dim=N)``:
the supplied eigenvalues serve the check alone.
How far ``close`` reaches is stated once, next to it: ``REACH`` and
``_reach(x)`` = x + ``REACH`` max(1, x), rounded up, past which no b is close
to x.  Every coverage margin reads them, so none depends on the units of the
spectrum: a bounded or supplied domain with top t answers a request up to
``_reach(t)`` and refuses one beyond it, and the system asks for ``_reach`` of
the largest s*lam*b of a window, so a window whose reach is t is answered.
``irr_dim_table`` maps an irreducible's label to its real dimension (None:
all 2); a custom domain may set one, and a ball's gives degree l the
dimension C(l+N-1, N-1) - C(l+N-3, N-1) of its harmonics.  A ``cache`` is
None or a :class:`RootCache`: ``disk_spectrum`` and ``radial_roots_up_to``
keep nothing with None, and a :class:`DiskDomain` makes a cache of its own.

Root finding is one scan for every (l, N), ``_kernels._lattice_scan``:
sign-change bracketing on a fixed pi/8 lattice (``GRID_STEP``), then
safeguarded Newton inside each bracket (``_kernels._bisect_radial``) to the
fixed ``ROOT_XTOL``; both constants are defined here and passed to the
scan.  The scan loads with the kernels, so a request served from a cache
loads neither.  A scan into a cache runs through the first root beyond its
bound, by which the cache knows it covers that bound; a scan with no cache
ends at the first lattice point past the bound.  No bracket depends on the
bound, so both return the same roots up to it, bit for bit.
Each kernel call also gives the partner J_nu, whose zeros interlace with the
condition's (DLMF 10.21(i)); the scan checks after every cell that the two
still alternate, so a root list is complete or the call raises
:class:`ConvergenceError`.  For l = 0 the scan starts from the signs of the
pair as x -> 0+, where u = x^-c J_nu behaves like x^l (DLMF 10.2.2), so the
first cell is checked like every other; for l >= 1 it starts at the last
lattice point at or below sqrt(l(l+N)), below which u and u' are proven
positive (the scan's docstring has the proof), and checks those signs
there.  Requests for roots beyond x = ``MAX_ROOT_X`` are refused.
The production kernels evaluate J_nu in three bands of x (ascending series,
backward recurrence, large-argument asymptotics; see ``_kernels``), and the
test suite runs an independent series-based oracle against every root.
"""

from __future__ import annotations

import json
import math
import os
import stat
from bisect import bisect_right
from contextlib import ExitStack, suppress
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Sequence

from . import _EXPORTS
from .errors import (
    ConvergenceError,
    DomainError,
    Error,
    InsufficientSpectrum,
    SchemaError,
    ValidationError,
    _int,
    _label_table,
    _object,
    _parse_json,
    _real,
    _Record,
    _show,
)
from .euler import SO2Rep

__all__ = [
    *_EXPORTS["spectral"], "MERGE_REL", "REACH", "ROOT_XTOL", "GRID_STEP", "MAX_DISK_ENTRIES", "MAX_ROOT_X",
    "domain_from_json",
]

#: relative tolerance at which two nearby eigenvalues are one logical eigenvalue
MERGE_REL = 1e-8
#: how far ``close`` reaches: for a, b >= 0, close(a, b) implies |b - a| <= REACH * max(1, a), as
#: |b - a| <= MERGE_REL * b gives b <= a / (1 - MERGE_REL); every coverage margin is ``_reach``
REACH = MERGE_REL / (1.0 - MERGE_REL)
#: absolute width to which root brackets are refined; fixed, as Newton converges
#: quadratically and any width in (0, 1e-8] moves an eigenvalue by ~1 ulp
ROOT_XTOL = 1e-10
#: grid step for sign-change bracketing
GRID_STEP = math.pi / 8.0
#: the root cache file format; a file with any other ``schema_version`` is stale
CACHE_SCHEMA_VERSION = 1
#: most distinct disk eigenvalues one request may ask for, by the two-term Weyl
#: estimate alpha/4 + sqrt(alpha)/2 (10,000 reaches alpha ~ 39,600, x ~ 199,
#: inside the x <= 200 range the kernels' accuracy is stated for); the same
#: estimate bounds every ball, which has fewer (measured for N = 3..12)
MAX_DISK_ENTRIES = 10_000
#: largest x a root scan may be asked to reach: the kernels' accuracy is stated
#: for x <= 200, and every disk request inside MAX_DISK_ENTRIES stays below 199.
#: It caps the order nu = l + (N-2)/2 of every evaluator, and a degree l above it has no root in range, as
#: every root of degree l lies above sqrt(l(l+N)) > l (``_kernels._lattice_scan``); a disk request scans
#: l <= x_max + 1 < 201
MAX_ROOT_X = 200.0


def close(a: float, b: float) -> bool:
    """Tolerant equality at ``MERGE_REL``, used for eigenvalue merging and spectral matching; never at an infinity."""
    return abs(a - b) <= MERGE_REL * max(1.0, abs(a), abs(b)) < math.inf


def _reach(x: float) -> float:
    """x + ``REACH`` * max(1, x), rounded up: for x >= 0, every b >= 0 with ``close(x, b)`` lies at or below it."""
    return math.nextafter(x + REACH * max(1.0, x), math.inf)


# ---------------------------------------------------------------------------
# spectrum entries
# ---------------------------------------------------------------------------

#: not exported; its one reader is perfbench/tracing.py:216, which wraps ``RepDescriptor.__post_init__``
RepDescriptor = SO2Rep


class SpectrumEntry(_Record):
    """One distinct Neumann eigenvalue with the isotypic type of its eigenspace.

    ``root_index`` is the 1-based index of the radial root producing the
    eigenvalue; the injected zero eigenvalue (constants) carries None there.
    """

    _fields = ("eigenvalue", "rep", "angular_index", "root_index")

    def __init__(
        self, eigenvalue: float, rep: SO2Rep, angular_index: int | None = None, root_index: int | None = None
    ) -> None:
        # the one check of the eigenvalue and the indices, so a wrong one is refused as in a document
        self.angular_index = None if angular_index is None else _int(angular_index, "angular_index", 0, SchemaError)
        self.root_index = None if root_index is None else _int(root_index, "root_index", 0, SchemaError)
        # + 0.0 drops -0.0, as for the pairs' parameters, so a stated -0.0 reads and prints as the constants' 0.0
        self.eigenvalue = _real(eigenvalue, "eigenvalue", error=SchemaError, invalid=ValidationError) + 0.0
        if self.eigenvalue < 0.0:
            raise ValidationError(f"eigenvalue must be nonnegative, got {self.eigenvalue!r}")
        if not isinstance(rep, SO2Rep):
            raise ValidationError(f"a spectrum entry's rep must be an SO2Rep, got {_show(rep)}")
        self.rep = rep

    def to_json(self) -> dict:
        return {
            "eigenvalue": self.eigenvalue,
            "angular_index": self.angular_index,
            "root_index": self.root_index,
            "rep": self.rep.to_json(),
        }

    @classmethod
    def from_json(cls, doc) -> "SpectrumEntry":
        _object(doc, "spectrum entry", {"eigenvalue", "angular_index", "root_index", "rep"}, ("eigenvalue", "rep"))
        return cls(doc["eigenvalue"], SO2Rep.from_json(doc["rep"]), doc.get("angular_index"), doc.get("root_index"))


# ---------------------------------------------------------------------------
# Bessel evaluation wrappers
# ---------------------------------------------------------------------------


def _check_arguments(op: str, order: float, x: float) -> tuple[float, float]:
    nu = _real(order, "order", error=DomainError)
    if nu < 0.0 or 2.0 * nu != math.floor(2.0 * nu):
        raise DomainError(f"order must be a nonnegative integer or half-integer, got {order!r}")
    if nu > MAX_ROOT_X:
        raise DomainError(f"order {order!r} lies above the supported orders <= {MAX_ROOT_X}")
    x = _real(x, f"{op} argument x", error=DomainError)
    if x < 0.0:
        raise DomainError(f"{op} needs x >= 0, got {x!r}")
    _check_x(op, x)
    return nu, x


def _check_x(op: str, x: float) -> None:
    """DomainError above ``MAX_ROOT_X``: accuracy is stated up to there, and far above, the phase rounds to x."""
    if x > MAX_ROOT_X:
        raise DomainError(f"{op} needs x <= {MAX_ROOT_X}, the range of stated accuracy; got {x!r}")


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind, J_order(x), for 0 <= x <= ``MAX_ROOT_X``.

    Orders are nonnegative integers or half-integers up to ``MAX_ROOT_X``;
    a higher order or a larger x raises DomainError.  Accuracy is within
    3e-13 * max(1, |J|) for orders up to 8 and 5e-12 for integer orders up
    to 199, for x <= 200 (see ``symbif._kernels``).
    """
    nu, x = _check_arguments("bessel_j", order, x)
    if x == 0.0:  # the radial condition divides by x
        return 1.0 if nu == 0.0 else 0.0
    from . import _kernels

    return _kernels._radial_condition(0, int(2.0 * nu) + 2, x)[1]  # g = J_nu at l = 0, c = nu: no J_{nu-1}


def bessel_j_prime(order: float, x: float) -> float:
    """Derivative J_order'(x) for 0 <= x <= ``MAX_ROOT_X``.

    At x = 0 it is 1/2 for order 1, 0 for other integers, singular for half-integers.
    """
    nu, x = _check_arguments("bessel_j_prime", order, x)
    if x == 0.0:
        if nu != math.floor(nu):
            raise DomainError("derivative of a half-integer order is singular at x = 0")
        return 0.5 if nu == 1.0 else 0.0
    from . import _kernels

    return _kernels._radial_condition(nu, 2, x)[0]


def radial_condition(angular_index: int, dim: int, x: float) -> float:
    """Value of the radial Neumann condition J_nu'(x) - (c/x) J_nu(x) at 0 < x <= ``MAX_ROOT_X``.

    Here c = (dim - 2)/2 and nu = l + c: the derivative x^c u' of the radial
    part u = x^-c J_nu of the degree-l eigenfunctions.  It is J_l'(x) on the
    disk and the trivial-type radial test -J_{nu+1}(x) for l == 0.  An order
    nu or an x above ``MAX_ROOT_X`` raises DomainError.
    """
    _check_radial_family(angular_index, dim)
    _check_order(angular_index, dim)
    x = _real(x, "radial condition argument x", error=DomainError)
    if x <= 0.0:
        raise DomainError(f"radial condition needs x > 0, got {x!r}")
    _check_x("radial condition", x)
    from . import _kernels

    return _kernels._radial_condition(angular_index, dim, x)[0]


def _check_radial_family(angular_index: int, dim: int) -> None:
    _int(dim, "dimension", 2, DomainError)
    _int(angular_index, "angular index", 0, DomainError)


def _check_order(angular_index: int, dim: int) -> None:
    if 2 * angular_index + dim - 2 > 2 * MAX_ROOT_X:  # 2 nu, an integer: no float overflow
        raise DomainError(f"the radial condition's order nu = l + (dim - 2)/2 must be <= {MAX_ROOT_X}")


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def radial_roots_up_to(
    angular_index: int,
    dim: int,
    x_max: float,
    *,
    cache: "RootCache | None" = None,
) -> list[float]:
    """All positive roots of the radial condition not exceeding ``x_max``.

    No root is missed: a pi/8 cell (``GRID_STEP``) holds at most one zero of
    the partner g, so the scan halves every cell that hides two zeros of f
    (proof in ``_kernels._lattice_scan``).  An ``x_max`` below dim/2, and for l >= 1
    below sqrt(l(l+dim)) too, lies below the first root and gets [] at once;
    beyond ``MAX_ROOT_X`` it raises InsufficientSpectrum, and an order nu above
    that DomainError, before any evaluation.  Roots are refined to ``ROOT_XTOL``.
    With a ``cache`` they are kept in it through the first root beyond
    ``x_max``, so the cache serves the same request again, and a longer request
    resumes the scan after the last cached root.  With None nothing is kept, so
    the scan ends at the lattice point past ``x_max``; the roots are the same.
    """
    _check_radial_family(angular_index, dim)
    _real(x_max, "radial roots bound x_max", finite=False, error=DomainError)
    below = 2.0 * x_max < dim and (angular_index == 0 or x_max * x_max < angular_index * (angular_index + dim))
    if x_max <= 0.0 or below:
        return []
    if x_max > MAX_ROOT_X:
        raise InsufficientSpectrum(
            f"radial roots up to x = {x_max!r} lie beyond the supported range x <= {MAX_ROOT_X!r} "
            f"(l={_show(angular_index)}, dim={_show(dim)})"
        )
    if angular_index > MAX_ROOT_X:  # every root lies above sqrt(l(l+dim)) > l > MAX_ROOT_X >= x_max
        return []
    _check_order(angular_index, dim)
    cache = _root_cache(cache)
    roots = [] if cache is None else cache.get(dim, angular_index)
    if cache is None or not cache.covers(dim, angular_index, x_max):
        from . import _kernels  # the kernels, the scan among them, load with the first scan of a process

        after = roots[-1] if roots else 0.0
        roots += _kernels._lattice_scan(angular_index, dim, x_max, GRID_STEP, ROOT_XTOL, after, cache is not None)
        if cache is not None:
            cache.put(dim, angular_index, roots)
    return [r for r in roots if r <= x_max]


# ---------------------------------------------------------------------------
# root cache
# ---------------------------------------------------------------------------


class RootCache(_Record):
    """Memo of radial roots, each refined to ``ROOT_XTOL``.

    The record list for each (dim, l) pair is always a complete prefix of
    the true root sequence, so cached data can serve any request whose range
    it covers.  The constructor and ``put`` keep roots as floats and refuse
    (ValidationError) a record whose dim is not an integer >= 2, whose l is
    not an integer >= 0, whose order nu = l + (dim - 2)/2 lies above
    ``MAX_ROOT_X``, or whose roots are not finite, positive and strictly
    increasing.  A file is written with the integer ``schema_version``
    ``CACHE_SCHEMA_VERSION`` and the tolerances ``ROOT_XTOL`` and
    ``GRID_STEP``; one that stores another version (a missing one, a bool or
    a float included) or other tolerances (say from an older release), or a
    record so refused or not indexed 1..n, is discarded and regenerated.
    Roots of the right type but the wrong value are not detected: checking
    them would cost a kernel evaluation per cached root.  A missing file in
    an existing directory loads as an empty cache.  An existing path that is
    not a regular file (a FIFO, a device node), and any other path the OS
    will not read or write, is a ValidationError naming it, before anything
    is read or written.  Links are followed: saving renames a temporary file
    over the file the path names, so a link stays a link, and a reader sees
    the old file or the new one, never a partial write; a new file gets the
    bits a plain write gives (0o666 less the umask), and a replaced one keeps
    its own.  ``grown``
    means "a file would lack these records": none were given (a missing or
    stale file) or ``put`` added some, so a caller saves exactly when it is set.
    ``records`` and ``get`` hand out copies, so no caller changes a stored
    record.
    """

    _fields = ("records",)

    def __init__(self, records: dict[tuple[int, int], list[float]] | None = None) -> None:
        if records is not None and not isinstance(records, dict):
            raise ValidationError(f"root cache records must map (dim, l) to a root list, got {type(records).__name__}")
        self._records = {key: _cached_roots(key, roots) for key, roots in (records or {}).items()}
        self.grown = records is None  # whether a file would lack these records

    @property
    def records(self) -> dict[tuple[int, int], list[float]]:
        """A copy of the records, (dim, l) -> roots."""
        return {key: list(roots) for key, roots in self._records.items()}

    def get(self, dim: int, l: int) -> list[float]:
        return list(self._records.get((dim, l), ()))

    def covers(self, dim: int, l: int, x_max: float) -> bool:
        """Whether the roots kept for (dim, l) reach past ``x_max``, so a scan to it needs no evaluation."""
        cached = self._records.get((dim, l))
        return bool(cached) and x_max <= cached[-1]

    def put(self, dim: int, l: int, roots: Sequence[float]) -> None:
        roots = _cached_roots((dim, l), roots)
        if roots != self._records.get((dim, l)):
            self._records[(dim, l)] = roots
            self.grown = True

    def to_json(self) -> dict:
        recs = []
        for (dim, l) in sorted(self._records):
            for i, x in enumerate(self._records[(dim, l)], start=1):
                recs.append([dim, l, i, x])
        return {
            "schema_version": CACHE_SCHEMA_VERSION,
            "tolerances": {"xtol": ROOT_XTOL, "step": GRID_STEP},
            "records": recs,
        }

    def save(self, path: str | Path) -> None:
        # a link stays a link: the file it names is the one replaced
        shown, target, tmp = Path(path), Path(os.path.realpath(path)), None
        try:
            mode = None
            with suppress(FileNotFoundError):
                mode = target.stat().st_mode
            if mode is not None and not stat.S_ISREG(mode):  # a FIFO or a device node is never replaced
                raise ValidationError(f"cannot write root cache {shown}: not a regular file")
            # the temporary's name has a fixed length: no target name the OS accepts pushes it past the limit
            name = target.parent / f".symbif-roots.{os.urandom(4).hex()}.tmp"
            # the OS applies the umask to 0o666, so a new file gets the bits a plain write gives it
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmp = name
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(json.dumps(self.to_json(), sort_keys=True) + "\n")
            if mode is not None:  # a replaced file's bits are kept
                os.chmod(tmp, mode & 0o7777)
            os.replace(tmp, target)
        except BaseException as exc:
            if tmp is not None:
                os.unlink(tmp)
            if isinstance(exc, OSError):  # a directory the user may not write, or a full disk
                raise ValidationError(f"cannot write root cache {shown}: {exc.strerror}") from exc
            raise

    @classmethod
    def load(cls, path: str | Path) -> tuple["RootCache", bool]:
        """Load a cache; returns (cache, stale) where stale means regenerated."""
        p = Path(path)
        try:  # the stat follows links; a FIFO is refused as its read would block, and a device node with it
            mode = p.stat().st_mode
            if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):  # a directory's read fails with the OS's reason
                raise ValidationError(f"cannot read root cache {p}: not a regular file")
            data = p.read_bytes()
        except FileNotFoundError as exc:
            if not p.parent.is_dir():
                raise ValidationError(f"cannot read root cache {p}: the directory {p.parent} does not exist") from exc
            return cls(), False
        except OSError as exc:  # a directory, or a name longer than the OS allows
            raise ValidationError(f"cannot read root cache {p}: {exc.strerror}") from exc
        try:
            doc = _parse_json(data, str(p))
            # an integer: True == 1 and 1.0 == 1 in Python, so the type is checked too
            version, tol = _int(doc["schema_version"], "cache schema_version"), doc["tolerances"]
            if (version, tol["xtol"], tol["step"]) != (CACHE_SCHEMA_VERSION, ROOT_XTOL, GRID_STEP):
                return cls(), True
            records: dict[tuple[int, int], list] = {}
            for dim, l, idx, x in doc["records"]:
                # integer keys, so a dim of 2.0 or an l of True never joins the record of 2 or 1
                roots = records.setdefault((_int(dim, "cached dim"), _int(l, "cached l")), [])
                if _int(idx, "cached root index") != len(roots) + 1:
                    return cls(), True
                roots.append(x)
            return cls(records), False
        except (Error, KeyError, TypeError, ValueError):
            return cls(), True


def _cached_roots(key, roots) -> tuple[float, ...]:
    """The roots of the cache record ``key`` = (dim, l) as floats, or ValidationError (see :class:`RootCache`)."""
    if not isinstance(key, tuple) or len(key) != 2 or not isinstance(roots, (list, tuple)):
        raise ValidationError(f"a root cache record is (dim, l): [root, ...], got {_show(key)}: {type(roots).__name__}")
    dim, l = key
    if 2 * _int(l, "cached l", 0) + _int(dim, "cached dim", 2) - 2 > 2 * MAX_ROOT_X:  # 2 nu: no float overflow
        raise ValidationError(f"the order nu = l + (dim - 2)/2 of cached record {_show(key)} lies above {MAX_ROOT_X}")
    out = tuple(_real(x, "cached root") for x in roots)
    if not all(a < b for a, b in zip((0.0, *out), out)):
        raise ValidationError(f"the cached roots of {_show(key)} must be positive and strictly increasing")
    return out


def _root_cache(cache) -> RootCache | None:
    """``cache`` when it is None or a RootCache; ValidationError for anything else."""
    if cache is not None and not isinstance(cache, RootCache):
        raise ValidationError(f"cache must be a RootCache or None, got {_show(cache)}")
    return cache


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def _merge_entries(entries: Iterable[SpectrumEntry]) -> list[SpectrumEntry]:
    """Sort ascending and fuse near-coincident eigenvalues, summing their reps."""
    ordered = sorted(entries, key=lambda e: e.eigenvalue)
    merged: list[SpectrumEntry] = []
    for e in ordered:
        if merged and close(merged[-1].eigenvalue, e.eigenvalue):
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
    dim: int = 2,
    cache: RootCache | None = None,
) -> list[SpectrumEntry]:
    """Distinct Neumann eigenvalues of the unit ``dim``-ball up to ``max_eigenvalue``; dim 2 is the disk.

    The zero eigenvalue (constants, trivial of dimension 1) is always present;
    each positive eigenvalue is the square of a root of the degree-l radial
    condition (J_l' on the disk) and carries irr(l), the rotation-l
    irreducible on the disk and the degree-l harmonics on a ball (trivial of
    dimension 1 when l = 0).  A ``dim`` the domains refuse, a request whose
    disk Weyl estimate exceeds ``MAX_DISK_ENTRIES``, or one past l(l+dim) for
    the least degree l whose order exceeds ``MAX_ROOT_X`` raises before any
    evaluation; no such degree is scanned.  Each degree's roots come from
    ``radial_roots_up_to`` on ``cache``: a cache keeps them through the first
    beyond sqrt(``max_eigenvalue``), and None keeps nothing, so each scan ends
    at the lattice point past it.  From the first order that is not cached,
    the orders are scanned inside ``_kernels.shared_rows``, so the orders of
    any dim scanned at one lattice point read one recurrence row instead of a
    pass each; the rows are dropped when the spectrum is built or the build
    raises.
    """
    if not _real(max_eigenvalue, "max_eigenvalue", finite=False) > 0.0:
        raise ValidationError(f"max_eigenvalue must be positive, got {max_eigenvalue!r}")
    _check_order(0, _int(dim, "ball dimension", 2))  # l = 0 has the least order of any degree
    name = "disk" if dim == 2 else f"{dim}-ball"
    estimate = max_eigenvalue / 4.0 + math.sqrt(max_eigenvalue) / 2.0
    if estimate > MAX_DISK_ENTRIES:
        raise InsufficientSpectrum(
            f"the {name} spectrum up to {max_eigenvalue!r} has about {estimate:.4g} distinct eigenvalues "
            f"(Weyl estimate), more than the budget of {MAX_DISK_ENTRIES}"
        )
    cut = (int(2 * MAX_ROOT_X) + 2 - dim) // 2 + 1  # the least l with l + (dim - 2)/2 > MAX_ROOT_X
    if cut * (cut + dim) < max_eigenvalue:
        raise InsufficientSpectrum(
            f"the {name} spectrum up to {max_eigenvalue!r} reaches degree {cut}, of order above {MAX_ROOT_X}"
        )
    cache = _root_cache(cache)
    x_max = math.sqrt(max_eigenvalue)
    entries = [SpectrumEntry(0.0, SO2Rep.trivial(1), angular_index=0, root_index=None)]
    l = 0
    with ExitStack() as rows:
        kernels = None
        while l < cut and l <= x_max + 1.0:
            if kernels is None and (cache is None or not cache.covers(dim, l, x_max)):
                # the first order to scan opens the rows, so a spectrum served from the cache loads no kernel
                from . import _kernels as kernels

                rows.enter_context(kernels.shared_rows(GRID_STEP))
            roots = radial_roots_up_to(l, dim, x_max, cache=cache)
            if not roots and l >= 1:
                break  # first roots increase with l, so higher l find nothing
            rep = SO2Rep.trivial(1) if l == 0 else SO2Rep.irr(l)
            for i, x in enumerate(roots, start=1):
                alpha = x * x
                if alpha <= max_eigenvalue:
                    entries.append(SpectrumEntry(alpha, rep, angular_index=l, root_index=i))
            l += 1
    return _merge_entries(entries)


def ball_rep_nontrivial(entry: SpectrumEntry, dim: int) -> bool:
    """Whether the eigenspace on the ``dim``-ball, dim >= 3, is nontrivial: its stated rep, as the verdicts read it."""
    _int(dim, "ball_rep_nontrivial dim", 3, DomainError)
    if not isinstance(entry, SpectrumEntry):
        raise ValidationError(f"entry must be a SpectrumEntry, got {_show(entry)}")
    return entry.rep.has_nontrivial()


def _entries_from_docs(raw) -> list[SpectrumEntry]:
    """The entries of a supplied spectrum's document, in their order; ``_supplied_entries`` orders and merges them."""
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'entries' must be a nonempty array of spectrum entries")
    return [SpectrumEntry.from_json(item) for item in raw]


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class DiskDomain(_Record):
    """Unit ``dim``-ball, the disk by default; the spectrum is computed on demand (and memoised).

    ``bound``, when set, caps how far the spectrum may be extended; requests
    beyond it raise :class:`InsufficientSpectrum`.  Two domains are equal when
    their bounds and dims are; the cache and the memo are neither compared nor shown.
    """

    _fields = ("bound", "dim")

    def __init__(self, bound: float | None = None, cache: RootCache | None = None, dim: int = 2) -> None:
        if bound is not None:
            if not _real(bound, "disk max_eigenvalue", finite=False, error=SchemaError, invalid=ValidationError) > 0:
                raise ValidationError(f"the disk spectrum bound must be positive, got {bound!r}")
        self.bound = bound
        self.dim = _int(dim, "ball dimension", 2)
        _check_order(0, self.dim)
        self.cache = _root_cache(cache) or RootCache()
        self._memo: list[SpectrumEntry] = []
        self._memo_bound = -1.0

    @property
    def irr_dim_table(self) -> dict[int, int] | None:
        """None on the disk, where every rotation irreducible has real dimension 2; a ball's per computed degree."""
        return None if self.dim == 2 else _harmonic_dims(self.dim, self._memo)

    def to_json(self) -> dict:
        doc = {"type": "disk"} if self.dim == 2 else {"type": "ball", "dim": self.dim}
        return doc if self.bound is None else {**doc, "max_eigenvalue": self.bound}

    def entries_up_to(self, alpha_max: float) -> list[SpectrumEntry]:
        """The computed entries <= alpha_max.

        Extends the spectrum to ``alpha_max`` first, but never past ``bound``:
        a request up to ``_reach(bound)`` reads the spectrum to the bound,
        and one beyond it raises InsufficientSpectrum.  The spectrum is
        recomputed only when it grows; the entries are bisected by eigenvalue.
        """
        alpha_max = max(0.0, _real(alpha_max, "alpha_max", finite=False))
        target = max(alpha_max, 1.0)
        if self.bound is not None:
            if alpha_max > _reach(self.bound):
                raise InsufficientSpectrum(
                    f"need eigenvalues up to {alpha_max!r} but the spectrum bound is {self.bound!r}"
                )
            target = min(target, self.bound)
        if target > self._memo_bound:
            self._memo = disk_spectrum(target, dim=self.dim, cache=self.cache)
            self._memo_bound = target
        return self._memo[: bisect_right(self._memo, alpha_max, key=lambda e: e.eigenvalue)]

    def first_entries(self, k: int) -> list[SpectrumEntry]:
        _int(k, "k", 1)
        target = max(self._memo_bound, 25.0)
        while True:  # disk_spectrum's Weyl budget ends the doubling
            if self.bound is not None:
                target = min(target, self.bound)
            entries = self.entries_up_to(target)
            if len(entries) >= k:
                return entries[:k]
            if self.bound is not None and target >= self.bound:
                raise InsufficientSpectrum(
                    f"only {len(entries)} distinct eigenvalues below the bound {self.bound!r}, need {_show(k)}"
                )
            target *= 2.0


class CustomDomain(_Record):
    """Arbitrary invariant domain with a user-supplied, finite spectrum; equal when the entries and tables are.

    ``irr_dim_table`` optionally gives the real dimension of each labelled
    irreducible (default 2), used for linearization multiplicities.  A label
    may be a decimal string, as JSON writes it.
    """

    _fields = ("entries", "irr_dim_table")

    def __init__(self, entries: list[SpectrumEntry], irr_dim_table: dict[int, int] | None = None) -> None:
        self.entries = _supplied_entries(entries)
        if irr_dim_table is not None:
            irr_dim_table = {
                k: _int(d, "irreducible dimensions", 1, SchemaError, ValidationError)
                for k, d in _label_table(irr_dim_table, "irr_dims").items()
            }
        self.irr_dim_table = irr_dim_table

    def to_json(self) -> dict:
        doc = {"type": "custom", "entries": [e.to_json() for e in self.entries]}
        if self.irr_dim_table is not None:
            doc["irr_dims"] = {str(k): v for k, v in sorted(self.irr_dim_table.items())}
        return doc

    def entries_up_to(self, alpha_max: float) -> list[SpectrumEntry]:
        """The supplied entries <= alpha_max.

        Raises InsufficientSpectrum when alpha_max lies beyond ``_reach`` of
        the top supplied eigenvalue.
        """
        alpha_max = max(0.0, _real(alpha_max, "alpha_max", finite=False))
        coverage = self.entries[-1].eigenvalue
        if alpha_max > _reach(coverage):
            raise InsufficientSpectrum(
                f"need eigenvalues up to {alpha_max!r} but the supplied spectrum stops at {coverage!r}"
            )
        return self.entries[: bisect_right(self.entries, alpha_max, key=lambda e: e.eigenvalue)]

    def first_entries(self, k: int) -> list[SpectrumEntry]:
        _int(k, "k", 1)
        if k > len(self.entries):
            raise InsufficientSpectrum(f"supplied spectrum has {len(self.entries)} entries, need {_show(k)}")
        return self.entries[:k]


#: not exported; its one reader is perfbench/tracing.py:214, which wraps ``_SuppliedDomain.entries_up_to``
_SuppliedDomain = CustomDomain


def _supplied_entries(entries) -> list[SpectrumEntry]:
    """A supplied spectrum: SpectrumEntry records in ascending order, merged, starting at the constants."""
    wanted = "a supplied spectrum is a list of SpectrumEntry records"
    if not isinstance(entries, (list, tuple)):
        raise ValidationError(f"{wanted}, got {_show(entries)}")
    for e in entries:
        if not isinstance(e, SpectrumEntry):
            raise ValidationError(f"{wanted}, got {_show(e)}")
    values = [e.eigenvalue for e in entries]
    for a, b in zip(values, values[1:]):
        if b < a and not close(a, b):  # a step down within MERGE_REL is a tie, which the merge sorts
            raise ValidationError(f"entries must be listed in ascending eigenvalue order ({b!r} after {a!r})")
    merged = _merge_entries(entries)
    if not merged or merged[0].eigenvalue != 0.0:
        raise ValidationError("a Neumann spectrum must start at the eigenvalue 0 (constants)")
    zero = merged[0]
    if zero.rep.has_nontrivial() or zero.rep.trivial_dim != 1:
        raise ValidationError(
            f"the zero eigenspace consists of the constants: trivial of dimension 1, got {zero.rep.describe()}"
        )
    if zero.angular_index not in (None, 0):
        raise ValidationError("the zero eigenvalue has angular index 0")
    return merged


def _checked_ball(entries: list[SpectrumEntry], dim: int, cache: RootCache | None) -> DiskDomain:
    """The computed ``dim``-ball up to the top of the supplied ``entries``, once they match it entry by entry."""
    # the bound holds every computed eigenvalue close to the top; none lies in (0, 1]
    ball = DiskDomain(bound=_reach(max(entries[-1].eigenvalue, 1.0)), cache=cache, dim=dim)
    for claim, truth in zip_longest(entries, ball.entries_up_to(ball.bound)):
        if not (claim and truth and close(claim.eigenvalue, truth.eigenvalue) and claim.rep == truth.rep):
            at = min(e.eigenvalue for e in (claim, truth) if e)  # the smaller one differs
            said, true = (e.rep.describe() if e and close(e.eigenvalue, at) else "none" for e in (claim, truth))
            raise ValidationError(
                f"the supplied {dim}-ball spectrum has {said} at {at!r} where the computed one has {true}"
            )
    return ball


def _harmonic_dims(n: int, entries: Iterable[SpectrumEntry]) -> dict[int, int]:
    """C(l+N-1, N-1) - C(l+N-3, N-1), the real dimension of the degree-l harmonics, per degree l in ``entries``."""
    degrees = sorted({l for e in entries for l in e.rep.irreducibles})
    return {l: math.comb(l + n - 1, n - 1) - math.comb(l + n - 3, n - 1) for l in degrees}


def domain_from_json(
    doc,
    *,
    spectrum_bound: float | None = None,
    cache: RootCache | None = None,
):
    """The domain of a document ``{"type": "disk"|"ball"|"custom", ...}``; a supplied ball's is the computed one."""
    kind = _object(doc, "domain document", required=("type",))["type"]
    if kind == "disk" or kind == "ball" and "entries" not in doc:
        needs = ("dim",) if kind == "ball" else ()
        _object(doc, f"{kind} domain", {"type", "max_eigenvalue", *needs}, needs)
        bound = doc.get("max_eigenvalue", spectrum_bound)
        if bound is None and "max_eigenvalue" in doc:  # null would read as "no bound"
            raise SchemaError(f"{kind} max_eigenvalue None must be a real number")
        return DiskDomain(bound=bound, cache=cache, dim=doc.get("dim", 2))
    if kind == "ball":
        _object(doc, "ball domain", {"type", "dim", "entries"}, ("dim",))
        entries = _supplied_entries(_entries_from_docs(doc.get("entries")))
        return _checked_ball(entries, _int(doc["dim"], "ball dimension", 3), cache)
    if kind == "custom":
        _object(doc, "custom domain", {"type", "entries", "irr_dims"})
        return CustomDomain(_entries_from_docs(doc.get("entries")), irr_dim_table=doc.get("irr_dims"))
    raise SchemaError(f"unknown domain type {_show(kind)}")
