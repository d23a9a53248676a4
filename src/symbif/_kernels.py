"""Scalar Bessel-evaluation and root-refinement kernels.

These are the hot inner loops of the package: every spectrum computation
boils down to thousands of evaluations of a radial Neumann condition, on
the scan lattice and inside the safeguarded Newton refinement of each
bracket (about three per root).  They are plain Python with ``math``
only; there is one evaluation path.

The condition is one formula for the disk and every ball: on the unit
N-ball the radial part of the degree-l eigenfunctions is u = x^-c J_nu with
c = (N - 2)/2 and nu = l + c, and ``_radial_condition`` returns
f = x^c u' = J_nu' - (c/x) J_nu with its partner g = J_nu.  Newton's slope
f' in ``_bisect_radial`` is read off the radial equation u satisfies, so
no evaluation beyond (f, g) is needed and no branch tests the dimension.

Evaluation strategy for J_nu(x), nu a nonnegative integer or half-integer:

* ``x <= 8``: ascending power series (termwise recurrence; x > 0, as
  ``symbif.spectral.bessel_j`` answers x = 0 itself).  Below the normal
  range (x < ``sys.float_info.min``) the series takes log(x/2) as
  log(x) - log(2).  Where J_nu is below the normal range (every such x
  included, as nu >= 1 for l >= 1), the radial condition forms (c/x) J_nu
  as c (J_{nu-1} + J_{nu+1}) / (2 nu), which neither loses the term nor
  meets an overflowing c/x.
* ``8 < x < 60``: backward three-term recurrence, a row of orders a pass,
  normalized by the even-order sum ``J_0 + 2*sum J_{2k} = 1`` (DLMF 3.6(vi),
  10.12) for integer orders, by the spherical anchors ``sin(x)/x`` and
  ``sin(x)/x^2 - cos(x)/x`` (DLMF 10.47, 10.51) for half-integer orders.
* ``x >= 60``: large-argument asymptotic expansion in the phase
  ``x - (nu/2 + 1/4)*pi``; if its terms do not fall below 1e-17 of the sum
  within 50 terms (very large order), fall back to the recurrence.

``_radial_condition`` is the one entry and the one band dispatch: it picks
the band of (nu, x) and computes there only the values it reads, J_{nu-1},
J_nu and J_{nu+1} for l != 0, and J_nu and J_{nu+1} for l = 0, whose f is
-J_{nu+1}.  The asymptotic band answers when every value it computes
converges; for l = 0 that is the band all three values would pick, as
J_{nu-1} converges whenever J_nu and J_{nu+1} do (checked for 2nu <= 400
and 60 <= x <= 200 in ``tests/test_spectral.py``).

Both rows are read alike: J_nu is ``row[i] / s``, i = nu for an integer
order and nu + 1/2 for a half-integer one (index 0 holds J_{-1/2}; the
spherical divisor is 1.0).  A pass at x starts above max(i + 1, int(x) + 1),
so one row of each parity serves every order with i <= int(x).  Inside
``shared_rows``, which ``symbif.spectral.disk_spectrum`` opens for every
dim, each scan lattice point keeps its rows for every such order scanned
there, bit-identical to a pass per order.  Other points, and calls outside
the block, make a pass ``row_of(x, m0, hi)`` of their own, hi = i + 1, that
stores the orders up to hi and normalizes only what it reads.

A pass runs two loops: the first, over the orders above the top index hi
its caller reads, stores nothing; the second stores every index from hi
down.  ``_miller_row`` steps in pairs (even order, then odd), so no step
tests its order or parity, and the spherical anchors are the pair the loop
carries at its end.  The loops make the float operations of a step-by-step
loop that stores every value, in the same order, so every value read is bit
for bit the same (``tests/test_kernel_bits.py`` checks each window against
that loop and pins the values).  A value past 1e250 in magnitude rescales,
at that step, the carried values, the sum and every value stored so far by
1e-250.  Only an order far above x does that (J_199 at x = 8.5, J_{180.5}
at x = 9); no disk spectrum within the entry budget and no ball scan to
x = 199 does.

Sampled against mpmath on a grid of x in (0, 200], the composite
evaluator stays within 3e-13 * max(1, |J_nu(x)|) for integer orders up to
8 (the largest errors sit at the top of the recurrence band, x ~ 54-56),
within 1e-14 for half-integer orders up to 7/2, and within 5e-12 for
integer orders up to 199, whose longer recurrence chains round more; the
radial condition, where alone J_nu' is formed, keeps the same bounds, and for
balls with l = 1, 3, 10 and N = 3, 4, 5, 7 it stays within
7.2e-14 * max(1, |f|) of mpmath at ten x across the three bands.  The roots of
J_l' for l = 150, 177 and 190 below x = 199 agree with mpmath's
``besseljzero`` to the last bit.  Kernels assume validated arguments
(x >= 0, order integer or half-integer >= -1/2); wrappers in
``symbif.spectral`` do the checking and raise package errors.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

SERIES_X_MAX = 8.0
ASYMPTOTIC_X_MIN = 60.0

#: no compiled backend exists; ``perfbench/run.py`` reads this to name the backend it ran
NUMBA_ENABLED = False


def _series_j(nu: float, x: float) -> float:
    """Ascending series for J_nu(x); accurate for small x > 0."""
    # below the normal range 0.5 * x rounds, to 0.0 at x = 5e-324
    h = math.log(0.5 * x) if x >= sys.float_info.min else math.log(x) - math.log(2.0)
    t = math.exp(nu * h - math.lgamma(nu + 1.0))
    s = t
    q = 0.25 * x * x
    for k in range(1, 600):
        t = -t * q / (k * (k + nu))
        s += t
        if abs(t) <= 1e-17 * abs(s) + 1e-300:
            break
    return s


def _miller_row(x: float, m0: int, hi: int | None = None) -> tuple[list[float], float]:
    """Unnormalized J_0 .. J_hi at x > 0 (default hi = m0) and their normalizing sum.

    One downward recurrence seeded with a decaying solution far above m0;
    J_k is ``row[k] / s`` by the even-order sum identity for 0 <= k <= hi
    (hi <= m0 + 3).  Every order up to hi is stored, each rescaled with the
    recurrence, so each quotient depends on x and m0 only, not on hi.
    """
    top = m0 + 20 + int(2.0 * math.sqrt(m0))
    if top % 2 == 1:
        top += 1
    if hi is None:
        hi = m0
    # f_{k-1} = (2k/x) f_k - f_{k+1} from f_top = 1e-30, f_{top+1} = 0, with t
    # the exact float 2k; the first step (odd order top - 1) cannot rescale.
    # Pairs (even order k, odd order k - 1) follow in two loops: above the
    # pair holding hi, storing nothing, and from it down to orders 2 and 1
    e_hi = hi + hi % 2
    t = 2.0 * top
    fp = 1e-30
    fc = (t / x) * 1e-30
    s = 0.0
    row = [0.0] * (e_hi + 1)
    for _ in range((top - e_hi) // 2 - 1):
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp  # even order > 0
        s += 2.0 * fc
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp  # odd order
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
    for k in range(e_hi, 1, -2):
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp
        row[k] = fc
        s += 2.0 * fc
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
            row[:] = [v * 1e-250 for v in row]
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp
        row[k - 1] = fc
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
            row[:] = [v * 1e-250 for v in row]
    fp, fc = fc, (2.0 / x) * fc - fp  # order 0
    row[0] = fc
    if fc > 1e250 or fc < -1e250:
        fc, s = fc * 1e-250, s * 1e-250
        row[:] = [v * 1e-250 for v in row]
    s += fc
    return row, s


def _sph_row(x: float, m0: int, hi: int | None = None) -> tuple[list[float], float]:
    """J_{k-1/2} for k <= hi at x > 0 (default hi = m0, a full row) with the divisor 1.0.

    J_{k-1/2} is ``row[k] / 1.0`` for every k of a full row, and for
    max(hi - 2, 0) <= k <= hi (hi <= m0 + 3) when hi is given; other entries
    are not to be read.  Downward recurrence on the spherical j_k (J_{k+1/2},
    index k + 1), rescaled against the larger of the anchors j_0 = sin(x)/x,
    j_1 = sin(x)/x^2 - cos(x)/x; index 0 holds the closed form of J_{-1/2}.
    Every index up to hi is stored, but a given hi normalizes only those three,
    so a read pays for three products.
    """
    cos = math.cos(x)
    s0 = math.sin(x) / x
    s1 = s0 / x - cos / x
    top = m0 + 20 + int(2.0 * math.sqrt(m0))
    lo, hi = (1, m0) if hi is None else (max(hi - 2, 1), hi)
    # f_{k-1} = ((2k + 1)/x) f_k - f_{k+1}; t is the float 2k + 1, exact.  The
    # steps to f_{top-1} .. f_hi store nothing, and those to indices hi .. 1 store
    t = 2.0 * top + 1.0
    fp = 0.0
    fc = 1e-30
    row = [0.0] * (hi + 1)
    for _ in range(top - hi):
        fp, fc = fc, (t / x) * fc - fp
        t -= 2.0
        if fc > 1e250 or fc < -1e250:
            fc, fp = fc * 1e-250, fp * 1e-250
    for k in range(hi, 0, -1):
        fp, fc = fc, (t / x) * fc - fp
        t -= 2.0
        row[k] = fc
        if fc > 1e250 or fc < -1e250:
            fc, fp = fc * 1e-250, fp * 1e-250
            row[:] = [v * 1e-250 for v in row]
    # fc and fp are j_0 and j_1, rescaled as every stored value was
    scale = s0 / fc if abs(s0) >= abs(s1) else s1 / fp
    c = math.sqrt(2.0 * x / math.pi)
    for k in range(lo, hi + 1):
        row[k] = c * row[k] * scale
    row[0] = c * cos / x
    return row, 1.0


#: recurrence rows of the spectrum being built: (lattice step, rows by lattice point, integer then half-integer)
_shared_rows: ContextVar[tuple[float, tuple[dict[float, tuple[list[float], float]], ...]] | None] = ContextVar(
    "symbif_shared_rows", default=None
)


@contextmanager
def shared_rows(step: float) -> Iterator[None]:
    """Let every order read one recurrence row per lattice point ``i * step`` inside the block.

    A point keeps a row per parity once read; the rows live in the current
    context only and are dropped when the block exits, by return or by raising.
    """
    token = _shared_rows.set((step, ({}, {})))
    try:
        yield
    finally:
        _shared_rows.reset(token)


def _asym_j(nu: float, x: float) -> tuple[float, bool]:
    """Large-x expansion of J_nu(x); flag reports whether it converged."""
    mu = 4.0 * nu * nu
    x8 = 8.0 * x
    if mu - 1.0 >= x8:
        # terms would grow before decaying and their rounding would dominate;
        # the backward recurrence handles this order range instead
        return 0.0, False
    p = 1.0
    q = 0.0
    t = 1.0
    ok = False
    # term m multiplies by (mu - a^2) / (8x n) with a = 2m + 1 and n = m + 1,
    # both exact floats; q takes terms m = 0, 4, ... with sign +, p terms m = 1, 5, ... with sign -,
    # and both signs flip every two terms
    sign = 1.0
    a = 1.0
    n = 1.0
    for _ in range(25):
        t = t * (mu - a * a) / (x8 * n)
        q += sign * t
        if abs(t) < 1e-17 * (abs(p) + abs(q)):
            ok = True
            break
        a += 2.0
        t = t * (mu - a * a) / (x8 * (n + 1.0))
        p -= sign * t
        if abs(t) < 1e-17 * (abs(p) + abs(q)):
            ok = True
            break
        a += 2.0
        n += 2.0
        sign = -sign
    w = x - (0.5 * nu + 0.25) * math.pi
    val = math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(w) - q * math.sin(w))
    return val, ok


def _radial_condition(l: float, dim: int, x: float) -> tuple[float, float]:
    """Radial Neumann condition f on the unit ball of dimension ``dim``, with its partner g, at x > 0.

    The Neumann eigenfunctions of harmonic degree l are u(x r) times a
    degree-l harmonic, with u = x^-c J_nu, c = (dim - 2)/2 and nu = l + c
    (DLMF 10.21(i)); f = x^c u' = J_nu' - (c/x) J_nu and g = J_nu.  J_nu' is
    (J_{nu-1} - J_{nu+1})/2, and for l = 0, where f = (l/x) J_nu - J_{nu+1}
    (DLMF 10.6.2) is -J_{nu+1} exactly, J_{nu-1} is not computed; on the disk
    (c = 0) f is J_l', the package's one formula for J', for an integer or
    half-integer l >= 0.  The zeros of f and g interlace.  The band is chosen
    here, as the module docstring states; an order whose row index i is at
    most int(x) reads the shared row of a lattice point inside ``shared_rows``.
    """
    c = 0.5 * (dim - 2)
    nu = l + c
    if x <= SERIES_X_MAX:
        jn, jp = _series_j(nu, x), _series_j(nu + 1.0, x)
        if l == 0:
            return -jp, jn
        jm = _series_j(nu - 1.0, x)
        if abs(jn) < sys.float_info.min:
            # J_nu is subnormal or 0 (so is any x below the normal range, as nu >= 1),
            # and c/x may overflow: (c/x) J_nu = c (J_{nu-1} + J_{nu+1}) / (2 nu), DLMF 10.6.1
            return 0.5 * (jm - jp) - (0.5 * c / nu) * (jm + jp), jn
        return 0.5 * (jm - jp) - (c / x) * jn, jn
    if x >= ASYMPTOTIC_X_MIN:
        (jn, ok_n), (jp, ok_p) = _asym_j(nu, x), _asym_j(nu + 1.0, x)
        if ok_n and ok_p:
            if l == 0:
                return -jp, jn
            jm, ok_m = _asym_j(nu - 1.0, x)
            if ok_m:
                return 0.5 * (jm - jp) - (c / x) * jn, jn
    i = int(nu + 0.5)  # J_nu is row[i] / s
    row_of = _miller_row if i == nu else _sph_row
    m0 = int(x) + 1
    shared = _shared_rows.get()
    got = None
    if shared is not None and i < m0:
        # only lattice points are stored, so a stored x needs no lattice test
        rows = shared[1][i != nu]
        got = rows.get(x)
        if got is None and round(x / shared[0]) * shared[0] == x:
            got = rows[x] = row_of(x, m0)
    row, s = row_of(x, max(i + 1, m0), i + 1) if got is None else got
    jn, jp = row[i] / s, row[i + 1] / s
    if l == 0:
        return -jp, jn
    return 0.5 * (row[i - 1] / s - jp) - (c / x) * jn, jn


def _bisect_radial(l: int, dim: int, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    """Root of the radial condition in a sign-change bracket [a, b], by safeguarded Newton.

    The caller's bracket has a < b and finite, nonzero ends fa, fb of
    opposite sign (``symbif.spectral._lattice_scan`` refines only there).
    The slope comes from the pair (f, g) of ``_radial_condition`` and the
    radial equation u'' + ((dim-1)/x) u' + (1 - l(l+dim-2)/x^2) u = 0 of
    u = x^-c g, whose derivative is x^-c f: f' = -(dim/2x) f -
    (1 - l(l+dim-2)/x^2) g, which is Bessel's equation (DLMF 10.2.1) on the
    disk.  The first iterate is the false-position point; each evaluation
    shrinks the bracket to the side that keeps the sign change, and an
    iterate outside the bracket is replaced by its midpoint.  Returns x + step once a Newton step is at most
    ``xtol``, the midpoint once the bracket is that narrow or at
    floating-point resolution, and NaN if an evaluation broke down (NaN
    value) or 200 iterations did not converge.
    """
    x = a - fa * (b - a) / (fb - fa)
    for _ in range(200):
        if not (a < x < b):
            x = 0.5 * (a + b)
            if x == a or x == b:
                return x
        f, g = _radial_condition(l, dim, x)
        if not (f == f) or not (g == g):
            return math.nan
        if f == 0.0:
            return x
        if (f > 0.0) == (fa > 0.0):
            a = x
            fa = f
        else:
            b = x
        df = -(0.5 * dim) * f / x - (1.0 - (l / x) * ((l + dim - 2) / x)) * g
        step = -f / df if df != 0.0 else math.inf
        if abs(step) <= xtol:
            return x + step
        if b - a <= xtol:
            return 0.5 * (a + b)
        x = x + step
    return math.nan
