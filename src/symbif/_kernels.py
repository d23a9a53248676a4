"""Scalar Bessel-evaluation and root-refinement kernels.

These are the hot inner loops of the package: every spectrum computation
boils down to thousands of evaluations of a radial Neumann condition, on
the scan lattice and inside the safeguarded Newton refinement of each
bracket (about three per root).  They are plain Python with ``math``
only; there is one evaluation path.

Evaluation strategy for J_nu(x), nu a nonnegative integer or half-integer:

* ``x <= 8``: ascending power series (termwise recurrence, also exact at 0).
* ``8 < x < 60``: backward three-term recurrence.  Integer orders are
  normalized by the even-order sum identity ``J_0 + 2*sum J_{2k} = 1``
  (DLMF 3.6(vi), 10.12); half-integer orders go through the spherical
  functions anchored at ``sin(x)/x`` and ``sin(x)/x^2 - cos(x)/x``.
* ``x >= 60``: large-argument asymptotic expansion in the phase
  ``x - (nu/2 + 1/4)*pi``; if its terms do not fall below 1e-17 of the sum
  within 50 terms (very large order), fall back to the recurrence.

The integer-order recurrence at x starts above max(n + 1, int(x) + 1), so
one pass (``_miller_row``) serves every order n <= int(x) at that x.  Inside
``shared_rows``, which ``symbif.spectral.disk_spectrum`` opens, the row of
each scan lattice point is kept and read by every disk order scanned there
(each of them has l <= int(x)); the values are bit-identical to a pass per
order.  Other points, and every call outside the block, get a pass of their
own and read only the three values asked for.

Both recurrence loops (``_miller_row``, ``_sph3``) store every value and
pick the orders they need after the loop, and ``_miller_row`` steps in pairs
(even order, then odd), so no step tests its order or parity.  They make the
float operations of a step-by-step loop that tests both, in the same order, so
every value is bit for bit the same (``tests/test_kernel_bits.py`` pins them).
A value past 1e250 in magnitude rescales, at that step, the carried values,
the sum and every stored value by 1e-250.  Only an order far above x does
that (J_199 at x = 8.5, J_{180.5} at x = 9); no disk spectrum within the
entry budget and no ball scan to x = 199 does.

Sampled against mpmath on a grid of x in (0, 200], the composite
evaluator stays within 3e-13 * max(1, |J_nu(x)|) for integer orders up to
8 (the largest errors sit at the top of the recurrence band, x ~ 54-56),
within 1e-14 for half-integer orders up to 7/2, and within 5e-12 for
integer orders up to 199, whose longer recurrence chains round more; J_l',
formed in ``_radial_condition`` only, keeps the same bounds.  The roots of
J_l' for l = 150, 177 and 190 below x = 199 agree with mpmath's
``besseljzero`` to the last bit.  Kernels assume validated arguments
(x >= 0, order integer or half-integer >= -1/2); wrappers in
``symbif.spectral`` do the checking and raise package errors.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

SERIES_X_MAX = 8.0
ASYMPTOTIC_X_MIN = 60.0

#: no compiled backend exists; ``perfbench/run.py`` reads this to name the backend it ran
NUMBA_ENABLED = False


def _series_j(nu: float, x: float) -> float:
    """Ascending series for J_nu(x); accurate for small x."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    t = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))
    s = t
    q = 0.25 * x * x
    for k in range(1, 600):
        t = -t * q / (k * (k + nu))
        s += t
        if abs(t) <= 1e-17 * abs(s) + 1e-300:
            break
    return s


def _miller_row(x: float, m0: int) -> tuple[list[float], float]:
    """Unnormalized J_0 .. J_m0 at x > 0 and their normalizing sum.

    One downward recurrence seeded with a decaying solution far above m0;
    J_k is ``row[k] / s`` by the even-order sum identity.  Every value is
    stored and rescaled with the recurrence, so each quotient depends on x
    and m0 only.
    """
    top = m0 + 20 + int(2.0 * math.sqrt(m0))
    if top % 2 == 1:
        top += 1
    # f_{k-1} = (2k/x) f_k - f_{k+1} from f_top = 1e-30, f_{top+1} = 0, with t
    # the exact float 2k; the first step (odd order top - 1) cannot rescale
    t = 2.0 * top
    fp = 1e-30
    fc = (t / x) * 1e-30
    s = 0.0
    row = [fc]
    for _ in range(top // 2 - 1):
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp  # even order > 0
        row.append(fc)
        s += 2.0 * fc
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
            row[:] = [v * 1e-250 for v in row]
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp  # odd order
        row.append(fc)
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
            row[:] = [v * 1e-250 for v in row]
    fp, fc = fc, (2.0 / x) * fc - fp  # order 0
    row.append(fc)
    if fc > 1e250 or fc < -1e250:
        fc, s = fc * 1e-250, s * 1e-250
        row[:] = [v * 1e-250 for v in row]
    s += fc
    row.reverse()
    return row[: m0 + 1], s


#: recurrence rows of the disk spectrum being built: (lattice step, rows by lattice point)
_shared_rows: ContextVar[tuple[float, dict[float, tuple[list[float], float]]] | None] = ContextVar(
    "symbif_shared_rows", default=None
)


@contextmanager
def shared_rows(step: float) -> Iterator[None]:
    """Let every order read one recurrence row per lattice point ``i * step`` inside the block.

    The rows live in the current context only and are dropped when the block
    exits, by return or by an exception.
    """
    token = _shared_rows.set((step, {}))
    try:
        yield
    finally:
        _shared_rows.reset(token)


def _miller3(n: int, x: float) -> tuple[float, float, float]:
    """(J_{n-1}, J_n, J_{n+1}) for integer n >= 0, x > 0, by downward recurrence.

    The pass starts above m0 = max(n + 1, int(x) + 1), so every n <= int(x)
    gets the same pass at x: inside ``shared_rows`` the row J_0 .. J_m0 of a
    lattice point is kept and serves all those orders, bit-identical to a
    pass of their own.  J_{-1} is served as -J_1.
    """
    m0 = int(x) + 1
    shared = _shared_rows.get()
    if shared is not None and n < m0 and round(x / shared[0]) * shared[0] == x:
        rows = shared[1]
        if x not in rows:
            rows[x] = _miller_row(x, m0)
        row, s = rows[x]
    else:
        row, s = _miller_row(x, max(n + 1, m0))
    jp = row[n + 1]
    jm = -jp if n == 0 else row[n - 1]
    return jm / s, row[n] / s, jp / s


def _sph3(n: int, x: float) -> tuple[float, float, float]:
    """(J_{nu-1}, J_nu, J_{nu+1}) for nu = n + 1/2, x > 0, via spherical functions.

    Downward recurrence on j_k, rescaled against whichever of the closed-form
    anchors j_0 = sin(x)/x, j_1 = sin(x)/x^2 - cos(x)/x is larger.
    """
    s0 = math.sin(x) / x
    s1 = s0 / x - math.cos(x) / x
    m0 = max(n + 2, int(x) + 1)
    top = m0 + 20 + int(2.0 * math.sqrt(m0))
    # f_{k-1} = ((2k + 1)/x) f_k - f_{k+1}; t is the float 2k + 1, exact, and
    # f_k is row[-1 - k] once the loop ends
    t = 2.0 * top + 1.0
    fp = 0.0
    fc = 1e-30
    row: list[float] = []
    for _ in range(top):
        fp, fc = fc, (t / x) * fc - fp
        t -= 2.0
        row.append(fc)
        if fc > 1e250 or fc < -1e250:
            fc, fp = fc * 1e-250, fp * 1e-250
            row[:] = [v * 1e-250 for v in row]
    scale = s0 / row[-1] if abs(s0) >= abs(s1) else s1 / row[-2]
    c = math.sqrt(2.0 * x / math.pi)
    out_n = c * row[-1 - n] * scale
    out_p = c * row[-2 - n] * scale
    if n == 0:
        # nu - 1 = -1/2 has a closed form
        return c * math.cos(x) / x, out_n, out_p
    return c * row[-n] * scale, out_n, out_p


def _asym_j(nu: float, x: float) -> tuple[float, bool]:
    """Large-x expansion of J_nu(x); flag reports whether it converged."""
    mu = 4.0 * nu * nu
    if mu - 1.0 >= 8.0 * x:
        # terms would grow before decaying and their rounding would dominate;
        # the backward recurrence handles this order range instead
        return 0.0, False
    p = 1.0
    q = 0.0
    t = 1.0
    ok = False
    sign_q = 1.0
    sign_p = -1.0
    m = 0
    while m < 50:
        t = t * (mu - (2.0 * m + 1.0) ** 2) / (8.0 * x * (m + 1.0))
        q += sign_q * t
        if abs(t) < 1e-17 * (abs(p) + abs(q)):
            ok = True
            break
        t = t * (mu - (2.0 * m + 3.0) ** 2) / (8.0 * x * (m + 2.0))
        p += sign_p * t
        if abs(t) < 1e-17 * (abs(p) + abs(q)):
            ok = True
            break
        sign_q = -sign_q
        sign_p = -sign_p
        m += 2
    w = x - (0.5 * nu + 0.25) * math.pi
    val = math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(w) - q * math.sin(w))
    return val, ok


def _bessel_j3(nu: float, x: float) -> tuple[float, float, float]:
    """(J_{nu-1}, J_nu, J_{nu+1}); nu integer or half-integer, nu >= 0, x >= 0.

    At x = 0 the series gives exactly 1 for J_0 and 0 for every other order
    (also for J_{-1/2}, infinite there, which no caller reads).
    """
    if x <= SERIES_X_MAX:
        if nu == 0.0:
            jp = _series_j(1.0, x)
            return -jp, _series_j(0.0, x), jp
        return _series_j(nu - 1.0, x), _series_j(nu, x), _series_j(nu + 1.0, x)
    if x >= ASYMPTOTIC_X_MIN:
        vm, ok_m = _asym_j(nu - 1.0, x)
        vn, ok_n = _asym_j(nu, x)
        vp, ok_p = _asym_j(nu + 1.0, x)
        if ok_m and ok_n and ok_p:
            return vm, vn, vp
    if nu != math.floor(nu):
        return _sph3(int(nu - 0.5), x)
    return _miller3(int(nu), x)


def _radial_condition(l: float, dim: int, x: float) -> tuple[float, float]:
    """Radial Neumann condition f on the unit ball of dimension ``dim``, with its partner g, at x > 0.

    dim == 2: (J_l'(x), J_l(x)) for an integer or half-integer l >= 0, where
    J_l' = (J_{l-1} - J_{l+1})/2 and J_0' = -J_1, the package's one formula for J'.
    dim >= 3 (l == 0 only): (-J_{nu+1}(x), J_nu(x)) with nu = (dim - 2)/2, where
    -J_{nu+1} = J_nu' - (nu/x) J_nu (DLMF 10.6.2).  Both come from one
    ``_bessel_j3`` triple; the zeros of f and g interlace (DLMF 10.21(i)).
    """
    if dim == 2:
        jm, jn, jp = _bessel_j3(float(l), x)
        if l == 0:
            return -jp, jn
        return 0.5 * (jm - jp), jn
    _, jn, jp = _bessel_j3(0.5 * (dim - 2), x)
    return -jp, jn


def _bisect_radial(l: int, dim: int, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    """Root of the radial condition in a sign-change bracket [a, b], by safeguarded Newton.

    The caller's bracket has a < b and finite, nonzero ends fa, fb of
    opposite sign (``symbif.spectral._lattice_scan`` refines only there).
    The slope comes from the pair (f, g) of ``_radial_condition``: for the
    disk f' = J_l'' = -f/x - (1 - l^2/x^2) g (DLMF 10.2.1), for balls
    f' = -J_{nu+1}' = -g - ((nu+1)/x) f (DLMF 10.6.2).  The first iterate is
    the false-position point; each evaluation shrinks the bracket to the side
    that keeps the sign change, and an iterate outside the bracket is
    replaced by its midpoint.  Returns x + step once a Newton step is at most
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
        if dim == 2:
            df = -f / x - (1.0 - (l / x) * (l / x)) * g
        else:
            df = -g - (0.5 * dim / x) * f  # nu + 1 = dim/2
        step = -f / df if df != 0.0 else math.inf
        if abs(step) <= xtol:
            return x + step
        if b - a <= xtol:
            return 0.5 * (a + b)
        x = x + step
    return math.nan
