"""Independent evaluation path used as the test oracle.

The production code evaluates Bessel functions in float64 through a series /
backward-recurrence / asymptotic split.  The oracle here is structurally
different: a single ascending series summed in adaptive multi-precision
arithmetic (enough digits to absorb the cancellation, which grows like
0.43 * x), wrapped in its own from-scratch grid scan and a safeguarded Newton
refinement.  The condition is formed from the pair J_nu, J_{nu+1} as
(l/x) J_nu - J_{nu+1}, and Newton takes its slope from the same pair
through J_nu' = (nu/x) J_nu - J_{nu+1} (DLMF 10.6.2) and
Bessel's equation J_nu'' = -J_nu'/x - (1 - nu^2/x^2) J_nu (DLMF 10.2.1); a
step that leaves the sign-change bracket falls back to bisection.  The module
imports nothing from ``symbif`` and never consults the production kernels, so
agreement of roots is a two-sided check.

:func:`reference_verdicts` is the verdict oracle: given a spectrum as plain
JSON entries it assembles the verdicts the straightforward way, by linear
scans for every match, explicit sums of eigenspaces for V(n), degrees as
products of their base cases and powers as repeated products, with ring
elements held as (unit, {k: coefficient}) pairs.

:func:`spherical_jp_zeros` and :func:`ball3_spectrum` are a third path for
the 3-ball: scipy's spherical Bessel functions, bracketed and refined by
scipy's own root finder.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp, mpf


def _dps_for(x: float) -> int:
    return 18 + int(0.45 * abs(x))


def bessel_j_mp(nu: float, x: float, dps: int | None = None):
    """J_nu(x) by the ascending series in mpmath arithmetic, summed until a term is below 10^-(dps-2) of the sum.

    The bound is relative, so a value far below 1 (a high order near the
    origin) keeps its leading digits instead of stopping after a term or two.
    """
    if dps is None:
        dps = _dps_for(x)
    with mp.workdps(dps):
        xm = mpf(x)
        if xm == 0:
            return mpf(1 if nu == 0 else 0)
        floor = mpf(10) ** (-(dps - 2))
        mq = -(xm * xm) / 4
        if float(nu).is_integer():
            n = int(nu)
            t = (xm / 2) ** n / mp.factorial(n)
            s = t
            for k in range(1, 20000):
                t = t * mq / (k * (k + n))  # integer denominator: cheap in gmpy
                s += t
                if abs(t) < floor * abs(s):
                    return +s
        else:
            num = mpf(nu)
            t = (xm / 2) ** num / mp.gamma(num + 1)
            s = t
            for k in range(1, 20000):
                t = t * mq / (k * (k + num))
                s += t
                if abs(t) < floor * abs(s):
                    return +s
    raise RuntimeError("oracle series did not converge")


def radial_condition_mp(l: int, dim: int, x: float, dps: int | None = None):
    """Oracle value of the radial Neumann condition J_nu' - (c/x) J_nu, c = (dim - 2)/2, nu = l + c.

    It is formed as (l/x) J_nu - J_{nu+1} (DLMF 10.6.2), which does not
    cancel at small x: for l = 0 it is -J_{nu+1} exactly.
    """
    nu = l + 0.5 * (dim - 2)
    if dps is None:
        dps = _dps_for(x)
    j0 = bessel_j_mp(nu, x, dps)
    j1 = bessel_j_mp(nu + 1, x, dps)
    with mp.workdps(dps):
        return (mpf(l) / mpf(x)) * j0 - j1


def _sign(v) -> int:
    return 0 if v == 0 else (1 if v > 0 else -1)


def _condition_and_slope(l: int, dim: int, x: float):
    """Radial condition and its x-derivative from the series pair J_nu, J_{nu+1}, nu = l + (dim - 2)/2."""
    c = 0.5 * (dim - 2)
    nu = l + c
    dps = _dps_for(x)
    j0 = bessel_j_mp(nu, x, dps)
    j1 = bessel_j_mp(nu + 1, x, dps)
    with mp.workdps(dps):
        xm, num, cm = mpf(x), mpf(nu), mpf(c)
        jp = (num / xm) * j0 - j1
        jpp = -jp / xm - (1 - (num / xm) ** 2) * j0
        return (mpf(l) / xm) * j0 - j1, jpp - (cm / xm) * jp + (cm / xm ** 2) * j0


def _refine(l: int, dim: int, a: float, b: float, fa, fb, xtol: float) -> float:
    """Root in the sign-change bracket [a, b] by Newton, bisecting when a step leaves it."""
    x = a - float(fa) * (b - a) / float(fb - fa)  # false position: inside, no evaluation
    while b - a > xtol:
        f, df = _condition_and_slope(l, dim, x)
        if f == 0:
            return x
        if _sign(f) == _sign(fa):
            a, fa = x, f
        else:
            b = x
        step = -float(f / df) if df != 0 else math.inf
        if abs(step) <= xtol:
            return x + step
        x = x + step
        if not a < x < b:
            x = 0.5 * (a + b)
    return 0.5 * (a + b)


@lru_cache(maxsize=None)
def oracle_radial_roots(l: int, dim: int, count: int, xtol: float = 1e-11) -> tuple[float, ...]:
    """First ``count`` positive roots located entirely on the oracle path.

    Grid scan at pi/8 on high-precision sign evaluations, then safeguarded
    Newton inside each sign-change bracket until the step is below ``xtol``
    (or bisection has shrunk the bracket below it).
    """
    step = math.pi / 8.0
    roots: list[float] = []
    x_prev = step
    f_prev = radial_condition_mp(l, dim, x_prev)
    while len(roots) < count:
        x_next = x_prev + step
        f_next = radial_condition_mp(l, dim, x_next)
        if f_prev == 0:
            roots.append(x_prev)
        elif _sign(f_prev) != _sign(f_next) and f_next != 0:
            roots.append(_refine(l, dim, x_prev, x_next, f_prev, f_next, xtol))
        x_prev, f_prev = x_next, f_next
        if x_prev > 1000.0:
            raise RuntimeError(f"oracle failed to find {count} roots for (l={l}, dim={dim})")
    return tuple(roots[:count])


def spherical_jp_zeros(l: int, x_max: float) -> list[float]:
    """Zeros in (0, x_max] of scipy's j_l', the 3-ball's radial condition up to the factor sqrt(pi/2x)."""
    from scipy.optimize import brentq
    from scipy.special import spherical_jn

    xs = [0.01 * i for i in range(1, int(x_max / 0.01) + 1)]
    ys = spherical_jn(l, xs, derivative=True)
    return [
        brentq(lambda x: spherical_jn(l, x, derivative=True), a, b, xtol=1e-15)
        for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:])
        if ya * yb < 0
    ]


def ball3_spectrum(x_max: float) -> list[tuple[float, int]]:
    """(eigenvalue, degree) of the 3-ball up to x_max^2 from :func:`spherical_jp_zeros`, the constants first."""
    return [(0.0, 0)] + sorted((x * x, l) for l in range(int(x_max) + 1) for x in spherical_jp_zeros(l, x_max))


# ---------------------------------------------------------------------------
# verdict reference
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _ring(unit: int, cyclic: dict | None = None) -> tuple[int, dict]:
    return unit, {k: v for k, v in (cyclic or {}).items() if v}


def _r_add(x, y, sign: int = 1):
    c = dict(x[1])
    for k, v in y[1].items():
        c[k] = c.get(k, 0) + sign * v
    return _ring(x[0] + sign * y[0], c)


def _r_mul(x, y):
    c = {}
    for k, v in y[1].items():
        c[k] = c.get(k, 0) + x[0] * v
    for k, v in x[1].items():
        c[k] = c.get(k, 0) + y[0] * v
    return _ring(x[0] * y[0], c)


def _r_pow(x, n: int):
    if n < 0:
        if x[0] not in (1, -1):
            raise ArithmeticError("not invertible")
        x, n = _ring(x[0], {k: -v for k, v in x[1].items()}), -n
    out = _ring(1)
    for _ in range(n):
        out = _r_mul(out, x)
    return out


def _rep_sum(reps) -> tuple[int, dict]:
    trivial, irr = 0, {}
    for t, i in reps:
        trivial += t
        for k, m in i.items():
            irr[k] = irr.get(k, 0) + m
    return trivial, irr


def _deg(rep) -> tuple[int, dict]:
    """(-1)^t times one factor I - chi[k] per copy of the rotation-k irreducible."""
    trivial, irr = rep
    out = _ring(-1 if trivial % 2 else 1)
    for k, m in irr.items():
        for _ in range(m):
            out = _r_mul(out, _ring(1, {k: -1}))
    return out


def _rep_json(rep) -> dict:
    return {"trivial": rep[0], "irr": {str(k): m for k, m in sorted(rep[1].items()) if m}}


def reference_verdicts(entries: list[dict], b1: dict, b2: dict, mu_b0: int, a9: bool, window, *,
                       rel: float = 1e-8, disk: bool = True) -> list[dict]:
    """Verdict documents for the window, in the schema of ``BifurcationVerdict.to_json``.

    ``entries`` are spectrum-entry documents in ascending order reaching past
    every eigenvalue the window pairs with; ``b1``/``b2`` map block
    eigenvalues to multiplicities.
    """
    lo, hi = float(window[0]), float(window[1])
    alphas = [e["eigenvalue"] for e in entries]
    reps = [(e["rep"]["trivial"], {int(k): m for k, m in e["rep"].get("irr", {}).items()}) for e in entries]
    bs1 = sorted((b, m) for b, m in b1.items() if b != 0)
    bs2 = sorted((b, m) for b, m in b2.items() if b != 0)
    members = sorted(
        m
        for m in [a / b + 0.0 for b, _ in bs1 for a in alphas] + [-a / b + 0.0 for b, _ in bs2 for a in alphas]
        if lo <= m <= hi
    )
    candidates: list[float] = []
    for m in members:
        if not candidates or not _close(candidates[-1], m, rel):
            candidates.append(m)
    if lo <= 0.0 <= hi and not any(_close(c, 0.0, rel) for c in candidates):
        candidates.append(0.0)
    candidates.sort()
    p1, p2 = sum(b1.values()), sum(b2.values())
    q1 = p1 - mu_b0
    morse = sum(m for b, m in list(b1.items()) + list(b2.items()) if b != 0)
    out = []
    for lam in candidates:
        at_zero = _close(lam, 0.0, rel)
        hits1 = [(i, m) for b, m in bs1 for i, a in enumerate(alphas) if _close(lam * b, a, rel)]
        hits2 = [(i, m) for b, m in bs2 for i, a in enumerate(alphas) if _close(lam * b, -a, rel)]
        v1 = _rep_sum((m * reps[i][0], {k: m * x for k, x in reps[i][1].items()}) for i, m in hits1)
        v2 = _rep_sum((m * reps[i][0], {k: m * x for k, x in reps[i][1].items()}) for i, m in hits2)
        if at_zero:
            glob = ("Bifurcates" if morse % 2 else "Inconclusive", "ZeroCaseParity")
        elif v1 == (0, {}) and v2 == (0, {}):
            glob = ("Inconclusive", "KernelEmpty")
        elif v1[1] == v2[1] and v1[0] % 2 == v2[0] % 2:
            glob = ("Inconclusive", "EquivalentModEvenTrivial")
        else:
            glob = ("Bifurcates", "RepNonEquivalence")
        bif, unbounded = None, "NoVerdict"
        if a9 and not at_zero:
            k0 = next(k for k, a in enumerate(alphas, start=1) if _close(a, abs(lam), rel))
            nontrivial = bool(reps[k0 - 1][1])
            q = (q1, p2) if lam > 0 else (p2, q1)
            if q[0] > 0 and q[0] % 2 == 0 and q[1] % 2 == 0 and nontrivial:
                unbounded = "Unbounded"
        if a9 and disk:
            if at_zero:
                bif = _ring((-1) ** q1 - (-1) ** p2)
            else:
                eig = _deg(reps[k0 - 1])
                if lam > 0:
                    prefix = _deg(_rep_sum(reps[: k0 - 1]))
                    bif = _r_mul(_r_pow(prefix, q1), _r_add(_r_pow(eig, q1), _ring(1), -1))
                else:
                    prefix = _deg(_rep_sum(reps[:k0]))
                    bif = _r_mul(_r_pow(prefix, -p2), _r_add(_r_pow(eig, p2), _ring(1), -1))
        out.append(
            {
                "lambda0": 0.0 if at_zero else lam,
                "in_lambda": bool(hits1 or hits2),
                "kernel": {"v1": _rep_json(v1), "v2": _rep_json(v2)},
                "glob": glob[0],
                "justification": glob[1],
                "bif": None if bif is None else {"unit": bif[0], "cyclic": {str(k): v for k, v in sorted(bif[1].items())}},
                "unbounded": unbounded,
            }
        )
    return out
