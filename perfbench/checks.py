"""Computations made apart from symbif, and the checks of symbif's outputs against them.

Nothing here imports symbif.  Roots come from scipy (``jnp_zeros`` polished by
Newton steps on ``jvp``, ``jv`` zeros by ``brentq``) and mpmath
(``besseljzero``); ring elements of the Euler ring of SO(2) are recomputed
with plain integer pairs ``(unit, {k: coeff})``.  Every check takes outputs in
their JSON form (``to_json()`` for library objects, the parsed document for
CLI output) and returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

#: relative tolerance at which two eigenvalues (or parameters) are one value;
#: symbif's documented default merge tolerance
REL = 1e-8
#: absolute tolerance on a radial root
ROOT_TOL = 1e-9
#: relative tolerance on a parameter computed from two independent spectra
PARAM_REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# roots and spectra
# ---------------------------------------------------------------------------


def disk_roots(x_max: float) -> dict[int, list[float]]:
    """Positive zeros of J_l' not exceeding x_max, for every l that has one.

    The first positive zero of J_l' exceeds l (DLMF §10.21), so l runs up to x_max.
    """
    from scipy import special

    out: dict[int, list[float]] = {}
    for l in range(int(x_max) + 1):
        nt = 8
        while True:
            zeros = special.jnp_zeros(l, nt)
            if zeros[-1] > x_max + 1.0:
                break
            nt *= 2
        polished = []
        for x in zeros:
            for _ in range(3):
                x -= special.jvp(l, x, 1) / special.jvp(l, x, 2)
            polished.append(float(x))
        roots = [x for x in polished if x <= x_max]
        if roots:
            out[l] = roots
    return out


def _grid_zeros(f, x_max: float, step: float = 0.05) -> list[float]:
    """Zeros of f in (0, x_max]: sign changes on a grid of ``step``, refined by brentq."""
    import numpy as np
    from scipy import optimize

    grid = np.arange(step, x_max + step, step)
    vals = f(grid)
    zeros = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa != 0.0 and fb != 0.0 and (fa > 0.0) != (fb > 0.0):
            z = optimize.brentq(f, a, b, xtol=1e-14, rtol=1e-15)
            if z <= x_max:
                zeros.append(float(z))
    return zeros


def bessel_zeros(nu: float, x_max: float) -> list[float]:
    """Positive zeros of J_nu up to x_max."""
    from scipy import special

    return _grid_zeros(lambda x: special.jv(nu, x), x_max)


def spherical_neumann_roots(l: int, x_max: float) -> list[float]:
    """Positive zeros of the derivative of the spherical Bessel function j_l."""
    from scipy import special

    return _grid_zeros(lambda x: special.spherical_jn(l, x, derivative=True), x_max)


@dataclass
class RefEntry:
    """One distinct eigenvalue: its representation and whether it is nontrivial."""

    alpha: float
    trivial: int
    irr: dict[int, int]
    nontrivial: bool
    angular_index: int | None = None
    root_index: int | None = None


def merge(entries: list[RefEntry]) -> list[RefEntry]:
    """Sort and fuse eigenvalues equal within REL, summing their representations."""
    out: list[RefEntry] = []
    for e in sorted(entries, key=lambda e: e.alpha):
        if out and close(out[-1].alpha, e.alpha):
            p = out[-1]
            irr = dict(p.irr)
            for k, m in e.irr.items():
                irr[k] = irr.get(k, 0) + m
            out[-1] = RefEntry(
                p.alpha,
                p.trivial + e.trivial,
                irr,
                p.nontrivial or e.nontrivial,
                p.angular_index if p.angular_index == e.angular_index else None,
                p.root_index if p.root_index == e.root_index else None,
            )
        else:
            out.append(e)
    return out


def disk_spectrum_ref(alpha_max: float) -> list[RefEntry]:
    """Neumann eigenvalues of the unit disk up to alpha_max from scipy's zeros of J_l'."""
    entries = [RefEntry(0.0, 1, {}, False, 0, None)]
    for l, roots in disk_roots(math.sqrt(alpha_max)).items():
        for k, x in enumerate(roots, start=1):
            if x * x <= alpha_max:
                rep = (1, {}) if l == 0 else (0, {l: 1})
                entries.append(RefEntry(x * x, rep[0], rep[1], l >= 1, l, k))
    return merge(entries)


def ball3_spectrum_doc(x_max: float) -> list[dict]:
    """Supplied 3-ball spectrum: squares of the zeros of j_l', eigenspace label l.

    Entries carry no ``angular_index``, so symbif decides trivial type itself.
    """
    raw = [(0.0, 0)]
    for l in range(int(x_max) + 1):
        raw.extend((x * x, l) for x in spherical_neumann_roots(l, x_max))
    raw.sort()
    docs = []
    for alpha, l in raw:
        rep = {"trivial": 1} if l == 0 else {"irr": {str(l): 1}}
        docs.append({"eigenvalue": alpha, "rep": rep})
    return docs


def trivial_type_ball3(alpha_max: float) -> list[float]:
    """Squares of the zeros of J_{3/2}, by mpmath: the trivial-type 3-ball eigenvalues."""
    import mpmath

    out = []
    k = 1
    while True:
        z = float(mpmath.besseljzero(1.5, k))
        if z * z > alpha_max * (1.0 + 10.0 * REL):
            return out
        out.append(z * z)
        k += 1


def supplied_spectrum_ref(docs: list[dict], trivial_alphas: list[float]) -> list[RefEntry]:
    """Reference entries of a supplied ball spectrum; nontrivial means not of trivial type."""
    entries = []
    for d in docs:
        irr = {int(k): m for k, m in d["rep"].get("irr", {}).items()}
        alpha = d["eigenvalue"]
        nontrivial = alpha != 0.0 and not any(close(alpha, t) for t in trivial_alphas)
        entries.append(RefEntry(alpha, d["rep"].get("trivial", 0), irr, nontrivial))
    return merge(entries)


# ---------------------------------------------------------------------------
# root checks
# ---------------------------------------------------------------------------


def _rep_json(trivial: int, irr: dict[int, int]) -> dict:
    return {"trivial": trivial, "irr": {str(k): m for k, m in sorted(irr.items())}}


def check_disk_entries(got: list[dict], ref: list[RefEntry]) -> list[str]:
    """Every eigenvalue, index and representation against the scipy spectrum."""
    problems = []
    if len(got) != len(ref):
        problems.append(f"{len(got)} eigenvalues, reference has {len(ref)}")
    for i, (g, r) in enumerate(zip(got, ref)):
        if (g["angular_index"], g["root_index"]) != (r.angular_index, r.root_index):
            problems.append(
                f"entry {i}: (l, k) = ({g['angular_index']}, {g['root_index']}), "
                f"reference ({r.angular_index}, {r.root_index})"
            )
            break
        if g["rep"] != _rep_json(r.trivial, r.irr):
            problems.append(f"entry {i}: representation {g['rep']}")
        if abs(math.sqrt(g["eigenvalue"]) - math.sqrt(r.alpha)) > ROOT_TOL:
            problems.append(
                f"entry {i}: root {math.sqrt(g['eigenvalue'])!r} vs reference {math.sqrt(r.alpha)!r}"
            )
    return problems


def check_roots(got: list[float], ref: list[float]) -> list[str]:
    problems = []
    if len(got) != len(ref):
        problems.append(f"{len(got)} roots, reference has {len(ref)}")
    for i, (g, r) in enumerate(zip(got, ref)):
        if abs(g - r) > ROOT_TOL:
            problems.append(f"root {i + 1}: {g!r} vs reference {r!r}")
    return problems


def check_mpmath_sample(got: list[dict], picks: list[int]) -> list[str]:
    """Sampled disk roots against mpmath; mpmath counts x = 0 as the first zero of J_0'."""
    import mpmath

    problems = []
    for i in picks:
        if i >= len(got):
            problems.append(f"sample index {i} beyond {len(got)} entries")
            continue
        e = got[i]
        l, k = e["angular_index"], e["root_index"]
        z = float(mpmath.besseljzero(l, k + (1 if l == 0 else 0), derivative=1))
        if abs(math.sqrt(e["eigenvalue"]) - z) > ROOT_TOL:
            problems.append(f"(l={l}, k={k}): {math.sqrt(e['eigenvalue'])!r} vs mpmath {z!r}")
    return problems


def check_prefix(small: list[dict], large: list[dict], alpha_small: float) -> list[str]:
    """A smaller bound must return exactly the larger bound's entries below it."""
    expected = [e for e in large if e["eigenvalue"] <= alpha_small]
    if small != expected:
        return [f"spectrum to {alpha_small!r} ({len(small)} entries) is not a prefix ({len(expected)} expected)"]
    return []


# ---------------------------------------------------------------------------
# Euler ring of SO(2) as integer pairs
# ---------------------------------------------------------------------------


def ring(unit: int, cyclic: dict[int, int] | None = None) -> tuple:
    return (unit, {k: v for k, v in (cyclic or {}).items() if v})


def r_add(a, b):
    c = dict(a[1])
    for k, v in b[1].items():
        c[k] = c.get(k, 0) + v
    return ring(a[0] + b[0], c)


def r_sub(a, b):
    return r_add(a, (-b[0], {k: -v for k, v in b[1].items()}))


def r_mul(a, b):
    """(u_a; c_a)(u_b; c_b) = (u_a u_b; u_a c_b + u_b c_a), since chi_j chi_k = 0."""
    c: dict[int, int] = {}
    for k, v in b[1].items():
        c[k] = c.get(k, 0) + a[0] * v
    for k, v in a[1].items():
        c[k] = c.get(k, 0) + b[0] * v
    return ring(a[0] * b[0], c)


def r_pow(a, n: int):
    """(u; c)^n = (u^n; n u^(n-1) c); negative n needs u = +-1, where u^-1 = u."""
    u, c = a
    if n == 0:
        return ring(1)
    if n < 0 and u not in (1, -1):
        raise ValueError(f"({u}; ...) is not invertible")

    def upow(m: int) -> int:
        return (u if m % 2 else 1) if u in (1, -1) else u**m

    return ring(upow(n), {k: n * upow(n - 1) * v for k, v in c.items()})


def r_json(a) -> dict:
    return {"unit": a[0], "cyclic": {str(k): v for k, v in sorted(a[1].items())}}


def r_from_json(doc: dict):
    return ring(doc["unit"], {int(k): v for k, v in doc["cyclic"].items()})


def r_key(a) -> tuple:
    return (a[0], tuple(sorted(a[1].items())))


def deg_minus_id(trivial: int, irr: dict[int, int]):
    """deg(-Id, B(V)) = (-1)^t (I - sum_k m_k chi_k)."""
    s = -1 if trivial % 2 else 1
    return ring(s, {k: -s * m for k, m in irr.items()})


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class SpecModel:
    """Block data of a system, as the benchmark generated it."""

    p1: int
    p2: int
    b1: dict[float, int]
    b2: dict[float, int]
    mu_b0: int = 0
    a9: bool = False

    def to_doc(self, domain: dict) -> dict:
        return {
            "p1": self.p1,
            "p2": self.p2,
            "b1": [{"value": b, "mult": m} for b, m in sorted(self.b1.items())],
            "b2": [{"value": b, "mult": m} for b, m in sorted(self.b2.items())],
            "mu_b0": self.mu_b0,
            "domain": domain,
            "a9": self.a9,
        }

    def coverage(self, window: tuple[float, float]) -> float:
        """Largest eigenvalue that pairs into the window."""
        lo, hi = window
        need = [hi * b if b > 0 else lo * b for b in self.b1 if b]
        need += [-lo * b if b > 0 else -hi * b for b in self.b2 if b]
        return max(need, default=0.0)


@dataclass
class VerdictModel:
    """Reference verdicts of one spec over a reference spectrum."""

    spec: SpecModel
    spectrum: list[RefEntry]
    exact: bool  # a9 on the disk: closed-form index attached
    alphas: list[float] = field(init=False)
    prefix: list[tuple[int, dict[int, int]]] = field(init=False)

    def __post_init__(self) -> None:
        self.alphas = [e.alpha for e in self.spectrum]
        t, irr = 0, {}
        self.prefix = [(0, {})]
        for e in self.spectrum:
            t += e.trivial
            irr = dict(irr)
            for k, m in e.irr.items():
                irr[k] = irr.get(k, 0) + m
            self.prefix.append((t, irr))

    def _matches(self, target: float) -> list[int]:
        """Indices of eigenvalues equal to target within REL."""
        slack = 2.0 * REL * max(1.0, abs(target))
        lo = bisect.bisect_left(self.alphas, target - slack)
        hi = bisect.bisect_right(self.alphas, target + slack)
        return [i for i in range(lo, hi) if close(target, self.alphas[i])]

    def lambda_set(self, window: tuple[float, float]) -> list[float]:
        lo, hi = window
        members = []
        for b in sorted(self.spec.b1):
            if b:
                members += [a / b + 0.0 for a in self.alphas]
        for b in sorted(self.spec.b2):
            if b:
                members += [-a / b + 0.0 for a in self.alphas]
        out: list[float] = []
        for m in sorted(m for m in members if lo <= m <= hi):
            if not out or not close(out[-1], m):
                out.append(m)
        return out

    def _kernel(self, lam: float):
        pieces = []
        for block, sign in ((self.spec.b1, 1.0), (self.spec.b2, -1.0)):
            t, irr = 0, {}
            for b, mult in sorted(block.items()):
                if not b:
                    continue
                for i in self._matches(sign * lam * b):
                    e = self.spectrum[i]
                    t += mult * e.trivial
                    for k, m in e.irr.items():
                        irr[k] = irr.get(k, 0) + mult * m
            pieces.append((t, irr))
        return pieces

    def index(self, lam: float):
        """Closed-form a9 index at lam on the disk."""
        s = self.spec
        q1, p2 = s.p1 - s.mu_b0, s.p2
        if close(lam, 0.0):
            return ring((-1) ** q1 - (-1) ** p2)
        k0 = self._matches(abs(lam))[0] + 1
        eig = self.spectrum[k0 - 1]
        d_eig = deg_minus_id(eig.trivial, eig.irr)
        if lam > 0:
            prefix = deg_minus_id(*self.prefix[k0 - 1])
            return r_mul(r_pow(prefix, q1), r_sub(r_pow(d_eig, q1), ring(1)))
        prefix = deg_minus_id(*self.prefix[k0])
        return r_mul(r_pow(prefix, -p2), r_sub(r_pow(d_eig, p2), ring(1)))

    def verdicts(self, window: tuple[float, float]) -> list[dict]:
        s = self.spec
        lo, hi = window
        candidates = self.lambda_set(window)
        if lo <= 0.0 <= hi and not any(close(c, 0.0) for c in candidates):
            candidates.append(0.0)
        candidates.sort()
        q1, q2 = s.p1 - s.mu_b0, s.p2
        morse = sum(m for b, m in s.b1.items() if b) + sum(m for b, m in s.b2.items() if b)
        out = []
        for lam in candidates:
            at_zero = close(lam, 0.0)
            (t1, irr1), (t2, irr2) = self._kernel(lam)
            if at_zero:
                glob = "Bifurcates" if morse % 2 else "Inconclusive"
                why = "ZeroCaseParity"
            elif t1 == t2 == 0 and not irr1 and not irr2:
                glob, why = "Inconclusive", "KernelEmpty"
            elif irr1 == irr2 and t1 % 2 == t2 % 2:
                glob, why = "Inconclusive", "EquivalentModEvenTrivial"
            else:
                glob, why = "Bifurcates", "RepNonEquivalence"
            unbounded = "NoVerdict"
            if s.a9 and not at_zero:
                nontrivial = self.spectrum[self._matches(abs(lam))[0]].nontrivial
                if lam > 0:
                    hyp = q1 > 0 and q1 % 2 == 0 and q2 % 2 == 0
                else:
                    hyp = q2 > 0 and q2 % 2 == 0 and q1 % 2 == 0
                unbounded = "Unbounded" if hyp and nontrivial else "NoVerdict"
            in_lambda = any(self._matches(lam * b) for b in s.b1 if b) or any(
                self._matches(-lam * b) for b in s.b2 if b
            )
            out.append(
                {
                    "lambda0": 0.0 if at_zero else lam,
                    "in_lambda": in_lambda,
                    "kernel": {"v1": _rep_json(t1, irr1), "v2": _rep_json(t2, irr2)},
                    "glob": glob,
                    "justification": why,
                    "bif": r_json(self.index(lam)) if self.exact else None,
                    "unbounded": unbounded,
                }
            )
        return out


def check_verdicts(got: list[dict], ref: list[dict], exact: bool) -> list[str]:
    """Field-by-field comparison; on exact specs Bifurcates must match a nonzero index."""
    problems = []
    if len(got) != len(ref):
        problems.append(f"{len(got)} candidates, reference has {len(ref)}")
    for g, r in zip(got, ref):
        lam = r["lambda0"]
        if not close(g["lambda0"], lam, PARAM_REL):
            problems.append(f"candidate {g['lambda0']!r} vs reference {lam!r}")
            break
        for key in ("in_lambda", "kernel", "glob", "justification", "bif", "unbounded"):
            if g[key] != r[key]:
                problems.append(f"lambda0 = {lam!r}: {key} = {g[key]!r}, reference {r[key]!r}")
    if exact:
        for g in got:
            index_nonzero = g["bif"] is not None and r_from_json(g["bif"]) != ring(0)
            if (g["glob"] == "Bifurcates") != index_nonzero:
                problems.append(f"lambda0 = {g['lambda0']!r}: {g['glob']} with index {g['bif']!r}")
    return problems


def zero_sum_count(indices: list[tuple]) -> int:
    """Number of nonempty subsets summing to zero, by counting subset sums."""
    sums = {r_key(ring(0)): 1}
    for ix in indices:
        nxt = dict(sums)
        for key, n in sums.items():
            total = r_key(r_add(ring(key[0], dict(key[1])), ix))
            nxt[total] = nxt.get(total, 0) + n
        sums = nxt
    return sums[r_key(ring(0))] - 1


def check_zero_sum(
    family: list[tuple[float, dict]], subsets: list[list[float]], model: VerdictModel
) -> list[str]:
    """Family indices against the closed form; reported subsets sum to zero and are all of them."""
    problems = []
    ref = {}
    for lam, got in family:
        ix = model.index(lam)
        ref[lam] = ix
        if got != r_json(ix):
            problems.append(f"index at {lam!r} = {got!r}, reference {r_json(ix)!r}")
    for sub in subsets:
        total = ring(0)
        for lam in sub:
            total = r_add(total, ref[lam])
        if total != ring(0):
            problems.append(f"subset {sub!r} sums to {r_json(total)!r}")
    if len({tuple(s) for s in subsets}) != len(subsets):
        problems.append("repeated subsets")
    expected = zero_sum_count([ref[lam] for lam, _ in family])
    if len(subsets) != expected:
        problems.append(f"{len(subsets)} zero-sum subsets, reference has {expected}")
    return problems


def check_rabinowitz(doc: dict, model: VerdictModel, window: tuple[float, float]) -> list[str]:
    """A structured ``rabinowitz --enumerate`` report against the reference Lambda and indices."""
    members = model.lambda_set(window)
    got = [(i["lambda0"], i["bif"]) for i in doc["indices"]]
    if len(got) != len(members) or not all(close(g, m, PARAM_REL) for (g, _), m in zip(got, members)):
        return [f"indexed parameters {[g for g, _ in got]!r} vs reference {members!r}"]
    problems = check_zero_sum(got, doc["zero_sum_subsets"], model)
    total = ring(0)
    for lam, _ in got:
        total = r_add(total, model.index(lam))
    if doc["sum"] != r_json(total):
        problems.append(f"sum {doc['sum']!r} vs reference {r_json(total)!r}")
    if doc["excludes_bounded"] != (total != ring(0)):
        problems.append(f"excludes_bounded = {doc['excludes_bounded']!r}")
    return problems
