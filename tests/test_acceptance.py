"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output); failures raise normally so pytest reports them too.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from symbif import (
    DiskDomain,
    EulerSO2,
    NonInjectiveTable,
    NotInvertible,
    OrbitDatum,
    SO2Rep,
    SystemSpec,
    bessel_j_prime,
    bif_a9,
    analyze,
    deg_minus_id,
    degree_from_orbits,
    disk_spectrum,
    kernel_reps,
    lambda_membership,
    lambda_set,
    lift_degree,
    linearization_eigenvalues,
    rabinowitz_excludes_bounded,
    radial_roots_up_to,
    rep_equiv_mod_even_trivial,
    unbounded_verdict,
)
from symbif.bifurcation import BIFURCATES, INCONCLUSIVE, NO_VERDICT, UNBOUNDED

from oracles import oracle_radial_roots

I = EulerSO2.one()
O = EulerSO2.zero()
chi = EulerSO2.chi


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {description}")
        raise
    print(f"criterion {num:2d}: PASS  {description}")


def a9_spec(q1: int, p2: int, mu: int = 0, **kw) -> SystemSpec:
    b1 = {v: m for v, m in ((0, mu), (1, q1)) if m}
    b2 = {1: p2} if p2 else {}
    return SystemSpec(
        p1=q1 + mu, p2=p2, sigma_b1=b1, sigma_b2=b2, mu_b0=mu,
        domain=kw.pop("domain", DiskDomain()), a9=True, **kw,
    )


def _random_element(rng: random.Random) -> EulerSO2:
    unit = rng.randint(-10, 10)
    cyclic = {}
    for _ in range(rng.randint(0, 4)):
        k = rng.randint(1, 12)
        c = rng.randint(-10, 10)
        if c:
            cyclic[k] = c
    return EulerSO2(unit, cyclic)


def test_criterion_1_euler_ring_property_suite():
    with criterion(1, "ring axioms, invert law and pow on >= 1000 random cases in < 1 s"):
        rng = random.Random(0xE0172)
        start = time.perf_counter()
        for _ in range(1000):
            a, b, c = (_random_element(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert I * a == a
            assert a + O == a
            u = EulerSO2(rng.choice((1, -1)), a.cyclic)
            assert u.invert() * u == I
            assert a**0 == I
            assert a**3 == a * a * a
            assert u**-2 == u.invert() * u.invert()
        with pytest.raises(NotInvertible):
            (2 * I).invert()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"ring suite took {elapsed:.2f}s"


def test_criterion_2_deg_minus_id_laws_exhaustive():
    with criterion(2, "deg(-Id) product law and degree<->equivalence, exhaustive family"):
        keys = (1, 2, 3, 4)
        base = [
            (t, mults)
            for t in range(4)
            for mults in itertools.product(range(4), repeat=4)
        ]
        reps = {}
        degs = {}
        for t, mults in base:
            rep = SO2Rep(t, {k: m for k, m in zip(keys, mults) if m})
            reps[(t, mults)] = rep
            degs[(t, mults)] = deg_minus_id(rep)
        # degrees of all possible pairwise direct sums (t <= 6, mult <= 6)
        sum_degs = {}
        for t in range(7):
            for mults in itertools.product(range(7), repeat=4):
                sum_degs[(t, mults)] = deg_minus_id(SO2Rep(t, {k: m for k, m in zip(keys, mults) if m}))
        canon = {key: (d.unit, tuple(sorted(d.cyclic.items()))) for key, d in degs.items()}
        equiv_key = {(t, mults): (t % 2, mults) for t, mults in base}
        for (t1, m1), (t2, m2) in itertools.product(base, repeat=2):
            combined = sum_degs[(t1 + t2, tuple(a + b for a, b in zip(m1, m2)))]
            assert degs[(t1, m1)] * degs[(t2, m2)] == combined
            assert (canon[(t1, m1)] == canon[(t2, m2)]) == (
                equiv_key[(t1, m1)] == equiv_key[(t2, m2)]
            )
        # spot check that the canonical keys agree with the public predicates
        rng = random.Random(7)
        sample = rng.sample(base, 60)
        for a, b in itertools.product(sample, repeat=2):
            assert rep_equiv_mod_even_trivial(reps[a], reps[b]) == (equiv_key[a] == equiv_key[b])
            assert (degs[a] == degs[b]) == (canon[a] == canon[b])


def test_criterion_3_bessel_root_accuracy():
    with criterion(3, "60 roots of J_l' match the series oracle to 1e-9, residuals < 1e-10, < 2 s"):
        # the bound is on the production root finder; the oracle runs untimed
        oracle = {l: oracle_radial_roots(l, 2, 10) for l in range(6)}
        start = time.perf_counter()
        produced = {}
        for l in range(6):
            produced[l] = radial_roots_up_to(l, 2, 40.0)[:10]
            assert len(produced[l]) == 10
            for mine in produced[l]:
                assert abs(bessel_j_prime(l, mine)) < 1e-10, (l, mine)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"root suite took {elapsed:.2f}s"
        for l in range(6):
            for mine, theirs in zip(produced[l], oracle[l]):
                assert abs(mine - theirs) < 1e-9, (l, mine, theirs)


def test_criterion_4_disk_spectrum_reproduction():
    with criterion(4, "first four nonzero disk eigenvalues and labels within 1e-4"):
        entries = disk_spectrum(18.0)
        expected = [
            (3.38996, SO2Rep.irr(1)),
            (9.32836, SO2Rep.irr(2)),
            (14.68197, SO2Rep.trivial(1)),
            (17.64999, SO2Rep.irr(3)),
        ]
        nonzero = [e for e in entries if e.eigenvalue > 0][:4]
        assert len(nonzero) == 4
        for entry, (alpha, rep) in zip(nonzero, expected):
            assert abs(entry.eigenvalue - alpha) < 1e-4
            assert entry.rep == rep


def test_criterion_5_lambda_consistency():
    with criterion(5, "three-way Lambda/kernel/linearization equivalence; IlSigma regimes"):
        spec = SystemSpec(
            p1=3, p2=1,
            sigma_b1={1: 1, -0.5: 1, 0: 1}, sigma_b2={2: 1},
            mu_b0=1, domain=DiskDomain(),
        )
        members = lambda_set(spec, (-12.0, 12.0))
        rng = random.Random(0x5A117)
        sampled = [rng.uniform(-12.0, 12.0) for _ in range(1000)] + members
        k_max = len(spec.domain.entries_up_to(30.0))
        for lam in sampled:
            in_lambda = lambda_membership(spec, lam)
            kernel_nonzero = not kernel_reps(spec, lam).is_zero()
            vanishing = any(r.vanishes for r in linearization_eigenvalues(spec, lam, k_max))
            assert in_lambda == kernel_nonzero == vanishing, lam

        # normalized block form: Lambda matches the three-case description exactly
        window = (-40.0, 40.0)
        alphas = [e.eigenvalue for e in DiskDomain().entries_up_to(40.0)]
        both = a9_spec(q1=1, p2=2)
        assert lambda_set(both, window) == sorted({-a for a in alphas} | set(alphas))
        pos = a9_spec(q1=2, p2=0)
        assert lambda_set(pos, window) == alphas
        neg = a9_spec(q1=0, p2=2)
        assert lambda_set(neg, window) == sorted(-a for a in alphas)


def test_criterion_6_closed_form_bif_identities():
    with criterion(6, "exact closed-form indices: -2*chi1, +chi1 and the parity rule at 0"):
        alpha2 = lambda_set(a9_spec(q1=2, p2=0), (1.0, 5.0))[0]
        assert bif_a9(a9_spec(q1=2, p2=0), alpha2) == -2 * chi(1)
        assert bif_a9(a9_spec(q1=0, p2=1), -alpha2) == chi(1)
        for q1, p2 in [(2, 2), (2, 1), (1, 2), (1, 1)]:
            expected = ((-1) ** q1 - (-1) ** p2) * I
            assert bif_a9(a9_spec(q1=q1, p2=p2), 0.0) == expected


def test_criterion_7_worked_example_reproduction():
    with criterion(7, "single matched pair: rotation eigenspace bifurcates, even trivial does not"):
        alpha2 = 1.8411837813406593**2
        spec = SystemSpec(p1=1, p2=0, sigma_b1={2: 1}, sigma_b2={}, domain=DiskDomain())
        verdicts = analyze(spec, (0.5, 3.0))
        assert len(verdicts) == 1
        assert verdicts[0].lambda0 == pytest.approx(alpha2 / 2, abs=1e-6)
        assert verdicts[0].glob == BIFURCATES

        twin = SystemSpec(p1=2, p2=0, sigma_b1={3: 2}, sigma_b2={}, domain=DiskDomain())
        twin_verdicts = analyze(twin, (4.5, 5.2))
        assert len(twin_verdicts) == 1
        assert twin_verdicts[0].kernel.v1 == SO2Rep.trivial(2)
        assert twin_verdicts[0].glob == INCONCLUSIVE


def test_criterion_8_unbounded_truth_table():
    with criterion(8, "32-case parity truth table for the unboundedness certificate"):
        rot_entry = disk_spectrum(5.0)[1]
        assert rot_entry.rep == SO2Rep.irr(1)
        triv_entry = disk_spectrum(15.0)[3]
        assert triv_entry.rep == SO2Rep.trivial(1)
        facts = {
            1: ("p2 > 0", "p2 odd", "continuum returns to trivial solutions at negative parameters"),
            -1: ("p1 - mu_b0 > 0", "p1 - mu_b0 odd", "continuum returns to trivial solutions at positive parameters"),
        }
        checked = 0
        for q1 in range(4):
            for q2 in range(4):
                spec = a9_spec(q1=q1, p2=q2, mu=1)
                for sign in (1, -1):
                    own, other = (q1, q2) if sign == 1 else (q2, q1)
                    one_sided = own > 0 and own % 2 == 0
                    licensed = one_sided and other % 2 == 0
                    rep = unbounded_verdict(spec, rot_entry, sign)
                    assert rep.verdict == (UNBOUNDED if licensed else NO_VERDICT), (q1, q2, sign)
                    assert rep.bounded_would_imply == (facts[sign] if one_sided else ()), (q1, q2, sign)
                    # a trivial eigenspace never certifies unboundedness and implies nothing
                    rep = unbounded_verdict(spec, triv_entry, sign)
                    assert (rep.verdict, rep.bounded_would_imply) == (NO_VERDICT, ()), (q1, q2, sign)
                    checked += 1
        assert checked == 32


def test_criterion_9_morse_degree_suite():
    with criterion(9, "orbit-degree additivity, non-injective rejection, comparison"):
        rng = random.Random(0x90135)
        classes = ["SO2", "Z1", "Z2", "Z3", "Z5", "Z8"]
        for _ in range(100):
            data = [OrbitDatum(rng.choice(classes), rng.randrange(4)) for _ in range(rng.randrange(14))]
            cut = rng.randrange(len(data) + 1)
            combined: dict[str, int] = {}
            for part in (degree_from_orbits(data[:cut]), degree_from_orbits(data[cut:])):
                for cls, coeff in part.items():
                    combined[cls] = combined.get(cls, 0) + coeff
            assert {c: v for c, v in combined.items() if v} == degree_from_orbits(data)
        for _ in range(50):
            size = rng.randint(2, 5)
            sources = rng.sample(classes, size)
            targets = [f"G.{i}" for i in range(size - 1)]  # one collision guaranteed
            table = {src: rng.choice(targets) for src in sources}
            while len(set(table.values())) == len(table):
                table[sources[0]] = table[sources[1]]
            with pytest.raises(NonInjectiveTable):
                lift_degree({src: 1 for src in sources}, table)
        table = {c: f"G.{c}" for c in classes}
        for _ in range(100):
            a = degree_from_orbits(
                OrbitDatum(rng.choice(classes), rng.randrange(3)) for _ in range(rng.randrange(7))
            )
            b = degree_from_orbits(
                OrbitDatum(rng.choice(classes), rng.randrange(3)) for _ in range(rng.randrange(7))
            )
            assert (lift_degree(a, table) != lift_degree(b, table)) == (a != b)


def test_criterion_10_rabinowitz_exclusion():
    with criterion(10, "q1 = 2 disk indices sum to -2*chi1 - 2*chi2 and exclude boundedness"):
        spec = a9_spec(q1=2, p2=0)
        alpha2, alpha3 = lambda_set(spec, (1.0, 10.0))
        indices = [bif_a9(spec, alpha2), bif_a9(spec, alpha3)]
        assert indices == [-2 * chi(1), -2 * chi(2)]
        total = indices[0] + indices[1]
        assert total == -2 * chi(1) - 2 * chi(2)
        assert not total.is_zero()
        assert rabinowitz_excludes_bounded(indices)
