import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import symbif.bifurcation
from oracles import reference_verdicts
from symbif import (
    BIFURCATES,
    INCONCLUSIVE,
    NO_VERDICT,
    UNBOUNDED,
    BallDomain,
    CustomDomain,
    DiskDomain,
    EulerSO2,
    InsufficientSpectrum,
    PreconditionError,
    RepDescriptor,
    SpectrumEntry,
    SystemSpec,
    UnsupportedDomain,
    ValidationError,
    analyze,
    ball_rep_nontrivial,
    bif_a9,
    bif_difference,
    check_glob,
    check_glob_zero,
    enumerate_zero_sum_subsets,
    kernel_reps,
    lambda_set,
    neumann_radial_roots,
    rabinowitz_excludes_bounded,
    radial_roots_up_to,
    unbounded_verdict,
)
from symbif.bifurcation import (
    J_EQUIV_MOD_EVEN,
    J_KERNEL_EMPTY,
    J_REP_NONEQUIV,
    J_ZERO_PARITY,
)

I = EulerSO2.one()
O = EulerSO2.zero()
chi = EulerSO2.chi

ALPHA2 = 1.8411837813406593**2
ALPHA3 = 3.0542369282271403**2
ALPHA4 = 3.8317059702075125**2  # trivial (l = 0) eigenvalue


def a9_spec(q1: int, p2: int, mu: int = 0, domain=None) -> SystemSpec:
    b1 = {v: m for v, m in ((0, mu), (1, q1)) if m}
    b2 = {1: p2} if p2 else {}
    return SystemSpec(
        p1=q1 + mu,
        p2=p2,
        sigma_b1=b1,
        sigma_b2=b2,
        mu_b0=mu,
        domain=DiskDomain() if domain is None else domain,
        a9=True,
    )


ROT1 = SpectrumEntry(ALPHA2, RepDescriptor.irr(1), angular_index=1, root_index=1)
TRIV = SpectrumEntry(ALPHA4, RepDescriptor.trivial(1), angular_index=0, root_index=1)


class TestCheckGlob:
    def test_nontrivial_kernel_bifurcates(self):
        spec = a9_spec(q1=2, p2=0)
        gc = check_glob(spec, ALPHA2)
        assert gc.glob == BIFURCATES and gc.justification == J_REP_NONEQUIV

    def test_even_trivial_kernel_inconclusive(self):
        spec = SystemSpec(p1=2, p2=0, sigma_b1={3: 2}, sigma_b2={}, domain=DiskDomain())
        gc = check_glob(spec, ALPHA4 / 3)
        assert gc.glob == INCONCLUSIVE and gc.justification == J_EQUIV_MOD_EVEN

    def test_odd_trivial_kernel_bifurcates(self):
        spec = SystemSpec(p1=1, p2=0, sigma_b1={3: 1}, sigma_b2={}, domain=DiskDomain())
        gc = check_glob(spec, ALPHA4 / 3)
        assert gc.glob == BIFURCATES and gc.justification == J_REP_NONEQUIV

    def test_empty_kernel(self):
        spec = a9_spec(q1=2, p2=0)
        gc = check_glob(spec, 1.234)
        assert gc.glob == INCONCLUSIVE and gc.justification == J_KERNEL_EMPTY

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            check_glob(a9_spec(q1=1, p2=0), 0.0)

    def test_parity_mismatch_of_trivial_dims(self):
        # V1 trivial dim 2, V2 trivial dim 1 at the same lambda0
        entries = [
            SpectrumEntry(0.0, RepDescriptor.trivial(1)),
            SpectrumEntry(3.0, RepDescriptor.trivial(2)),
            SpectrumEntry(6.0, RepDescriptor.trivial(1)),
        ]
        spec = SystemSpec(
            p1=1, p2=1, sigma_b1={2: 1}, sigma_b2={-4: 1}, domain=CustomDomain(entries)
        )
        kr = kernel_reps(spec, 1.5)
        assert kr.v1 == RepDescriptor.trivial(2)
        assert kr.v2 == RepDescriptor.trivial(1)
        assert check_glob(spec, 1.5).glob == BIFURCATES


class TestCheckGlobZero:
    def test_odd_total_morse_index(self):
        spec = SystemSpec(p1=3, p2=0, sigma_b1={1: 3}, sigma_b2={}, domain=DiskDomain())
        gc = check_glob_zero(spec)
        assert gc.glob == BIFURCATES and gc.justification == J_ZERO_PARITY

    def test_even_total_morse_index(self):
        spec = SystemSpec(p1=2, p2=0, sigma_b1={1: 2}, sigma_b2={}, domain=DiskDomain())
        assert check_glob_zero(spec).glob == INCONCLUSIVE

    def test_zero_matrix(self):
        spec = SystemSpec(p1=1, p2=0, sigma_b1={0: 1}, sigma_b2={}, mu_b0=1, domain=DiskDomain())
        assert check_glob_zero(spec).glob == INCONCLUSIVE

    def test_mixed_signs(self):
        spec = SystemSpec(p1=2, p2=1, sigma_b1={1: 1, -1: 1}, sigma_b2={-2: 1}, domain=DiskDomain())
        assert (spec.morse_plus(), spec.morse_minus()) == (1, 2)
        assert check_glob_zero(spec).glob == BIFURCATES


class TestBifDifference:
    def test_rotation_kernel(self):
        spec = a9_spec(q1=2, p2=0)
        assert bif_difference(spec, ALPHA2) == -2 * chi(1)

    def test_empty_kernel_gives_zero(self):
        spec = a9_spec(q1=2, p2=0)
        assert bif_difference(spec, 1.234) == O

    def test_even_trivial_kernel_gives_zero(self):
        spec = SystemSpec(p1=2, p2=0, sigma_b1={3: 2}, sigma_b2={}, domain=DiskDomain())
        assert bif_difference(spec, ALPHA4 / 3) == O

    def test_negative_parameter_swaps_sign(self):
        # lambda0 < 0 reports deg(V2) - deg(V1) = (I - 2*chi(1)) - I
        spec = a9_spec(q1=0, p2=2)
        assert bif_difference(spec, -ALPHA2) == -2 * chi(1)

    def test_rejects_non_disk(self):
        entries = [SpectrumEntry(0.0, RepDescriptor.trivial(1)), SpectrumEntry(2.0, RepDescriptor.irr(1))]
        spec = SystemSpec(
            p1=1, p2=0, sigma_b1={1: 1}, sigma_b2={}, domain=BallDomain(entries, dim=3)
        )
        with pytest.raises(UnsupportedDomain):
            bif_difference(spec, 2.0)

    def test_consistency_with_check_glob(self):
        spec = SystemSpec(
            p1=3, p2=1, sigma_b1={1: 2, 2: 1}, sigma_b2={1: 1}, domain=DiskDomain()
        )
        for lam in lambda_set(spec, (-12.0, 12.0)):
            if lam == 0.0:
                continue
            nonzero = not bif_difference(spec, lam).is_zero()
            assert nonzero == (check_glob(spec, lam).glob == BIFURCATES), lam


class TestBifA9:
    def test_positive_q1_two(self):
        assert bif_a9(a9_spec(q1=2, p2=0), ALPHA2) == -2 * chi(1)
        assert bif_a9(a9_spec(q1=2, p2=0), ALPHA3) == -2 * chi(2)

    def test_negative_p2_one(self):
        assert bif_a9(a9_spec(q1=0, p2=1), -ALPHA2) == chi(1)

    def test_zero_all_parities(self):
        assert bif_a9(a9_spec(q1=2, p2=2), 0.0) == O
        assert bif_a9(a9_spec(q1=2, p2=1), 0.0) == 2 * I
        assert bif_a9(a9_spec(q1=1, p2=2), 0.0) == -2 * I
        assert bif_a9(a9_spec(q1=1, p2=1), 0.0) == O
        assert bif_a9(a9_spec(q1=3, p2=2), 0.0) == -2 * I

    def test_zero_parity_criterion(self):
        for q1 in range(4):
            for p2 in range(4):
                if q1 + p2 == 0:
                    continue
                vanishes = bif_a9(a9_spec(q1=q1, p2=p2), 0.0).is_zero()
                assert vanishes == ((q1 - p2) % 2 == 0)

    def test_trivial_eigenspace_even_q1_vanishes(self):
        assert bif_a9(a9_spec(q1=2, p2=0), ALPHA4) == O

    def test_trivial_eigenspace_odd_q1_is_parity_jump(self):
        # D(E)^3 - I = -2I; prefix = -(I - 3*chi(1) - 3*chi(2)) over V(3)
        el = bif_a9(a9_spec(q1=3, p2=0), ALPHA4)
        assert el == 2 * I - 6 * chi(1) - 6 * chi(2)

    def test_requires_a9(self):
        spec = SystemSpec(p1=2, p2=0, sigma_b1={1: 2}, sigma_b2={}, domain=DiskDomain())
        with pytest.raises(PreconditionError):
            bif_a9(spec, ALPHA2)

    def test_requires_disk(self):
        entries = [SpectrumEntry(0.0, RepDescriptor.trivial(1)), SpectrumEntry(2.0, RepDescriptor.irr(1))]
        spec = SystemSpec(
            p1=1,
            p2=0,
            sigma_b1={1: 1},
            sigma_b2={},
            domain=CustomDomain(entries),
            a9=True,
        )
        with pytest.raises(UnsupportedDomain):
            bif_a9(spec, 2.0)

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionError):
            bif_a9(a9_spec(q1=2, p2=0), 1.234)
        with pytest.raises(PreconditionError):
            bif_a9(a9_spec(q1=2, p2=0), -ALPHA2)  # negative side needs p2 > 0

    def test_nonzero_for_nontrivial_eigenspace(self):
        # q1 >= 1 with a rotation eigenspace always produces a nonzero index
        for q1 in range(1, 5):
            el = bif_a9(a9_spec(q1=q1, p2=0), ALPHA2)
            assert not el.is_zero()

    def test_even_q1_index_is_nonpositive_cyclic(self):
        for q1 in (2, 4):
            for lam in (ALPHA2, ALPHA3):
                el = bif_a9(a9_spec(q1=q1, p2=0), lam)
                assert el.unit == 0
                assert all(c <= 0 for c in el.cyclic.values())

    def test_consistency_with_difference_dichotomy(self):
        spec = a9_spec(q1=2, p2=1)
        for lam in lambda_set(spec, (-11.0, 11.0)):
            if lam == 0.0:
                continue
            assert bif_a9(spec, lam).is_zero() == bif_difference(spec, lam).is_zero(), lam


class TestRabinowitz:
    def test_cancelling_pair(self):
        assert not rabinowitz_excludes_bounded([-2 * chi(1), 2 * chi(1)])

    def test_fresh_keys_cannot_cancel(self):
        assert rabinowitz_excludes_bounded([-2 * chi(1), -2 * chi(3)])

    def test_empty_family(self):
        assert not rabinowitz_excludes_bounded([])

    def test_monotone_under_fresh_key(self):
        family = [-2 * chi(1), 2 * chi(1), 5 * I - chi(2)]
        extended = family + [7 * chi(9)]  # key 9 unused anywhere else
        assert rabinowitz_excludes_bounded(extended)

    def test_enumeration(self):
        labelled = [(1.0, -2 * chi(1)), (2.0, 2 * chi(1)), (3.0, chi(2))]
        subsets = enumerate_zero_sum_subsets(labelled)
        assert subsets == [(1.0, 2.0)]

    def test_enumeration_bound(self):
        labelled = [(float(i), chi(1)) for i in range(25)]
        with pytest.raises(ValidationError):
            enumerate_zero_sum_subsets(labelled)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                EulerSO2,
                st.integers(-2, 2),
                st.dictionaries(st.integers(1, 3), st.integers(-3, 3), max_size=2),
            ),
            max_size=12,
        )
    )
    def test_enumeration_matches_combinations(self, family):
        # small coefficients on few keys, so many subsets cancel
        labelled = [(float(i), ix) for i, ix in enumerate(family)]
        brute = [
            tuple(lam for lam, _ in combo)
            for r in range(1, len(labelled) + 1)
            for combo in itertools.combinations(labelled, r)
            if not rabinowitz_excludes_bounded(ix for _, ix in combo)
        ]
        assert enumerate_zero_sum_subsets(labelled) == brute


class TestUnboundedVerdict:
    def test_positive_even_pattern(self):
        rep = unbounded_verdict(a9_spec(q1=2, p2=0), ROT1, 1)
        assert rep.verdict == UNBOUNDED
        assert rep.bounded_would_imply  # proposition facts attached

    def test_negative_even_pattern(self):
        assert unbounded_verdict(a9_spec(q1=0, p2=2), ROT1, -1).verdict == UNBOUNDED

    def test_parity_failure(self):
        assert unbounded_verdict(a9_spec(q1=2, p2=1), ROT1, 1).verdict == NO_VERDICT

    def test_trivial_eigenspace_blocks_verdict(self):
        assert unbounded_verdict(a9_spec(q1=2, p2=0), TRIV, 1).verdict == NO_VERDICT

    def test_requires_a9(self):
        spec = SystemSpec(p1=2, p2=0, sigma_b1={1: 2}, sigma_b2={}, domain=DiskDomain())
        with pytest.raises(PreconditionError):
            unbounded_verdict(spec, ROT1, 1)

    def test_sign_validated(self):
        with pytest.raises(ValidationError):
            unbounded_verdict(a9_spec(q1=2, p2=0), ROT1, 2)

    def test_one_sided_implications_without_verdict(self):
        rep = unbounded_verdict(a9_spec(q1=2, p2=1), ROT1, 1)
        assert rep.verdict == NO_VERDICT
        assert "p2 odd" in rep.bounded_would_imply

    def test_swap_symmetry(self):
        # (q1, 0) at +alpha behaves like (0, q2 = q1) at -alpha
        for q in range(4):
            if q == 0:
                continue
            plus = unbounded_verdict(a9_spec(q1=q, p2=0), ROT1, 1).verdict
            minus = unbounded_verdict(a9_spec(q1=0, p2=q), ROT1, -1).verdict
            assert plus == minus

    def test_ball_domain_uses_radial_test(self):
        root2 = 7.725251836937707  # second root of the dim-3 trivial-type condition
        entries = [
            SpectrumEntry(0.0, RepDescriptor.trivial(1)),
            SpectrumEntry(root2 * root2, RepDescriptor.trivial(1)),
        ]
        spec = a9_spec(q1=2, p2=0, domain=BallDomain(entries, dim=3))
        assert unbounded_verdict(spec, entries[1], 1).verdict == NO_VERDICT


class TestAnalyze:
    def test_ball_trivial_type_roots_scanned_once(self, kernel_calls):
        trivial = [r * r for r in neumann_radial_roots(0, 3, 8)]
        alphas = sorted(trivial + [1.0 + 2.5 * k for k in range(90)])
        entries = [SpectrumEntry(0.0, RepDescriptor.trivial(1))] + [
            SpectrumEntry(a, RepDescriptor.trivial(1) if a in trivial else RepDescriptor.irr(1))
            for a in alphas
        ]
        domain = BallDomain(entries, dim=3)
        kernel_calls[0] = 0
        verdicts = analyze(a9_spec(q1=2, p2=0, domain=domain), (-300.0, 300.0))
        assert len(verdicts) >= 90
        during_analyze = kernel_calls[0]
        kernel_calls[0] = 0
        # b = 1, so the largest candidate eigenvalue is the largest |lambda0|;
        # one scan up to its test range, plus the lattice point each resumption
        # of the cached scan starts from
        radial_roots_up_to(0, 3, math.sqrt(max(abs(v.lambda0) for v in verdicts)) + math.pi)
        assert 0 < during_analyze <= 1.05 * kernel_calls[0]
        for e in entries:
            assert domain.rep_nontrivial(e) == ball_rep_nontrivial(e, 3) == e.rep.has_nontrivial()

    def test_a9_window(self):
        spec = a9_spec(q1=2, p2=0)
        verdicts = analyze(spec, (-1.0, 15.0))
        assert [round(v.lambda0, 5) for v in verdicts] == [0.0, 3.38996, 9.32836, 14.68197]
        by_lambda = {round(v.lambda0, 5): v for v in verdicts}
        assert by_lambda[3.38996].glob == BIFURCATES
        assert by_lambda[3.38996].bif_element == -2 * chi(1)
        assert by_lambda[3.38996].unbounded == UNBOUNDED
        assert by_lambda[14.68197].glob == INCONCLUSIVE
        assert by_lambda[14.68197].justification == J_EQUIV_MOD_EVEN
        assert by_lambda[0.0].justification == J_ZERO_PARITY
        assert all(v.in_lambda for v in verdicts)

    def test_first_worked_example(self):
        # single matched pair (alpha, b) with a rotation eigenspace: bifurcates at alpha/b
        spec = SystemSpec(p1=1, p2=0, sigma_b1={2: 1}, sigma_b2={}, domain=DiskDomain())
        verdicts = analyze(spec, (0.5, 3.0))
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.lambda0 == pytest.approx(ALPHA2 / 2)
        assert v.glob == BIFURCATES
        assert v.bif_element is None  # exact element only in the normalized form

    def test_trivial_matched_eigenspace_inconclusive(self):
        spec = SystemSpec(p1=2, p2=0, sigma_b1={3: 2}, sigma_b2={}, domain=DiskDomain())
        verdicts = analyze(spec, (4.5, 5.2))
        assert len(verdicts) == 1
        assert verdicts[0].glob == INCONCLUSIVE
        assert verdicts[0].justification == J_EQUIV_MOD_EVEN

    def test_empty_window(self):
        spec = a9_spec(q1=2, p2=0)
        assert analyze(spec, (0.5, 1.0)) == []

    def test_zero_always_reported_when_in_window(self):
        spec = SystemSpec(p1=1, p2=0, sigma_b1={0: 1}, sigma_b2={}, mu_b0=1, domain=DiskDomain())
        verdicts = analyze(spec, (-1.0, 1.0))
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.lambda0 == 0.0
        assert not v.in_lambda  # no nonzero block eigenvalue pairs with 0
        assert v.glob == INCONCLUSIVE

    def test_bifurcates_implies_in_lambda(self):
        specs = [
            a9_spec(q1=1, p2=2),
            SystemSpec(p1=2, p2=1, sigma_b1={1: 1, -1: 1}, sigma_b2={2: 1}, domain=DiskDomain()),
        ]
        for spec in specs:
            for v in analyze(spec, (-9.0, 9.0)):
                if v.glob == BIFURCATES:
                    assert v.in_lambda

    def test_bif_element_nonzero_exactly_when_rep_nonequivalence(self):
        for spec in (a9_spec(q1=2, p2=1), a9_spec(q1=3, p2=2), a9_spec(q1=1, p2=0, mu=1)):
            for v in analyze(spec, (-11.0, 16.0)):
                assert v.bif_element is not None  # normalized form on the disk
                if v.glob == BIFURCATES and v.justification == J_REP_NONEQUIV:
                    assert not v.bif_element.is_zero()

    def test_json_schema(self):
        spec = a9_spec(q1=2, p2=0)
        doc = analyze(spec, (0.0, 4.0))[1].to_json()
        assert set(doc) == {"lambda0", "in_lambda", "kernel", "glob", "justification", "bif", "unbounded"}
        assert doc["kernel"] == {
            "v1": {"trivial": 0, "irr": {"1": 2}},
            "v2": {"trivial": 0, "irr": {}},
        }
        assert doc["bif"] == {"unit": 0, "cyclic": {"1": -2}}


def _dumps(verdicts) -> str:
    return json.dumps([v.to_json() for v in verdicts], sort_keys=True)


class TestVerdictsAgainstReference:
    """analyze against the straightforward reference of ``oracles.reference_verdicts``."""

    @pytest.fixture(scope="class")
    def domain(self):
        domain = DiskDomain()
        domain.entries_up_to(1600.0)
        return domain

    def check(self, domain, b1, b2, mu_b0, a9, window):
        spec = SystemSpec(
            p1=sum(b1.values()), p2=sum(b2.values()), sigma_b1=b1, sigma_b2=b2, mu_b0=mu_b0, domain=domain, a9=a9
        )
        entries = [e.to_json() for e in domain.entries_up_to(1600.0)]
        reference = reference_verdicts(entries, b1, b2, mu_b0, a9, window)
        got = _dumps(analyze(spec, window))
        assert got == json.dumps(reference, sort_keys=True)
        return reference

    def test_worked_examples(self, domain):
        assert len(self.check(domain, {2: 1}, {}, 0, False, (0.5, 3.0))) == 1
        assert len(self.check(domain, {3: 2}, {}, 0, False, (4.5, 5.2))) == 1
        assert len(self.check(domain, {1: 2}, {}, 0, True, (-1.0, 15.0))) == 4

    def test_a9_window_1200(self, domain):
        verdicts = self.check(domain, {1: 2}, {1: 2}, 0, True, (-1200.0, 1200.0))
        assert len(verdicts) > 300
        assert any(v["unbounded"] == UNBOUNDED for v in verdicts)
        self.check(domain, {0: 1, 1: 3}, {1: 1}, 1, True, (-1200.0, 1200.0))

    def test_fractional_and_negative_blocks(self, domain):
        b1 = {0.5 + 1 / 4096: 1, -(0.75 + 2 / 4096): 1}
        b2 = {1.25 + 3 / 4096: 2, -(0.375 + 1 / 4096): 1}
        verdicts = self.check(domain, b1, b2, 0, False, (-800.0, 800.0))
        assert {v["justification"] for v in verdicts} >= {J_REP_NONEQUIV, J_ZERO_PARITY}


    def test_zero_eigenspace_is_still_a_member(self):
        # a supplied eigenspace may be the zero representation: the kernel is
        # then zero, yet the parameter is in Lambda
        entries = [
            SpectrumEntry(0.0, RepDescriptor.trivial(1)),
            SpectrumEntry(2.0, RepDescriptor.zero()),
            SpectrumEntry(5.0, RepDescriptor.irr(3)),
        ]
        spec = SystemSpec(p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={0.5: 1}, domain=CustomDomain(entries))
        window = (-8.0, 4.5)
        reference = reference_verdicts([e.to_json() for e in entries], {1: 1}, {0.5: 1}, 0, False, window, disk=False)
        verdicts = analyze(spec, window)
        assert _dumps(verdicts) == json.dumps(reference, sort_keys=True)
        (at_two,) = [v for v in verdicts if v.lambda0 == 2.0]
        assert at_two.in_lambda and at_two.kernel.is_zero() and at_two.justification == J_KERNEL_EMPTY


class TestVerdictCost:
    """Work per candidate, counted: one kernel lookup each, and no spectrum copies per candidate."""

    @pytest.fixture(scope="class")
    def domain(self):
        domain = DiskDomain()
        domain.entries_up_to(1300.0)
        return domain

    def test_kernel_lookup_once_per_candidate(self, domain, call_counts):
        calls = call_counts(symbif.bifurcation, "kernel_reps")
        verdicts = analyze(a9_spec(q1=2, p2=2, domain=domain), (-300.0, 300.0))
        assert 0 < calls[0] <= len(verdicts)

    def test_entries_copied_a_constant_number_of_times(self, domain, call_counts):
        copies = call_counts(DiskDomain, "entries_up_to")
        sizes = []
        for w in (300.0, 1200.0):
            copies[0] = 0
            analyze(a9_spec(q1=2, p2=2, domain=domain), (-w, w))
            sizes.append(copies[0])
        assert sizes[0] == sizes[1] <= 2

    def test_ring_elements_grow_with_candidates(self, domain, call_counts):
        built = call_counts(EulerSO2, "__post_init__")
        counts = []
        for w in (300.0, 1200.0):
            built[0] = 0
            n = len(analyze(a9_spec(q1=3, p2=1, mu=1, domain=domain), (-w, w)))
            counts.append((n, built[0]))
        (n_small, e_small), (n_large, e_large) = counts
        assert e_large / e_small <= 1.1 * n_large / n_small

    def test_insufficient_spectrum_unchanged(self):
        # raised by the candidate set, and by a kernel lookup past the bound
        cases = [
            ({}, 1.0, "need eigenvalues up to 2.00000021 but the spectrum bound is 1.0"),
            ({1: 1}, 150.0, "need eigenvalues up to 172.3257788344548 but the spectrum bound is 150.0"),
        ]
        for b1, bound, message in cases:
            spec = SystemSpec(p1=len(b1), p2=1, sigma_b1=b1, sigma_b2={2: 1}, domain=DiskDomain(bound=bound))
            with pytest.raises(InsufficientSpectrum) as exc:
                analyze(spec, (-1.0, 100.0))
            assert str(exc.value) == message
