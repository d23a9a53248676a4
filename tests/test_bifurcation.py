import itertools
import json
from collections import Counter
import math
import re
from datetime import timedelta

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import symbif.bifurcation
import symbif.spectral
from conftest import a9_spec, supplied_ball
from oracles import a9_blocks, close, reference_candidates, reference_kernel, reference_verdicts
from symbif import (
    BIFURCATES,
    INCONCLUSIVE,
    NO_VERDICT,
    UNBOUNDED,
    CustomDomain,
    DiskDomain,
    EulerSO2,
    GlobCheck,
    InsufficientSpectrum,
    PreconditionError,
    RootCache,
    SO2Rep,
    SpectrumEntry,
    SystemSpec,
    UnboundedReport,
    UnsupportedDomain,
    ValidationError,
    analyze,
    ball_rep_nontrivial,
    bif_a9,
    bif_difference,
    check_glob,
    check_glob_zero,
    disk_spectrum,
    enumerate_zero_sum_subsets,
    kernel_reps,
    lambda_set,
    rabinowitz_excludes_bounded,
    radial_roots_up_to,
    unbounded_verdict,
)
from symbif.spectral import MERGE_REL
from symbif.system import _merged, _spectral_pairs, _swept_kernels
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


ROT1 = SpectrumEntry(ALPHA2, SO2Rep.irr(1), angular_index=1, root_index=1)
TRIV = SpectrumEntry(ALPHA4, SO2Rep.trivial(1), angular_index=0, root_index=1)


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

    @pytest.mark.parametrize("lam", [1e-12, -1e-12, MERGE_REL, -MERGE_REL])
    def test_near_zero_is_zero_everywhere(self, lam):
        # one rule: within MERGE_REL of 0 the parameter is 0, so check_glob and
        # bif_difference refuse it and analyze and bif_a9 take the zero case
        spec = a9_spec(q1=1, p2=1)
        with pytest.raises(PreconditionError, match="check_glob needs lambda0 != 0"):
            check_glob(spec, lam)
        with pytest.raises(PreconditionError, match="bif_difference needs lambda0 != 0"):
            bif_difference(spec, lam)
        assert bif_a9(spec, lam) == bif_a9(spec, 0.0)
        (verdict,) = analyze(spec, (-abs(lam), abs(lam)))
        assert (verdict.lambda0, verdict.justification) == (0.0, J_ZERO_PARITY)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_not_zero(self, lam):
        # checked before the zero test, as an infinity lies within any relative band of 0
        spec = a9_spec(q1=1, p2=1)
        for call in (check_glob, bif_difference):
            with pytest.raises(ValidationError, match="must be finite"):
                call(spec, lam)

    def test_parity_mismatch_of_trivial_dims(self):
        # V1 trivial dim 2, V2 trivial dim 1 at the same lambda0
        entries = [
            SpectrumEntry(0.0, SO2Rep.trivial(1)),
            SpectrumEntry(3.0, SO2Rep.trivial(2)),
            SpectrumEntry(6.0, SO2Rep.trivial(1)),
        ]
        spec = SystemSpec(
            p1=1, p2=1, sigma_b1={2: 1}, sigma_b2={-4: 1}, domain=CustomDomain(entries)
        )
        kr = kernel_reps(spec, 1.5)
        assert kr.v1 == SO2Rep.trivial(2)
        assert kr.v2 == SO2Rep.trivial(1)
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
        # a supplied and a computed 3-ball: the closed forms hold on the disk alone
        entries = disk_spectrum(5.0, dim=3)
        for domain in (supplied_ball(entries), DiskDomain(dim=3)):
            spec = SystemSpec(p1=1, p2=0, sigma_b1={1: 1}, sigma_b2={}, domain=domain)
            with pytest.raises(UnsupportedDomain):
                bif_difference(spec, entries[1].eigenvalue)

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
        entries = [SpectrumEntry(0.0, SO2Rep.trivial(1)), SpectrumEntry(2.0, SO2Rep.irr(1))]
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
        for n in (21, 25):
            labelled = [(float(i), chi(1)) for i in range(n)]
            with pytest.raises(ValidationError) as exc:
                enumerate_zero_sum_subsets(labelled)
            assert str(exc.value) == f"subset enumeration is exponential; refusing {n} > 20 members"

    def test_twenty_members_answer_in_time(self, deadline):
        # 2^20 - 1 subsets, the halves 2^10 each; every label k carries +1, -1, +2
        # and -2, which cancel in 3 ways, so 4^5 - 1 families sum to zero
        labelled = [(float(i), chi(i % 5 + 1, (-1) ** (i // 5) * (i // 10 + 1))) for i in range(20)]
        with deadline(2, "no answer within the deadline"):
            subsets = enumerate_zero_sum_subsets(labelled)
        assert len(subsets) == 4**5 - 1
        assert all(not rabinowitz_excludes_bounded(labelled[int(lam)][1] for lam in s) for s in subsets)

    @pytest.mark.parametrize(
        "family",
        [
            [],
            [O],
            [O] * 12,
            [chi(1), -chi(1), chi(1), -chi(1), 2 * I, -2 * I],
            [-2 * chi(1), -2 * chi(1), 2 * chi(1), 2 * chi(1), O, chi(2)],
        ],
        ids=["empty", "one-zero", "twelve-zeros", "duplicates", "duplicates-and-zero"],
    )
    def test_enumeration_of_worked_families(self, family):
        labelled = [(float(i), ix) for i, ix in enumerate(family)]
        brute = _zero_sum_combinations(labelled)
        assert enumerate_zero_sum_subsets(labelled) == brute
        if family == [O] * 12:
            assert len(brute) == 4095  # every nonempty subset

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
        assert enumerate_zero_sum_subsets(labelled) == _zero_sum_combinations(labelled)


def _zero_sum_combinations(labelled):
    """The zero-sum families by brute force, in itertools.combinations order."""
    return [
        tuple(lam for lam, _ in combo)
        for r in range(1, len(labelled) + 1)
        for combo in itertools.combinations(labelled, r)
        if not rabinowitz_excludes_bounded(ix for _, ix in combo)
    ]


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
        # a true 3-ball spectrum holds a trivial summand at each squared trivial-type root, which the
        # build checks; the verdict reads the stated trivial rep there
        entries = disk_spectrum(radial_roots_up_to(0, 3, 8.0)[1] ** 2, dim=3)
        spec = a9_spec(q1=2, p2=0, domain=supplied_ball(entries))
        trivial = [e for e in entries[1:] if e.rep == SO2Rep.trivial(1)]
        assert len(trivial) == 2 and trivial[1] is entries[-1]
        assert all(unbounded_verdict(spec, e, 1).verdict == NO_VERDICT for e in trivial)


class TestSuppliedSpectrumPaths:
    def test_near_duplicate_gives_one_verdict_on_both_paths(self):
        # 5.0 and 5.0 (1 + 2e-9) are one eigenvalue with eigenspace triv + irr(1), which the
        # merge builds from a document and from Python alike; left unmerged, the trivial entry
        # alone was matched at +-5 and the Python-built domain gave NoVerdict there
        entries = [
            SpectrumEntry(0.0, SO2Rep.trivial(1)),
            SpectrumEntry(5.0, SO2Rep.trivial(1)),
            SpectrumEntry(5.0 * (1 + 2e-9), SO2Rep.irr(1)),
            SpectrumEntry(9.0, SO2Rep.trivial(1)),
        ]
        doc = {"type": "custom", "entries": [e.to_json() for e in entries]}
        for domain in (symbif.spectral.domain_from_json(doc), CustomDomain(entries)):
            verdicts = analyze(a9_spec(q1=2, p2=2, domain=domain), (-6.0, 6.0))
            assert [(v.lambda0, v.unbounded) for v in verdicts] == [
                (-5.0, UNBOUNDED), (0.0, NO_VERDICT), (5.0, UNBOUNDED)
            ]


class TestAnalyze:
    def test_candidate_within_the_tolerance_of_zero_is_the_zero_candidate(self):
        # the pair at -5e-9 absorbs the pairs at 0; it is 0 by close(), so analyze
        # reports it as 0 and adds no second candidate at 0
        entries = [SpectrumEntry(0.0, SO2Rep.trivial(1)), SpectrumEntry(2e-8, SO2Rep.irr(1))]
        spec = SystemSpec(p1=1, p2=0, sigma_b1={-4: 1}, domain=CustomDomain(entries + [SpectrumEntry(20.0, SO2Rep.irr(3))]))
        for window in ((-1.0, 1.0), (-1.0, -1e-12)):
            assert lambda_set(spec, window) == [-5e-9]
            (v,) = analyze(spec, window)
            assert (v.lambda0, v.glob, v.justification, v.in_lambda) == (0.0, BIFURCATES, J_ZERO_PARITY, True)

    def test_two_candidates_close_to_zero_on_both_sides(self):
        # b = 2.2e9 puts the pairs of alpha = 20 at -+9.09e-9, within the tolerance of 0 on each
        # side and 1.8e-8 apart, so they do not merge: each is reported as 0 with its own kernel
        entries = [SpectrumEntry(0.0, SO2Rep.trivial(1)), SpectrumEntry(20.0, SO2Rep.irr(1))]
        domain = CustomDomain(entries + [SpectrumEntry(300.0, SO2Rep.irr(3))])
        spec = SystemSpec(p1=1, p2=1, sigma_b1={2.2e9: 1}, sigma_b2={2.2e9: 1}, domain=domain)
        window = (-1e-7, 1e-7)
        assert lambda_set(spec, window) == [-20.0 / 2.2e9, 20.0 / 2.2e9]
        verdicts = analyze(spec, window)
        assert json.dumps([v.to_json() for v in verdicts]) == (
            '[{"lambda0": 0.0, "in_lambda": true, "kernel": {"v1": {"trivial": 0, "irr": {}}, '
            '"v2": {"trivial": 0, "irr": {"1": 1}}}, "glob": "Inconclusive", "justification": "ZeroCaseParity", '
            '"bif": null, "unbounded": "NoVerdict"}, '
            '{"lambda0": 0.0, "in_lambda": true, "kernel": {"v1": {"trivial": 0, "irr": {"1": 1}}, '
            '"v2": {"trivial": 0, "irr": {}}}, "glob": "Inconclusive", "justification": "ZeroCaseParity", '
            '"bif": null, "unbounded": "NoVerdict"}]'
        )
        assert [[e.eigenvalue for e in v.kernel.matched] for v in verdicts] == [[20.0], [20.0]]

    def test_ball_trivial_type_roots_scanned_once(self, kernel_calls, call_counts):
        # the build computes the spectrum once, up to the top eigenvalue, with one scan per degree as a
        # computation of its own to that bound into a cache does (the domain keeps its roots); the
        # verdicts read the stated reps and evaluate nothing
        entries = disk_spectrum(1000.0, dim=3)
        degrees = 1 + max(e.angular_index for e in entries)  # 0, 1, ..., each with a root
        scans = call_counts(symbif._kernels, "_lattice_scan")
        kernel_calls.reset()
        domain = supplied_ball(entries)
        built = (scans[0], kernel_calls.lattice, kernel_calls.refinement)
        verdicts = analyze(a9_spec(q1=2, p2=0, domain=domain), (-900.0, 900.0))
        assert len(verdicts) >= 90
        assert (scans[0], kernel_calls.lattice, kernel_calls.refinement) == built
        assert built[0] == degrees + 1  # and the first degree with none
        kernel_calls.reset()
        disk_spectrum(entries[-1].eigenvalue * (1.0 + 2.0 * MERGE_REL), dim=3, cache=RootCache())
        assert built[1:] == (kernel_calls.lattice, kernel_calls.refinement)
        for e in entries:
            assert ball_rep_nontrivial(e, 3) == e.rep.has_nontrivial()

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

    def test_pairs_at_the_edges_of_the_matching_band(self, domain):
        # the disk's eigenvalues lie far apart, so blocks set the pairs 0.95e-8 (one candidate) and 1.05e-8 apart (two)
        inside = self.check(domain, {1: 1, 1 + 0.95e-8: 1}, {}, 0, False, (3.0, 40.0))
        outside = self.check(domain, {1: 1, 1 + 1.05e-8: 1}, {}, 0, False, (3.0, 40.0))
        assert len(inside) > 5 and len(outside) == 2 * len(inside)

    def test_zero_eigenspace_is_still_a_member(self):
        # a supplied eigenspace may be the zero representation: the kernel is
        # then zero, yet the parameter is in Lambda
        entries = [
            SpectrumEntry(0.0, SO2Rep.trivial(1)),
            SpectrumEntry(2.0, SO2Rep.zero()),
            SpectrumEntry(5.0, SO2Rep.irr(3)),
        ]
        spec = SystemSpec(p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={0.5: 1}, domain=CustomDomain(entries))
        window = (-8.0, 4.5)
        reference = reference_verdicts([e.to_json() for e in entries], {1: 1}, {0.5: 1}, 0, False, window, disk=False)
        verdicts = analyze(spec, window)
        assert _dumps(verdicts) == json.dumps(reference, sort_keys=True)
        (at_two,) = [v for v in verdicts if v.lambda0 == 2.0]
        assert at_two.in_lambda and at_two.kernel.is_zero() and at_two.justification == J_KERNEL_EMPTY


SWEEP_REACH = 160.0

# ALPHA2 = j'_{1,1}^2 is the first positive disk eigenvalue, so no window inside (0, ALPHA2) holds a candidate
_sweep_windows = st.one_of(
    st.floats(1.0, SWEEP_REACH).map(lambda w: (-w, w)),
    st.tuples(st.floats(0.0, SWEEP_REACH), st.floats(0.0, SWEEP_REACH)).map(lambda t: (min(t), max(t))),
    st.tuples(st.floats(0.0, SWEEP_REACH), st.floats(0.0, SWEEP_REACH)).map(lambda t: (-max(t), -min(t))),
    st.tuples(st.floats(0.01, ALPHA2 - 0.01), st.sampled_from([1, -1])).map(
        lambda t: (t[0] / 2, t[0]) if t[1] > 0 else (-t[0], -t[0] / 2)
    ),
)


class TestA9Sweep:
    """analyze's one-sweep indices against bif_a9 one parameter at a time, and against the reference."""

    @pytest.fixture(scope="class")
    def domain(self):
        domain = DiskDomain()
        domain.entries_up_to(SWEEP_REACH * 1.01)
        return domain

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(q1=st.integers(0, 4), p2=st.integers(0, 4), mu=st.integers(0, 2), window=_sweep_windows)
    def test_sweep_matches_single_calls_and_reference(self, domain, q1, p2, mu, window):
        if q1 + mu + p2 == 0:
            return
        spec = a9_spec(q1=q1, p2=p2, mu=mu, domain=domain)
        verdicts = analyze(spec, window)
        for v in verdicts:
            assert v.bif_element == bif_a9(spec, v.lambda0), v.lambda0
        entries = [e.to_json() for e in domain.entries_up_to(SWEEP_REACH * 1.01)]
        reference = reference_verdicts(entries, *a9_blocks(q1, p2, mu), mu, True, window)
        assert _dumps(verdicts) == json.dumps(reference, sort_keys=True)
        if window[0] > 0.0 and window[1] < ALPHA2 or window[1] < 0.0 and window[0] > -ALPHA2:
            assert verdicts == []

    def test_first_error_in_input_order(self):
        # a lambda that is not an eigenvalue, then one beyond the spectrum bound:
        # the first raises, as it would one call at a time
        spec = a9_spec(q1=2, p2=1, domain=DiskDomain(bound=50.0))
        with pytest.raises(PreconditionError, match="^5.0 is not an eigenvalue of the loaded spectrum$"):
            symbif.bifurcation._a9_indices(spec, [ALPHA2, 5.0, 1000.0])
        with pytest.raises(InsufficientSpectrum):
            symbif.bifurcation._a9_indices(spec, [1000.0, 5.0])
        assert symbif.bifurcation._a9_indices(SystemSpec(p1=1, p2=0, sigma_b1={1: 1}), []) == []


KERNEL_REACH = 120.0
KERNEL_REACH_STEPS = 48  # 1 + 2.5 * 47 = 118.5 < KERNEL_REACH


def _custom_entries() -> list[SpectrumEntry]:
    # pairs of eigenvalues 0.5-1.1 MERGE_REL apart, a zero eigenspace and several labels
    out = [SpectrumEntry(0.0, SO2Rep.trivial(1))]
    for k in range(1, 32):
        a = 4.0 * k - 0.5 / k
        rep = (SO2Rep.zero(), SO2Rep.trivial(2), SO2Rep.irr(k % 4 + 1), SO2Rep(1, {k % 3 + 1: 2}))[k % 4]
        out.append(SpectrumEntry(a, rep))
        if k % 5 == 0:
            out.append(SpectrumEntry(a * (1.0 + (0.5 + 0.3 * (k % 3)) * MERGE_REL), SO2Rep.irr(k % 2 + 2)))
    return out


@st.composite
def _near_blocks(draw):
    """Block tables whose parameters alpha/(s*b) lie 0.5-2 MERGE_REL apart, across B1 and B2."""
    b1, b2 = {}, {}
    for _ in range(draw(st.integers(1, 3))):
        b = draw(st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0])) * draw(st.sampled_from([1, -1]))
        for _ in range(draw(st.integers(1, 3))):
            in_b1 = draw(st.booleans())
            block, value = (b1, b) if in_b1 else (b2, -b)  # B2's sign keeps the parameter alpha/b
            block[value] = block.get(value, 0) + draw(st.integers(1, 2))
            b *= 1.0 + draw(st.floats(0.5, 2.0)) * MERGE_REL
    mu_b0 = draw(st.integers(0, 1))
    if mu_b0 or draw(st.booleans()):
        b1[0] = b1.get(0, 0) + 1
    return b1, b2, mu_b0, False


_a9_blocks = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)).filter(lambda t: sum(t) > 0).map(
    lambda t: (*a9_blocks(*t), t[2], True)
)


def _kernel_window(t: tuple[int, float, int]) -> tuple[float, float]:
    # |lambda0| <= KERNEL_REACH / 3.2 keeps every |lambda0 * b| (|b| <= 3 (1 + 6e-8)) inside the spectrum
    step = KERNEL_REACH / 3.2 / 16
    lo = (t[0] + t[1]) * step
    return lo, min(lo + t[2] * step, 16 * step)


class TestKernelSweep:
    """analyze's kernels, candidate by candidate, against the reference's candidates, kernels and verdicts."""

    @pytest.fixture(scope="class")
    def domains(self):
        disk = DiskDomain()
        disk.entries_up_to(KERNEL_REACH)
        # a supplied ball must be a true spectrum: the build checks it against the computed one
        ball = supplied_ball(disk_spectrum(1.5 * KERNEL_REACH, dim=3))
        return {"disk": disk, "ball": ball, "custom": CustomDomain(_custom_entries())}

    def check(self, domain, b1, b2, mu_b0, a9, window):
        spec = SystemSpec(
            p1=sum(b1.values()), p2=sum(b2.values()), sigma_b1=b1, sigma_b2=b2, mu_b0=mu_b0, domain=domain, a9=a9
        )
        verdicts = analyze(spec, window)
        covered = domain.entries_up_to(KERNEL_REACH)
        entries = [e.to_json() for e in covered]
        lams = reference_candidates(entries, b1, b2, window)
        # kernel by kernel before the count, so a candidate the matching rule merges or splits shows as its kernel
        for lam, v in zip(lams, verdicts):
            v1, v2, matched = reference_kernel(entries, b1, b2, lam)
            assert (v.kernel.v1, v.kernel.v2) == (SO2Rep(*v1), SO2Rep(*v2)), lam
            assert [id(e) for e in v.kernel.matched] == [id(covered[i]) for i in matched], lam
        assert len(verdicts) == len(lams)
        disk = isinstance(domain, DiskDomain) and domain.dim == 2
        reference = reference_verdicts(entries, b1, b2, mu_b0, a9, window, disk=disk)
        assert _dumps(verdicts) == json.dumps(reference, sort_keys=True)
        return verdicts

    @settings(max_examples=80, deadline=timedelta(seconds=5), derandomize=True)
    @given(
        blocks=st.one_of(_near_blocks(), _a9_blocks),
        window=st.tuples(st.integers(-16, 15), st.floats(0.0, 1.0), st.integers(1, 32)).map(_kernel_window),
    )
    @pytest.mark.parametrize("kind", ["disk", "ball", "custom"])
    def test_kernels_match_single_lookups_and_reference(self, domains, kind, blocks, window):
        self.check(domains[kind], *blocks, window)

    def test_pair_matching_two_candidates(self, domains):
        verdicts = self.check(domains["disk"], {1: 1, 1 + 6e-9: 1, 1 + 1.2e-8: 1}, {}, 0, False, (3.0, 4.0))
        assert len(verdicts) == 2
        assert [len(v.kernel.matched) for v in verdicts] == [2, 2]
        assert all(v.kernel.v1 == SO2Rep.irr(1, 2) for v in verdicts)

    def test_lone_and_shared_hits_match_brute_force(self, domains):
        # nearly every candidate matches one pair, which the walk builds on its own path;
        # 0 matches one pair per block and near-equal blocks share candidates
        general = self.check(domains["disk"], {0.5: 1, -0.75: 1}, {1.25: 2, -0.375: 1}, 0, False, (-40.0, 40.0))
        hits = Counter(len(v.kernel.matched) for v in general)
        assert hits[1] > 20 and hits[4] == 1 and set(hits) == {1, 4}
        near = self.check(domains["disk"], {1: 1, 1 + 6e-9: 1, 1 + 1.2e-8: 1}, {}, 0, False, (-40.0, 40.0))
        assert set(Counter(len(v.kernel.matched) for v in near)) == {2, 3}

    def test_pair_outside_the_window_matches_a_candidate_inside(self, domains):
        verdicts = self.check(domains["disk"], {1: 1, 1 - 6e-9: 1}, {}, 0, False, (3.0, ALPHA2 * (1 + 3e-9)))
        (v,) = verdicts
        assert close(v.lambda0, ALPHA2)
        assert v.kernel.to_json()["v1"]["irr"] == {"1": 2}
        assert len(v.kernel.matched) == 2


class TestVerdictCost:
    """Work per candidate, counted: no spectrum lookup or copy per candidate."""

    @pytest.fixture(scope="class")
    def domain(self):
        domain = DiskDomain()
        domain.entries_up_to(1300.0)
        return domain

    def test_kernel_lookup_once_per_candidate(self, domain, call_counts):
        # the spectral pairs are formed once and walked: no candidate calls kernel_reps
        kernels = [call_counts(module, "kernel_reps") for module in (symbif.system, symbif.bifurcation)]
        verdicts = analyze(a9_spec(q1=2, p2=2, domain=domain), (-300.0, 300.0))
        assert len(verdicts) > 0
        assert [k[0] for k in kernels] == [0, 0]

    def test_unbounded_verdict_reads_the_kernel_lookup(self, domain, call_counts):
        # the eigenspaces unbounded_verdict certifies come from the same walk, so
        # analyze requests the spectrum as often for 33 candidates as for more
        # than 300, on the disk and on a supplied ball spectrum
        lookups = call_counts(DiskDomain, "entries_up_to")
        counts = []
        for w in (100.0, 1200.0):
            lookups[0] = 0
            verdicts = analyze(a9_spec(q1=2, p2=2, domain=domain), (-w, w))
            counts.append((len(verdicts), lookups[0]))
        assert counts[0][0] == 33 and counts[1][0] > 300
        assert counts[0][1] == counts[1][1] == 1
        ball = supplied_ball(disk_spectrum(250.0, dim=3))  # a computed ball, whose build reads it once
        lookups[0] = 0
        verdicts = analyze(a9_spec(q1=2, p2=2, domain=ball), (-200.0, 200.0))
        assert len(verdicts) > 40 and any(v.unbounded == UNBOUNDED for v in verdicts)
        assert lookups[0] == counts[0][1]

    def test_a_built_ball_is_judged_without_evaluation(self, kernel_calls, call_counts):
        # the build checks the trivial-type roots; after it, analyze and unbounded_verdict read the
        # stated reps of the true 3-ball spectrum (degree l at each root of degree l) and scan nothing
        x_max = 12.0
        entries = [SpectrumEntry(0.0, SO2Rep.trivial(1))] + sorted(
            (
                SpectrumEntry(x * x, SO2Rep.irr(l) if l else SO2Rep.trivial(1))
                for l in range(int(x_max) + 1)
                for x in radial_roots_up_to(l, 3, x_max)
            ),
            key=lambda e: e.eigenvalue,
        )
        spec = a9_spec(q1=2, p2=2, domain=supplied_ball(entries))
        roots = call_counts(symbif.spectral, "radial_roots_up_to")
        kernel_calls.reset()
        top = entries[-1].eigenvalue
        verdicts = analyze(spec, (-top, top))
        reports = [unbounded_verdict(spec, e, sign) for e in entries[1:] for sign in (1, -1)]
        assert len(verdicts) == 2 * len(entries) - 1 and sum(v.unbounded == UNBOUNDED for v in verdicts) == 34
        assert [r.verdict for r in reports] == [
            UNBOUNDED if e.rep.has_nontrivial() else NO_VERDICT for e in entries[1:] for _ in (1, -1)
        ]
        assert (roots[0], kernel_calls.total) == (0, 0)

    def test_no_verdict_record_per_candidate(self, domain, call_counts):
        # glob and the unboundedness parities are decided without a GlobCheck or an
        # UnboundedReport per candidate; only the candidate at 0 asks check_glob_zero,
        # and the eigenspace test still runs once for every other candidate
        globs = call_counts(GlobCheck, "__init__")
        reports = call_counts(UnboundedReport, "__init__")
        certificates = call_counts(symbif.bifurcation, "unbounded_verdict")
        nontrivial = call_counts(SO2Rep, "has_nontrivial")
        verdicts = analyze(a9_spec(q1=2, p2=2, domain=domain), (-1200.0, 1200.0))
        assert len(verdicts) > 300 and any(v.unbounded == UNBOUNDED for v in verdicts)
        assert (globs[0], reports[0], certificates[0]) == (1, 0, 0)
        assert nontrivial[0] == len(verdicts) - 1

    def test_walk_reads_each_eigenvalue_once(self, domain):
        # the pair test reads alpha from one list made per walk, not from an entry per pair in reach
        class CountedEntry(SpectrumEntry):
            reads = 0

            @property
            def eigenvalue(self):
                CountedEntry.reads += 1
                return self._eigenvalue

            @eigenvalue.setter
            def eigenvalue(self, value):
                self._eigenvalue = value

        spec = SystemSpec(p1=2, p2=3, sigma_b1={0.5: 1, -0.75: 1}, sigma_b2={1.25: 2, -0.375: 1}, domain=domain)
        lo, hi, entries, blocks, pairs = _spectral_pairs(spec, (-300.0, 300.0))
        lams = _merged(pairs, lo, hi)
        counted = [CountedEntry(e.eigenvalue, e.rep, e.angular_index, e.root_index) for e in entries]
        CountedEntry.reads = 0
        kernels = _swept_kernels(counted, blocks, pairs, lams)
        assert len(lams) > len(entries) and CountedEntry.reads == len(entries)
        for kr, ref in zip(kernels, _swept_kernels(entries, blocks, pairs, lams), strict=True):
            assert (kr.v1, kr.v2) == (ref.v1, ref.v2)
            assert [counted.index(e) for e in kr.matched] == [entries.index(e) for e in ref.matched]

    def test_kernels_hold_copies_of_the_eigenspaces(self, domain):
        # a kernel never hands out an entry's own rep or its irreducibles table, one hit or several
        general = SystemSpec(p1=2, p2=3, sigma_b1={0.5: 1, -0.75: 1}, sigma_b2={1.25: 2, -0.375: 1}, domain=domain)
        near = SystemSpec(p1=3, p2=0, sigma_b1={1: 1, 1 + 6e-9: 1, 1 + 1.2e-8: 1}, domain=domain)
        for spec in (a9_spec(q1=1, p2=1, domain=domain), general, near):
            for v in analyze(spec, (-100.0, 100.0)):
                for piece in (v.kernel.v1, v.kernel.v2):
                    for e in v.kernel.matched:
                        assert piece is not e.rep and piece.irreducibles is not e.rep.irreducibles

    def test_a9_indices_sort_the_pairs_once(self, domain, call_counts):
        # rabinowitz --lambdas and --enumerate: one sort of the spectral pairs for
        # any number of parameters, walked in sorted order, answered in input order
        spec = a9_spec(q1=3, p2=1, mu=1, domain=domain)
        sorts = call_counts(symbif.bifurcation, "_spectral_pairs")
        counts = []
        for w in (300.0, 1200.0):
            lams = lambda_set(spec, (-w, w))[::-1]
            sorts[0] = 0
            indices = symbif.bifurcation._a9_indices(spec, lams)
            counts.append((len(lams), sorts[0]))
            assert indices == [v.bif_element for v in analyze(spec, (-w, w))][::-1]
        assert counts[0][0] > 80 and counts[1][0] > 300
        assert counts[0][1] == counts[1][1] == 1

    def test_ring_elements_grow_with_candidates(self, domain, call_counts):
        # every record built, checked or not: per verdict, two kernel pieces and, on the a9 path, its index,
        # whose verdict at 0 also builds the unit class; 89, 327 and 1,251 a9 verdicts
        counts = [call_counts(cls, name) for cls in (EulerSO2, SO2Rep) for name in ("__init__", "_make")]

        def built():
            """Records built so far: EulerSO2, SO2Rep."""
            return counts[0][0] + counts[1][0], counts[2][0] + counts[3][0]

        general = SystemSpec(p1=2, p2=3, sigma_b1={0.5: 1, -0.75: 1}, sigma_b2={1.25: 2, -0.375: 1}, domain=domain)
        for spec, index in ((a9_spec(q1=3, p2=1, domain=domain), 1), (general, 0)):
            analyze(spec, (-4_800.0, 4_800.0))  # the spectrum, whose entries hold reps too, is built before counting
            for w in (300.0, 1_200.0, 4_800.0):
                elements, reps = built()
                n = len(analyze(spec, (-w, w)))
                assert n > w / 4 and built() == (elements + index * (n + 1), reps + 2 * n), w

    def test_insufficient_spectrum_unchanged(self):
        # raised by the candidate set
        spec = SystemSpec(p1=0, p2=1, sigma_b1={}, sigma_b2={2: 1}, domain=DiskDomain(bound=1.0))
        with pytest.raises(InsufficientSpectrum) as exc:
            analyze(spec, (-1.0, 100.0))
        # the request is _reach(2.0) = 2 + 2 REACH, rounded up: how far close can reach from 2, and no further
        assert str(exc.value) == "need eigenvalues up to 2.0000000200000008 but the spectrum bound is 1.0"
        # B2's b = 2 pairs only with parameters below 0, so the window (-1, 100)
        # needs no more spectrum than B1's b = 1 and analyze answers within the bound
        spec = SystemSpec(p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={2: 1}, domain=DiskDomain(bound=150.0))
        unbounded = SystemSpec(p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={2: 1}, domain=DiskDomain())
        assert _dumps(analyze(spec, (-1.0, 100.0))) == _dumps(analyze(unbounded, (-1.0, 100.0)))
        # a kernel lookup past the bound on the positive side still raises: at
        # alpha = j'_{4,2}^2 B1's b = 2 asks for _reach(2 * alpha) = 2 * alpha
        # (1 + REACH); the number is a computed root, so it is compared with
        # the bisection refiner's value and with mpmath
        spec = SystemSpec(p1=1, p2=1, sigma_b1={2: 1}, sigma_b2={1: 1}, domain=DiskDomain(bound=150.0))
        (alpha,) = [e.eigenvalue for e in DiskDomain().entries_up_to(100.0) if (e.angular_index, e.root_index) == (4, 2)]
        with pytest.raises(InsufficientSpectrum) as exc:
            kernel_reps(spec, alpha)
        found = re.fullmatch(r"need eigenvalues up to (\S+) but the spectrum bound is 150\.0", str(exc.value))
        assert found is not None, str(exc.value)
        need = float(found.group(1))
        assert math.isclose(need, 172.32576331579222, rel_tol=1e-9, abs_tol=0.0)
        alpha = float(mpmath.besseljzero(4, 2, derivative=1)) ** 2
        assert math.isclose(need, 2.0 * alpha * (1.0 + 1e-8), rel_tol=1e-12, abs_tol=0.0)
