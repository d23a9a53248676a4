import json
import math

import mpmath
import pytest

from symbif import (
    DomainError,
    RepDescriptor,
    RootCache,
    SchemaError,
    SpectrumEntry,
    UnsupportedDomain,
    ValidationError,
    ball_rep_nontrivial,
    bessel_j,
    bessel_j_prime,
    disk_spectrum,
    load_custom_spectrum,
    neumann_radial_roots,
    radial_condition,
    radial_roots_up_to,
)
from symbif.spectral import ROOT_XTOL

from oracles import oracle_radial_roots, radial_condition_mp


class TestBesselValues:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(5, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    def test_first_root_of_j0(self):
        assert abs(bessel_j(0, 2.404826)) < 1e-6

    def test_prime_at_zero(self):
        assert bessel_j_prime(0, 0.0) == 0.0
        assert bessel_j_prime(1, 0.0) == 0.5
        assert bessel_j_prime(3, 0.0) == 0.0

    def test_prime_near_roots(self):
        assert abs(bessel_j_prime(0, 3.831706)) < 1e-6
        assert abs(bessel_j_prime(1, 1.841184)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(0.3, 1.0)
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_j_prime(0.5, 0.0)

    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 5, 8, 12, 0.5, 1.5, 3.5])
    def test_accuracy_against_reference(self, nu):
        # 1e-13 relative to max(1, |J|) across the whole supported range
        xs = [0.05, 0.5, 1.0, 2.5, 5.0, 7.9, 8.1, 11.0, 14.0, 20.0, 33.0, 59.0, 61.0, 90.0, 140.0, 200.0]
        for x in xs:
            ref = float(mpmath.besselj(nu, x))
            got = bessel_j(nu, x)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (nu, x, got, ref)

    def test_large_order_accuracy_ceiling(self):
        # orders above sqrt(2x) route through the recurrence, whose rounding
        # grows with the chain length; keep them under the documented ceiling
        for nu in (16, 25, 40):
            for x in (61.0, 140.0, 200.0):
                ref = float(mpmath.besselj(nu, x))
                assert abs(bessel_j(nu, x) - ref) <= 3e-12 * max(1.0, abs(ref)), (nu, x)

    @pytest.mark.parametrize("nu", [0, 1, 2, 4, 0.5, 2.5])
    def test_prime_accuracy_against_reference(self, nu):
        for x in [0.3, 2.0, 7.0, 12.5, 40.0, 120.0]:
            ref = float(mpmath.besselj(nu, x, derivative=1))
            got = bessel_j_prime(nu, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (nu, x)


class TestRadialRoots:
    def test_spec_examples(self):
        assert abs(neumann_radial_roots(1, 2, 1)[0] - 1.8411838) < 1e-6
        assert abs(neumann_radial_roots(0, 2, 1)[0] - 3.8317060) < 1e-6
        assert abs(neumann_radial_roots(2, 2, 1)[0] - 3.0542370) < 1e-6

    @pytest.mark.parametrize("l,dim", [(0, 2), (1, 2), (4, 2), (0, 3), (0, 4), (0, 5)])
    def test_roots_increase_and_satisfy_condition(self, l, dim):
        roots = neumann_radial_roots(l, dim, 8)
        assert all(b > a for a, b in zip(roots, roots[1:]))
        for r in roots:
            assert r > 0
            assert abs(radial_condition(l, dim, r)) < 1e-10

    def test_sign_change_across_final_bracket(self):
        for l in (0, 1, 3):
            for r in neumann_radial_roots(l, 2, 4):
                lo = radial_condition(l, 2, r - 2 * ROOT_XTOL)
                hi = radial_condition(l, 2, r + 2 * ROOT_XTOL)
                assert lo == 0 or hi == 0 or (lo > 0) != (hi > 0)

    def test_oracle_agreement(self):
        for l in (0, 1, 2):
            mine = neumann_radial_roots(l, 2, 3)
            theirs = oracle_radial_roots(l, 2, 3)
            for a, b in zip(mine, theirs):
                assert abs(a - b) < 1e-9

    def test_oracle_roots_bracket_a_sign_change(self):
        for l in (0, 1, 2):
            for r in oracle_radial_roots(l, 2, 3):
                lo = radial_condition_mp(l, 2, r - 1e-11)
                hi = radial_condition_mp(l, 2, r + 1e-11)
                assert lo == 0 or hi == 0 or (lo > 0) != (hi > 0), (l, r)

    def test_ball_condition_is_tan_x_for_dim3(self):
        for r in neumann_radial_roots(0, 3, 4):
            assert abs(math.tan(r) - r) < 1e-7

    def test_up_to_consistent_with_count(self):
        roots = neumann_radial_roots(1, 2, 6)
        capped = radial_roots_up_to(1, 2, roots[-1] + 1e-9)
        assert capped == pytest.approx(roots, abs=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            neumann_radial_roots(0, 2, 0)

    def test_general_l_on_ball_unsupported(self):
        with pytest.raises(UnsupportedDomain):
            neumann_radial_roots(1, 3, 1)

    def test_halved_step_rescan_recovers_missed_pair(self):
        # step 4 puts two roots of J_1' (8.54, 11.71) inside one cell, so f shows
        # no sign change there while its partner J_1 changes sign once (10.17);
        # the interlacing check fails and the cell is scanned on its halved
        # lattice.  The first cell (0, 4] is never scanned, so 1.84 is absent.
        from symbif.spectral import _lattice_scan

        reference = neumann_radial_roots(1, 2, 5)
        coarse = [r for r in _lattice_scan(1, 2, 16.0, step=4.0, xtol=1e-10) if r <= 16.0]
        missing_first = [r for r in reference if r > 4.0]
        assert len(coarse) == len(missing_first)
        for got, want in zip(coarse, missing_first):
            assert abs(got - want) < 1e-8


class TestInterlacingCheck:
    def test_partner_is_j_and_ball_form_matches_derivative(self):
        from symbif import _kernels

        for l in (0, 1, 4):
            for x in (0.7, 9.3, 70.0):
                f, g = _kernels._radial_condition(l, 2, x)
                assert f == bessel_j_prime(l, x) and g == bessel_j(l, x)
        for dim in (3, 4, 5, 7):
            nu = 0.5 * (dim - 2)
            for x in (0.7, 9.3, 70.0):
                f, g = _kernels._radial_condition(0, dim, x)
                ref = float(mpmath.besselj(nu, x, derivative=1) - nu / x * mpmath.besselj(nu, x))
                assert abs(f - ref) <= 1e-13 and g == bessel_j(nu, x), (dim, x)

    def test_hidden_pair_raises_instead_of_dropping_roots(self, monkeypatch):
        # f = J_1' is made to keep its sign on (5, 9), hiding its roots 5.33 and
        # 8.54, while the partner J_1 still changes sign at 7.02; no halving can
        # restore the alternation, so the scan must fail rather than return
        # the shorter list [1.84, 11.71, ...]
        from symbif import ConvergenceError, _kernels

        real = _kernels._radial_condition

        def hidden_pair(l, dim, x):
            f, g = real(l, dim, x)
            return (-abs(f) if 5.0 < x < 9.0 else f), g

        monkeypatch.setattr(_kernels, "_radial_condition", hidden_pair)
        with pytest.raises(ConvergenceError, match="interlace"):
            radial_roots_up_to(1, 2, 12.0)

    def test_disk_spectrum_evaluation_budget(self, kernel_calls):
        disk_spectrum(3200.0)
        assert kernel_calls[0] <= 25_000

    def test_cache_serves_the_request_that_filled_it(self, kernel_calls):
        cache = RootCache()
        first = disk_spectrum(3200.0, cache=cache)
        kernel_calls[0] = 0
        assert disk_spectrum(3200.0, cache=cache) == first
        assert kernel_calls[0] == 0

    def test_resumed_scan_matches_a_fresh_one(self):
        cache = RootCache()
        disk_spectrum(777.0, cache=cache)
        resumed = disk_spectrum(3200.0, cache=cache)
        fresh = disk_spectrum(3200.0)
        assert json.dumps([e.to_json() for e in resumed]) == json.dumps([e.to_json() for e in fresh])
        for dim in (3, 4, 7):
            cache = RootCache()
            short = radial_roots_up_to(0, dim, 40.0, cache=cache)
            longer = radial_roots_up_to(0, dim, 150.5, cache=cache)
            assert longer[: len(short)] == short
            assert longer == radial_roots_up_to(0, dim, 150.5)


class TestDiskSpectrum:
    def test_max_ten(self):
        entries = disk_spectrum(10.0)
        assert [e.angular_index for e in entries] == [0, 1, 2]
        assert entries[0].eigenvalue == 0.0
        assert entries[0].rep == RepDescriptor.trivial(1)
        assert abs(entries[1].eigenvalue - 3.38996) < 1e-4
        assert abs(entries[2].eigenvalue - 9.32836) < 1e-4

    def test_max_fifteen_adds_radial_mode(self):
        entries = disk_spectrum(15.0)
        assert abs(entries[3].eigenvalue - 14.68197) < 1e-4
        assert entries[3].rep == RepDescriptor.trivial(1)
        assert entries[3].angular_index == 0

    def test_small_bound_keeps_only_zero(self):
        entries = disk_spectrum(0.5)
        assert len(entries) == 1
        assert entries[0].eigenvalue == 0.0

    def test_prefix_stability(self):
        small = disk_spectrum(12.0)
        large = disk_spectrum(60.0)
        assert large[: len(small)] == small

    def test_strictly_increasing(self):
        entries = disk_spectrum(80.0)
        evs = [e.eigenvalue for e in entries]
        assert all(b > a for a, b in zip(evs, evs[1:]))


class TestBallNontrivial:
    def test_zero_is_trivial(self):
        assert not ball_rep_nontrivial(SpectrumEntry(0.0, RepDescriptor.trivial(1)), 3)

    def test_labelled_positive_degree(self):
        e = SpectrumEntry(10.0, RepDescriptor.zero(), angular_index=2)
        assert ball_rep_nontrivial(e, 3)

    def test_root_fed_back_is_trivial(self):
        r = neumann_radial_roots(0, 3, 2)[1]
        assert not ball_rep_nontrivial(SpectrumEntry(r * r, RepDescriptor.trivial(1)), 3)

    def test_generic_eigenvalue_is_nontrivial(self):
        assert ball_rep_nontrivial(SpectrumEntry(16.0, RepDescriptor.zero()), 3)

    def test_needs_dim_three(self):
        with pytest.raises(DomainError):
            ball_rep_nontrivial(SpectrumEntry(1.0, RepDescriptor.zero()), 2)


def _doc(entries):
    return {"domain": "custom", "entries": entries}


ZERO_ENTRY = {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}}


class TestCustomSpectrum:
    def test_well_formed(self):
        entries = load_custom_spectrum(
            _doc([ZERO_ENTRY, {"eigenvalue": 2.5, "rep": {"trivial": 0, "irr": {"1": 1}}}])
        )
        assert len(entries) == 2
        assert entries[1].rep == RepDescriptor.irr(1)

    def test_accepts_rot_alias_and_json_text(self):
        text = json.dumps(_doc([ZERO_ENTRY, {"eigenvalue": 1.0, "rep": {"trivial": 0, "rot": {"2": 3}}}]))
        entries = load_custom_spectrum(text)
        assert entries[1].rep == RepDescriptor.irr(2, 3)

    def test_missing_zero_rejected(self):
        with pytest.raises(ValidationError):
            load_custom_spectrum(_doc([{"eigenvalue": 1.0, "rep": {"trivial": 1, "irr": {}}}]))

    def test_descending_rejected(self):
        with pytest.raises(ValidationError):
            load_custom_spectrum(
                _doc(
                    [
                        ZERO_ENTRY,
                        {"eigenvalue": 5.0, "rep": {"trivial": 1, "irr": {}}},
                        {"eigenvalue": 2.0, "rep": {"trivial": 1, "irr": {}}},
                    ]
                )
            )

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValidationError):
            load_custom_spectrum(
                _doc([ZERO_ENTRY, {"eigenvalue": 1.0, "rep": {"trivial": 0, "irr": {"1": -2}}}])
            )

    def test_near_duplicates_merge(self):
        a = 7.25
        entries = load_custom_spectrum(
            _doc(
                [
                    ZERO_ENTRY,
                    {"eigenvalue": a, "rep": {"trivial": 0, "irr": {"1": 1}}},
                    {"eigenvalue": a * (1 + 1e-9), "rep": {"trivial": 0, "irr": {"2": 2}}},
                ]
            )
        )
        assert len(entries) == 2
        assert entries[1].rep == RepDescriptor(0, {1: 1, 2: 2})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            load_custom_spectrum({"domain": "custom", "entries": [ZERO_ENTRY], "extra": 1})
        with pytest.raises(SchemaError):
            load_custom_spectrum(_doc([{**ZERO_ENTRY, "bogus": 1}]))

    def test_zero_entry_must_be_constants(self):
        with pytest.raises(ValidationError):
            load_custom_spectrum(_doc([{"eigenvalue": 0.0, "rep": {"trivial": 2, "irr": {}}}]))

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            load_custom_spectrum({"entries": [ZERO_ENTRY]})
        with pytest.raises(SchemaError):
            load_custom_spectrum("not json {")


class TestRootCache:
    def test_round_trip(self, tmp_path):
        cache = RootCache()
        cache.put(2, 1, [1.5, 4.5])
        path = tmp_path / "roots.json"
        cache.save(path)
        loaded, stale = RootCache.load(path)
        assert not stale
        assert loaded.get(2, 1) == [1.5, 4.5]

    def test_stale_on_tolerance_mismatch(self, tmp_path):
        cache = RootCache(xtol=1e-10)
        cache.put(2, 0, [3.8])
        path = tmp_path / "roots.json"
        cache.save(path)
        loaded, stale = RootCache.load(path, xtol=1e-8)
        assert stale
        assert loaded.get(2, 0) == []

    def test_cache_serves_covered_requests(self):
        cache = RootCache()
        fake = [1.0, 2.0, 99.0]  # wrong on purpose: proves the cache is consulted
        cache.put(2, 1, fake)
        assert radial_roots_up_to(1, 2, 50.0, cache=cache) == [1.0, 2.0]
        assert neumann_radial_roots(1, 2, 2, cache=cache) == [1.0, 2.0]

    def test_cache_extended_when_insufficient(self):
        cache = RootCache()
        roots = neumann_radial_roots(1, 2, 4, cache=cache)
        assert len(cache.get(2, 1)) >= 4
        again = neumann_radial_roots(1, 2, 4, cache=cache)
        assert again == roots
