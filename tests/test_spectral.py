import errno
import hashlib
import json
import math
import os
import re
import sys
from datetime import timedelta
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import symbif.spectral
from symbif import (
    ConvergenceError,
    CustomDomain,
    DiskDomain,
    DomainError,
    InsufficientSpectrum,
    RootCache,
    SO2Rep,
    SchemaError,
    SpectrumEntry,
    ValidationError,
    _kernels,
    ball_rep_nontrivial,
    bessel_j,
    bessel_j_prime,
    disk_spectrum,
    radial_condition,
    radial_roots_up_to,
)
from symbif.spectral import (
    GRID_STEP, MAX_DISK_ENTRIES, MAX_ROOT_X, MERGE_REL, ROOT_XTOL, _lattice_scan, _supplied_entries, close,
    domain_from_json,
)

from conftest import supplied_ball
from oracles import _condition_and_slope, ball3_spectrum, oracle_radial_roots, radial_condition_mp, spherical_jp_zeros


@lru_cache(maxsize=None)
def jp_zero(l: int, k: int) -> float:
    """k-th positive zero of J_l' from mpmath (J_0' = -J_1 counts x = 0 out)."""
    return float(mpmath.besseljzero(l, k, derivative=1))


class TestBesselValues:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(5, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    @pytest.mark.parametrize("nu", [0, 1, 2, 0.5, 1.5, 2.5])
    def test_at_zero_is_exact_and_positive(self, nu):
        # 1 for J_0, +0.0 (never -0.0) for every other order
        value = bessel_j(nu, 0.0)
        assert value == (1.0 if nu == 0 else 0.0) and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_prime_at_zero_is_exact_and_positive(self, n):
        value = bessel_j_prime(n, 0.0)
        assert value == (0.5 if n == 1 else 0.0) and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("nu, x, band", [(5, 3.0, "_series_j"), (2.5, 3.0, "_series_j"), (5, 100.0, "_asym_j")])
    def test_reads_two_values_per_band(self, call_counts, nu, x, band):
        # J_nu and J_{nu+1}, as the l = 0 condition forms them; J_{nu-1} once came along unread
        calls = call_counts(_kernels, band)
        bessel_j(nu, x)
        assert calls[0] == 2

    @pytest.mark.parametrize(
        "call, args",
        [
            (bessel_j, (0, 5e-324)),
            (bessel_j, (0.5, 5e-324)),
            (bessel_j_prime, (1, 5e-324)),
            (radial_condition, (1, 4, 1e-310)),
            (radial_condition, (1, 3, 1e-310)),
            (radial_condition, (1, 4, 1e-200)),
            (radial_condition, (1, 3, 1e-300)),
            (radial_condition, (2, 3, 1e-160)),
        ],
    )
    def test_subnormal_arguments_agree_with_mpmath(self, call, args):
        # below the normal range 0.5 * x underflows to 0.0 and c/x overflows; the
        # values are finite, and 1.25e-311 keeps about 12 digits.  At the normal x
        # of the last three J_nu is subnormal, yet (c/x) J_nu is a third to a
        # half of the condition
        *head, x = args
        x = mpmath.mpf(x)
        if call is radial_condition:
            c = mpmath.mpf(head[1] - 2) / 2
            ref = mpmath.besselj(head[0] + c, x, derivative=1) - c / x * mpmath.besselj(head[0] + c, x)
        else:
            ref = mpmath.besselj(head[0], x, derivative=int(call is bessel_j_prime))
        got = call(*args)
        assert math.isfinite(got) and abs(got - float(ref)) <= 1e-12 * abs(float(ref)), (got, ref)

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

    @pytest.mark.parametrize("nu", [70, 150, 190, 199])
    def test_high_order_accuracy(self, nu):
        # the documented ceiling for integer orders up to 199, x <= 200
        for x in (30.0, 61.0, 140.0, 0.98 * nu, 1.02 * nu, 195.0, 200.0):
            f, g = _kernels._radial_condition(nu, 2, x)
            assert abs(g - float(mpmath.besselj(nu, x))) <= 5e-12, (nu, x)
            assert abs(f - float(mpmath.besselj(nu, x, derivative=1))) <= 5e-12, (nu, x)

    def test_asymptotic_band_converges_downward(self):
        # for l = 0 the radial condition computes no J_{nu-1}, so its asymptotic
        # band accepts J_nu and J_{nu+1} alone; this is the same band the triple
        # chose, as J_{nu-1} converges whenever those two do
        xs = [60.0 + 0.35 * k for k in range(401)]
        for two_nu in range(401):
            nu = 0.5 * two_nu
            for x in xs:
                if _kernels._asym_j(nu, x)[1] and _kernels._asym_j(nu + 1.0, x)[1]:
                    assert _kernels._asym_j(nu - 1.0, x)[1], (nu, x)

    @pytest.mark.parametrize("nu", [0, 1, 2, 4, 0.5, 2.5])
    def test_prime_accuracy_against_reference(self, nu):
        for x in [0.3, 2.0, 7.0, 12.5, 40.0, 120.0]:
            ref = float(mpmath.besselj(nu, x, derivative=1))
            got = bessel_j_prime(nu, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (nu, x)


class TestRadialRoots:
    def test_spec_examples(self):
        assert abs(radial_roots_up_to(1, 2, 4.0)[0] - 1.8411838) < 1e-6
        assert abs(radial_roots_up_to(0, 2, 4.0)[0] - 3.8317060) < 1e-6
        assert abs(radial_roots_up_to(2, 2, 4.0)[0] - 3.0542370) < 1e-6

    @pytest.mark.parametrize("l,dim", [(0, 2), (1, 2), (4, 2), (0, 3), (0, 4), (0, 5)])
    def test_roots_increase_and_satisfy_condition(self, l, dim):
        roots = radial_roots_up_to(l, dim, 30.0)[:8]
        assert len(roots) == 8 and all(b > a for a, b in zip(roots, roots[1:]))
        for r in roots:
            assert r > 0
            assert abs(radial_condition(l, dim, r)) < 1e-10

    def test_sign_change_across_final_bracket(self):
        for l in (0, 1, 3):
            roots = radial_roots_up_to(l, 2, 15.0)[:4]
            assert len(roots) == 4
            for r in roots:
                lo = radial_condition(l, 2, r - 2 * ROOT_XTOL)
                hi = radial_condition(l, 2, r + 2 * ROOT_XTOL)
                assert lo == 0 or hi == 0 or (lo > 0) != (hi > 0)

    def test_oracle_agreement(self):
        for l, dim in [(0, 2), (1, 2), (2, 2), (0, 3), (0, 4), (0, 5), (0, 7)]:
            mine = radial_roots_up_to(l, dim, 14.0)[:3]
            assert len(mine) == 3
            theirs = oracle_radial_roots(l, dim, 3)
            for a, b in zip(mine, theirs):
                assert abs(a - b) < 1e-12, (l, dim, a, b)

    def test_twentieth_root_of_degree_30(self):
        roots = radial_roots_up_to(30, 2, 104.0)
        assert len(roots) == 20 and abs(roots[-1] - jp_zero(30, 20)) <= 1e-9

    @pytest.mark.parametrize("l", [150, 177, 190])
    def test_high_order_roots_pinned(self, l):
        # the largest root below 199, near the entry-budget edge
        roots = radial_roots_up_to(l, 2, 199.0)
        assert abs(roots[-1] - jp_zero(l, len(roots))) <= 1e-12

    def test_oracle_roots_bracket_a_sign_change(self):
        for l in (0, 1, 2):
            for r in oracle_radial_roots(l, 2, 3):
                lo = radial_condition_mp(l, 2, r - 1e-11)
                hi = radial_condition_mp(l, 2, r + 1e-11)
                assert lo == 0 or hi == 0 or (lo > 0) != (hi > 0), (l, r)

    def test_ball_condition_is_tan_x_for_dim3(self):
        roots = radial_roots_up_to(0, 3, 15.0)[:4]
        assert len(roots) == 4
        for r in roots:
            assert abs(math.tan(r) - r) < 1e-7

    def test_up_to_consistent_with_count(self):
        roots = radial_roots_up_to(1, 2, 20.0)[:6]
        assert len(roots) == 6
        capped = radial_roots_up_to(1, 2, roots[-1] + 1e-9)
        assert capped == pytest.approx(roots, abs=1e-12)

    def test_count_validation(self):
        supplied = CustomDomain([SpectrumEntry(0.0, SO2Rep.trivial(1))])
        calls = [
            lambda: DiskDomain().first_entries(2.5),
            lambda: DiskDomain().first_entries(True),
            lambda: supplied.first_entries(1.0),
        ]
        for call in calls:
            with pytest.raises(ValidationError):
                call()

    def test_degree_one_on_the_three_ball_is_the_zeros_of_j1_prime(self):
        roots = radial_roots_up_to(1, 3, 16.0)
        want = spherical_jp_zeros(1, 16.0)
        assert len(want) == len(roots) == 5
        for got, r in zip(roots, want):
            assert abs(got - r) <= 1e-12 * r, (got, r)

    def test_halved_step_rescan_recovers_missed_pair(self):
        # step 4 puts two roots of J_1' (8.54, 11.71) inside one cell, so f shows
        # no sign change there while its partner J_1 changes sign once (10.17);
        # the interlacing check fails and the cell is scanned on its halved
        # lattice.  The first cell (0, 4] starts from the signs at 0+, so its
        # root 1.84 is refined like the others.
        from symbif.spectral import _lattice_scan

        reference = radial_roots_up_to(1, 2, 16.0)
        coarse = [r for r in _lattice_scan(1, 2, 16.0, step=4.0) if r <= 16.0]
        assert len(coarse) == len(reference) == 5
        for got, want in zip(coarse, reference):
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

    def test_first_cell_is_checked(self, monkeypatch):
        # with step 4 the first cell (0, 4] holds J_1' = 0 at 1.84 and J_1 = 0
        # at 3.83; scanned from the signs at 0+ it yields its root ...
        assert abs(_lattice_scan(1, 2, 16.0, 4.0)[0] - 1.8411837813406593) < 1e-8
        # ... and with that root hidden, J_1 alone changes sign there, so the
        # check fails instead of returning the list without it
        from symbif import ConvergenceError, _kernels

        real = _kernels._radial_condition

        def hidden_first(l, dim, x):
            f, g = real(l, dim, x)
            return (abs(f) if x < 5.0 else f), g

        monkeypatch.setattr(_kernels, "_radial_condition", hidden_first)
        with pytest.raises(ConvergenceError, match="interlace"):
            _lattice_scan(1, 2, 16.0, 4.0)

    def test_underflow_near_origin_is_not_a_root(self):
        # J_140 and J_140' underflow to 0.0 at the first lattice points; those
        # zeros keep the sign at 0+, so no root appears below the first one
        from symbif import _kernels

        assert _kernels._radial_condition(140, 2, math.pi / 8.0) == (0.0, 0.0)
        roots = radial_roots_up_to(140, 2, 145.0)
        assert len(roots) == 1
        assert abs(roots[0] - float(mpmath.besseljzero(140, 1, derivative=1))) < 1e-8

    def test_orders_share_one_recurrence_pass_per_lattice_point(self, kernel_calls, call_counts):
        passes = call_counts(_kernels, "_miller_row")
        disk_spectrum(3200.0)
        assert kernel_calls.total == 5_818
        assert passes[0] <= 1_600  # 5,705 with a pass per order and point

    def test_odd_ball_orders_share_one_spherical_row_per_lattice_point(self, kernel_calls, monkeypatch):
        real = _kernels._sph_row
        passes = []

        def counted(x, m0, hi=None):
            passes.append((x, hi))
            return real(x, m0, hi)

        monkeypatch.setattr(_kernels, "_sph_row", counted)
        disk_spectrum(4000.0, dim=3)
        assert kernel_calls.total == 7_067
        assert len(passes) <= 1_800  # 6,766 with a pass per order and point
        shared = [x for x, hi in passes if hi is None]  # the full rows, kept in ``shared_rows``
        assert len(shared) > 100 and len(set(shared)) == len(shared)
        assert all(x == round(x / GRID_STEP) * GRID_STEP for x in shared)

    def test_rows_live_only_while_the_spectrum_is_built(self, monkeypatch):
        real = _kernels._radial_condition
        tables = []

        def spy(l, dim, x):
            tables.append(_kernels._shared_rows.get())
            return real(l, dim, x)

        monkeypatch.setattr(_kernels, "_radial_condition", spy)
        # the disk's integer orders fill the first table, the 3-ball's half-integer orders the second
        for dim, kept in ((2, 0), (3, 1)):
            disk_spectrum(777.0, dim=dim)
            step, tables_by_parity = tables[-1]
            rows = tables_by_parity[kept]
            assert step == GRID_STEP and len(rows) > 40 and not tables_by_parity[1 - kept]
            assert all(x == round(x / GRID_STEP) * GRID_STEP and x > 8.0 for x in rows)
            assert _kernels._shared_rows.get() is None

    def test_rows_are_dropped_when_the_build_raises(self, monkeypatch):
        # the planted fault of test_hidden_pair_raises_instead_of_dropping_roots,
        # for l = 1 only, so l = 0 has filled rows up to x ~ 29 before it
        real = _kernels._radial_condition
        tables = []

        def hidden_pair(l, dim, x):
            tables.append(_kernels._shared_rows.get())
            f, g = real(l, dim, x)
            return (-abs(f) if l == 1 and 5.0 < x < 9.0 else f), g

        monkeypatch.setattr(_kernels, "_radial_condition", hidden_pair)
        with pytest.raises(ConvergenceError, match="interlace"):
            disk_spectrum(800.0)
        assert tables[-1][1][0]
        assert _kernels._shared_rows.get() is None

    def test_disk_spectrum_evaluation_budget(self, kernel_calls):
        disk_spectrum(3200.0)
        assert kernel_calls.total <= 8_000
        assert kernel_calls.refinement <= 4 * kernel_calls.brackets

    def test_cache_serves_the_request_that_filled_it(self, kernel_calls):
        cache = RootCache()
        first = disk_spectrum(3200.0, cache=cache)
        kernel_calls.reset()
        assert disk_spectrum(3200.0, cache=cache) == first
        assert kernel_calls.total == 0

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

    def test_none_cache_is_a_fresh_cache(self, kernel_calls):
        # cache=None spells "a fresh cache", as the default does, so the doublings still resume
        counts = []
        for domain in (DiskDomain(cache=None), DiskDomain()):
            kernel_calls.reset()
            assert len(domain.first_entries(400)) == 400
            counts.append(kernel_calls.total)
        assert counts == [5_936, 5_936]

    def test_growing_domain_resumes_its_scans(self, kernel_calls):
        # first_entries doubles its target from 25; each doubling resumes the
        # cached scans instead of starting them again from 0
        entries = DiskDomain().first_entries(400)
        assert kernel_calls.total <= 6_500
        assert len(entries) == 400 and entries == disk_spectrum(entries[-1].eigenvalue)


#: x in each kernel band: the series (x <= 8), the recurrences (8 < x < 60) and the
#: asymptotic expansion (x >= 60), with the band edges
BAND_XS = (0.3, 2.9, 8.0, 8.5, 23.7, 47.1, 59.9, 60.0, 121.3, 199.0)


class TestOneRadialFamily:
    """The kernel, its slope and the public root calls for balls with l >= 1."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 7])
    @pytest.mark.parametrize("l", [1, 3, 10])
    def test_condition_matches_the_oracle(self, l, dim):
        for x in BAND_XS:
            f = _kernels._radial_condition(l, dim, x)[0]
            want = float(radial_condition_mp(l, dim, x))
            assert abs(f - want) <= 1e-11 * max(1.0, abs(f)), (x, f, want)

    @pytest.mark.parametrize("x", [1e-6, 1e-108])
    def test_oracle_does_not_cancel_at_small_x(self, x):
        # l = 0 on the 3-ball: the condition is -J_{3/2}(x), which J_nu' - (c/x) J_nu forms by cancellation;
        # the oracle's value and its Newton step form it alike
        with mpmath.workdps(30):
            want = -mpmath.besselj(1.5, x)
        for got in (radial_condition_mp(0, 3, x), _condition_and_slope(0, 3, x)[0]):
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    @pytest.mark.parametrize("l,dim", [(1, 3), (3, 4), (10, 5), (1, 7)])
    def test_scan_matches_the_oracle_roots(self, l, dim):
        # the lead rule (f ahead of g for l >= 1) and the one Newton slope, from 0+ with no skip
        roots = [r for r in _lattice_scan(l, dim, 30.0, GRID_STEP) if r <= 30.0]
        assert len(roots) >= 5
        for got, want in zip(roots, oracle_radial_roots(l, dim, len(roots))):
            assert abs(got - want) <= 1e-12 * want, (got, want)

    @pytest.mark.parametrize("dim", [3, 4, 5, 7])
    @pytest.mark.parametrize("l", [1, 3, 10])
    def test_public_roots_match_the_oracle(self, l, dim):
        roots = radial_roots_up_to(l, dim, 27.0)[:4]
        assert len(roots) == 4
        for got, want in zip(roots, oracle_radial_roots(l, dim, 4)):
            assert abs(got - want) <= 1e-12 * want, (got, want)

    @pytest.mark.parametrize("l", [1, 3, 10])
    def test_three_ball_roots_are_the_zeros_of_spherical_j_prime(self, l):
        roots = radial_roots_up_to(l, 3, 60.0)
        want = spherical_jp_zeros(l, 60.0)
        assert len(roots) == len(want) >= 14
        for got, r in zip(roots, want):
            assert abs(got - r) <= 1e-12 * r, (got, r)

    def test_a_first_root_below_half_the_dimension_is_found(self):
        # on the 10-ball the first root of degree 1 lies below N/2 = 5, so the
        # l = 0 exit (no root below dim/2) must not cut the scan short
        (root,) = radial_roots_up_to(1, 10, 4.0)
        assert abs(root - oracle_radial_roots(1, 10, 1)[0]) <= 1e-12 * root
        assert abs(root - 3.3406) < 1e-4


def _spacing(zeros) -> tuple[float, float]:
    """Least gap between consecutive zeros in (0, 200], and least span of four consecutive ones."""
    z = sorted(x for x in zeros if 0.0 < x <= MAX_ROOT_X)
    return min(b - a for a, b in zip(z, z[1:])), min(d - a for a, d in zip(z, z[3:]))


def _ball_zeros(dim: int, l: int = 0, step: float = 0.01) -> tuple[list[float], list[float]]:
    """Zeros in (0, 200] of f = (l/x) J_nu - J_{nu+1} and of g = J_nu, nu = l + (dim - 2)/2.

    brentq on every sign change of a grid of the given step.
    """
    import numpy as np
    from scipy.optimize import brentq
    from scipy.special import jv

    nu = l + 0.5 * (dim - 2)
    xs = step * np.arange(1, round(MAX_ROOT_X / step) + 1)

    def f(x):
        return l / x * jv(nu, x) - jv(nu + 1, x)

    def g(x):
        return jv(nu, x)

    def zeros(fn) -> list[float]:
        ys = fn(xs)
        return [brentq(fn, a, b) for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:]) if ya * yb < 0]

    return zeros(f), zeros(g)


class TestSpacingPremise:
    """scipy's zeros as the oracle of the spacing on which a pi/8 cell holds at most one zero of g.

    ``_lattice_scan`` proves that consecutive zeros of the partner g = J_nu
    lie more than 3.07 apart, and more than pi for nu > 1/2.  The sampled
    spacing of f and g together is checked as well: consecutive zeros lie at
    least 1.2 apart, and four of them span at least 4.5, for the disk with
    l < 200, for the trivial-type test on balls with N <= 7, and for l >= 1
    on the sampled balls below, x <= 200.
    """

    def test_zeros_of_the_partner_lie_as_far_apart_as_proven(self):
        # more than pi apart for nu > 1/2, pi at nu = 1/2, and in (3.07, pi) at nu = 0, where the
        # least gap is j_{0,2} - j_{0,1} = 3.1153
        from scipy.special import jn_zeros

        for l in range(200):
            zeros = [x for x in jn_zeros(l, int((MAX_ROOT_X - l) / math.pi) + 3) if x <= MAX_ROOT_X]
            gaps = [b - a for a, b in zip(zeros, zeros[1:])]
            assert all(gap > math.pi for gap in gaps) if l else 3.07 < min(gaps) < max(gaps) < math.pi, l
        for l, dim in ((0, 3), (0, 5), (0, 9), (1, 3), (10, 3), (100, 3)):
            zeros = _ball_zeros(dim, l)[1]
            gaps = [b - a for a, b in zip(zeros, zeros[1:])]
            if l + (dim - 2) / 2 == 0.5:
                assert max(abs(gap - math.pi) for gap in gaps) < 1e-9
            else:
                assert gaps and min(gaps) > math.pi, (l, dim)

    def test_disk(self):
        from scipy.special import jn_zeros, jnp_zeros

        gaps, spans = [], []
        for l in range(200):
            n = int((MAX_ROOT_X - l) / math.pi) + 3  # more zeros than lie below 200
            zeros = [*jnp_zeros(l, n), *jn_zeros(l, n)]
            if sum(x <= MAX_ROOT_X for x in zeros) >= 4:
                gap, span = _spacing(zeros)
                gaps.append(gap)
                spans.append(span)
        # the least of both sits at l = 0: 1.427 and 4.611
        assert min(gaps) >= 1.2 and min(spans) >= 4.5

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
    def test_balls(self, dim):
        gap, span = _spacing(sum(_ball_zeros(dim), []))
        # the least gap falls with dim, to 1.2245 at N = 7; the least span is 4.5837 at N = 3
        assert gap >= 1.2 and span >= 4.5

    def test_the_claim_stops_at_dim_7(self):
        # at N = 9 the first zeros of J_{7/2} and J_{9/2} lie 1.1946 apart, so the claim cannot reach it
        assert _spacing(sum(_ball_zeros(9), []))[0] < 1.2

    @pytest.mark.parametrize("dim", [3, 4, 5, 7, 10])
    def test_positive_degrees(self, dim):
        gaps, spans = [], []
        for l in (1, 2, 3, 5, 10, 30, 100, 150):
            f, g = _ball_zeros(dim, l, step=0.05)
            # f leads and the zeros alternate, so the coarse grid hid no pair of either
            kinds = "".join(kind for _, kind in sorted([(x, "f") for x in f] + [(x, "g") for x in g]))
            assert kinds.startswith("f") and "ff" not in kinds and "gg" not in kinds, l
            gap, span = _spacing(f + g)
            gaps.append(gap)
            spans.append(span)
        # the least of both sits at N = 10, l = 1: 1.2697 and 4.6366
        assert min(gaps) >= 1.2 and min(spans) >= 4.5


def _degrees(pairs) -> list:
    """(l, dim) parameters, a disk degree under the id the disk-only tests gave it."""
    return [pytest.param(l, dim, id=str(l) if dim == 2 else f"{l}-N{dim}") for l, dim in pairs]


#: balls of the known-sign tests; on the 10-ball the first root of degree 1, 3.3406, lies just above sqrt(11) = 3.3166
KNOWN_SIGN_BALLS = ((1, 3), (1, 10), (3, 4), (10, 5), (100, 3), (1, 40))


class TestKnownSignPrefix:
    @pytest.mark.parametrize("l, dim", _degrees([*((l, 2) for l in (1, 2, 5, 20, 60, 150, 190)), *KNOWN_SIGN_BALLS]))
    def test_first_root_lies_above_the_bound(self, l, dim):
        # the first root of degree l lies above sqrt(l(l+dim)) (j'_{l,1} > sqrt(l(l+2)) on the
        # disk, DLMF 10.21(i)), which lets the scan skip ahead; so it lies above sqrt(l(l+dim-2))
        first = jp_zero(l, 1) if dim == 2 else oracle_radial_roots(l, dim, 1)[0]
        assert first > math.sqrt(l * (l + dim))

    @pytest.mark.parametrize("l, dim", _degrees([*((l, 2) for l in (1, 5, 20, 60)), *KNOWN_SIGN_BALLS]))
    def test_skip_keeps_the_brackets(self, l, dim, kernel_calls):
        # a scan resumed just above 0 walks the whole lattice; the skipping
        # scan refines the same brackets, so the roots agree bit for bit
        skipped = _lattice_scan(l, dim, 70.0, GRID_STEP)
        lattice = kernel_calls.lattice
        kernel_calls.reset()
        assert skipped == _lattice_scan(l, dim, 70.0, GRID_STEP, after=5e-324)
        # the full walk evaluates lattice points 1, 2, ...; the skipping scan
        # starts at the last one at or below sqrt(l(l+dim))
        start = math.floor(math.sqrt(l * (l + dim)) / GRID_STEP)
        assert kernel_calls.lattice - lattice == start - 1

    @pytest.mark.parametrize("part", [0, 1])
    def test_wrong_sign_at_the_start_point_raises(self, part, monkeypatch):
        real = _kernels._radial_condition
        start = math.floor(math.sqrt(5 * 7) / GRID_STEP) * GRID_STEP

        def flipped(l, dim, x):
            pair = list(real(l, dim, x))
            if x == start:
                pair[part] = -pair[part]
            return tuple(pair)

        monkeypatch.setattr(_kernels, "_radial_condition", flipped)
        with pytest.raises(ConvergenceError, match="positive"):
            radial_roots_up_to(5, 2, 20.0)


class TestNewtonRefinement:
    def test_steps_leaving_the_bracket_fall_back_to_the_midpoint(self, monkeypatch):
        # with the partner zeroed the disk slope is -f/x, so every Newton
        # step goes to 2x, beyond the bracket; bisection still converges
        real = _kernels._radial_condition
        fa, fb = real(1, 2, 1.5)[0], real(1, 2, 2.0)[0]
        calls = [0]

        def no_partner(l, dim, x):
            calls[0] += 1
            return real(l, dim, x)[0], 0.0

        monkeypatch.setattr(_kernels, "_radial_condition", no_partner)
        root = _kernels._bisect_radial(1, 2, 1.5, fa, 2.0, fb, ROOT_XTOL)
        assert abs(root - jp_zero(1, 1)) <= ROOT_XTOL
        assert calls[0] >= math.log2(0.5 / ROOT_XTOL) - 1

    def test_two_hundred_newton_steps_without_convergence_give_nan(self, monkeypatch):
        # f keeps the sign of fa and g makes the disk slope -1/(2 ROOT_XTOL), so
        # each Newton step is 2 ROOT_XTOL: never small enough, and the bracket
        # narrows by that much a step, far too slowly to meet the tolerance
        calls = [0]

        def creeping(l, dim, x):
            calls[0] += 1
            return 1.0, (1.0 / (2.0 * ROOT_XTOL) - 1.0 / x) / (1.0 - 1.0 / (x * x))

        monkeypatch.setattr(_kernels, "_radial_condition", creeping)
        assert math.isnan(_kernels._bisect_radial(1, 2, 1.0, 1.0, 2.0, -1.0, ROOT_XTOL))
        assert calls[0] == 200

    def test_nan_inside_a_bracket_raises(self, monkeypatch):
        real = _kernels._radial_condition

        def nan_off_lattice(l, dim, x):
            on_lattice = abs(x / GRID_STEP - round(x / GRID_STEP)) < 1e-9
            return real(l, dim, x) if on_lattice else (math.nan, math.nan)

        monkeypatch.setattr(_kernels, "_radial_condition", nan_off_lattice)
        with pytest.raises(ConvergenceError, match="refinement failed"):
            radial_roots_up_to(1, 2, 5.0)

    def test_nan_at_a_lattice_point_raises(self, monkeypatch):
        real = _kernels._radial_condition

        def nan_above_5(l, dim, x):
            return real(l, dim, x) if x <= 5.0 else (math.nan, math.nan)

        monkeypatch.setattr(_kernels, "_radial_condition", nan_above_5)
        with pytest.raises(ConvergenceError) as exc:
            radial_roots_up_to(0, 2, 10.0)
        # the scan stops at the first lattice point past 5, 13 * GRID_STEP
        assert 5.105088062083414 == 13 * GRID_STEP
        assert str(exc.value) == "radial condition evaluated to NaN at x=5.105088062083414 (l=0, dim=2)"

    @staticmethod
    def brackets(monkeypatch, scan, *args):
        """The (l, dim, a, fa, b, fb) brackets that ``scan(*args)`` refines, on a fresh cache."""
        real = _kernels._bisect_radial
        found = []

        def record(*call):
            found.append(call[:6])
            return real(*call)

        monkeypatch.setattr(_kernels, "_bisect_radial", record)
        scan(*args)
        monkeypatch.setattr(_kernels, "_bisect_radial", real)
        assert found
        return found

    @pytest.mark.parametrize(
        "scan,args",
        [(disk_spectrum, (400.0,)), *((radial_roots_up_to, (0, n, 60.0)) for n in (3, 4, 7))],
        ids=["disk-400", "ball-3", "ball-4", "ball-7"],
    )
    def test_every_bracket_has_finite_nonzero_ends_of_opposite_sign(self, scan, args, monkeypatch):
        # the contract _bisect_radial starts from: the scan refines only a sign change, and its
        # points have replaced an exact 0.0 by a signed ulp and refused NaN
        for _, _, a, fa, b, fb in self.brackets(monkeypatch, scan, *args):
            assert a < b and math.isfinite(fa) and math.isfinite(fb), (a, fa, b, fb)
            assert fa != 0.0 and fb != 0.0 and (fa > 0.0) != (fb > 0.0), (a, fa, b, fb)

    @pytest.mark.parametrize("l,dim", [(0, 2), (3, 2), (40, 2), (0, 3), (0, 4), (0, 7)])
    def test_newton_step_uses_the_exact_slope(self, l, dim, monkeypatch):
        # the second iterate is the Newton step from the false-position point,
        # with f' = J_l'' (disk) or -J_{nu+1}' (balls) as mpmath gives it
        nu = l if dim == 2 else 0.5 * (dim - 2)
        real = _kernels._radial_condition
        for bracket in self.brackets(monkeypatch, radial_roots_up_to, l, dim, l + 12.0)[:3]:
            xs = []

            def record(l, dim, x):
                xs.append(x)
                return real(l, dim, x)

            monkeypatch.setattr(_kernels, "_radial_condition", record)
            _kernels._bisect_radial(*bracket, ROOT_XTOL)
            monkeypatch.setattr(_kernels, "_radial_condition", real)
            x1 = xs[0]
            if dim == 2:
                slope = mpmath.besselj(nu, x1, derivative=2)
            else:
                slope = -mpmath.besselj(nu + 1, x1, derivative=1)
            newton = x1 - real(l, dim, x1)[0] / float(slope)
            assert abs(xs[1] - newton) <= 1e-9 * abs(newton - x1), (bracket, xs, newton)

    @pytest.mark.parametrize("l,dim", [(0, 2), (1, 2), (5, 2), (60, 2), (0, 3), (0, 7)])
    def test_zero_and_tiny_xtol_terminate_at_the_root(self, l, dim, monkeypatch):
        real = _kernels._bisect_radial
        for bracket in self.brackets(monkeypatch, radial_roots_up_to, l, dim, l + 15.0):
            want = real(*bracket, 1e-14)
            for xtol in (0.0, 1e-300):
                got = real(*bracket, xtol)
                assert abs(got - want) <= 4 * math.ulp(want), (bracket, xtol, got, want)


class TestDiskSpectrum:
    def test_max_ten(self):
        entries = disk_spectrum(10.0)
        assert [e.angular_index for e in entries] == [0, 1, 2]
        assert entries[0].eigenvalue == 0.0
        assert entries[0].rep == SO2Rep.trivial(1)
        assert abs(entries[1].eigenvalue - 3.38996) < 1e-4
        assert abs(entries[2].eigenvalue - 9.32836) < 1e-4

    def test_max_fifteen_adds_radial_mode(self):
        entries = disk_spectrum(15.0)
        assert abs(entries[3].eigenvalue - 14.68197) < 1e-4
        assert entries[3].rep == SO2Rep.trivial(1)
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


#: sha256 of the ``float.hex`` of every disk eigenvalue (one a line) and of the
#: saved root cache file; 777 stays in the recurrence band (x < 28), 4000 and
#: 12,000 (x ~ 110) reach the asymptotic band, whose high orders fall back to
#: the recurrence
DISK_GOLDEN = {
    777.0: (
        "675812e173cdfee39eb32ea609e34f5cea579902303a2f1b399eaa3fbdd93a17",
        "925d33d78f873cf5a9cbb1a40073a8b01b4687ffc7f22b972d856a56638a6579",
    ),
    4000.0: (
        "736f4ce644718f9483bffa2b2a887e181ecaae6168882afb92f25103b3f5e845",
        "1d84b92849ae54ddac831a546091866a810e10862d28e533de6ee8979cc42dea",
    ),
    12000.0: (
        "840f8d87cf4e8383f654497a28bda713f017f1e995b9ad338f20ca307ed004da",
        "56d1db273d8eec0b1fae4c59e3bebbf770e4b626c7ab0859756a47a0278cf2fc",
    ),
}


class TestDiskSpectrumBytes:
    @pytest.mark.parametrize("alpha", sorted(DISK_GOLDEN))
    def test_eigenvalues_and_cache_file_are_pinned(self, alpha, tmp_path):
        cache = RootCache()
        entries = disk_spectrum(alpha, cache=cache)
        cache.save(tmp_path / "roots.json")
        eigenvalues = "\n".join(e.eigenvalue.hex() for e in entries).encode()
        assert (
            hashlib.sha256(eigenvalues).hexdigest(),
            hashlib.sha256((tmp_path / "roots.json").read_bytes()).hexdigest(),
        ) == DISK_GOLDEN[alpha]

    def test_every_order_matches_a_scan_of_its_own(self):
        # each order scanned alone, outside the spectrum build, finds the same
        # roots bit for bit, the first one beyond x_max included
        alpha = 4000.0
        cache = RootCache()
        entries = disk_spectrum(alpha, cache=cache)
        x_max = math.sqrt(alpha)
        assert len(cache.records) > 60
        for (dim, l), roots in cache.records.items():
            alone = RootCache()
            assert radial_roots_up_to(l, dim, x_max, cache=alone) == [r for r in roots if r <= x_max]
            assert alone.records == {(dim, l): roots}, l
            assert [e.eigenvalue for e in entries if e.angular_index == l and e.root_index] == [
                r * r for r in roots if r * r <= alpha
            ]


class TestBallNontrivial:
    def test_zero_is_trivial(self):
        assert not ball_rep_nontrivial(SpectrumEntry(0.0, SO2Rep.trivial(1)), 3)

    def test_labelled_positive_degree(self):
        # the stated rep decides, as in the verdicts, not the angular index
        assert not ball_rep_nontrivial(SpectrumEntry(10.0, SO2Rep.zero(), angular_index=2), 3)
        assert ball_rep_nontrivial(SpectrumEntry(10.0, SO2Rep.irr(2), angular_index=2), 3)

    def test_root_fed_back_is_trivial(self):
        r = radial_roots_up_to(0, 3, 8.0)[1]
        assert not ball_rep_nontrivial(SpectrumEntry(r * r, SO2Rep.trivial(1)), 3)

    def test_generic_eigenvalue_is_nontrivial(self):
        # off every trivial-type root, an eigenspace is nontrivial when its rep has a nontrivial summand
        assert ball_rep_nontrivial(SpectrumEntry(16.0, SO2Rep.irr(1)), 3)
        assert not ball_rep_nontrivial(SpectrumEntry(16.0, SO2Rep.zero()), 3)

    def test_needs_dim_three(self):
        with pytest.raises(DomainError):
            ball_rep_nontrivial(SpectrumEntry(1.0, SO2Rep.zero()), 2)

    def test_none_cache_is_one_fresh_cache(self, kernel_calls):
        # cache=None spells "a fresh cache", as the default does: the domain keeps it, so a
        # request after the build reads the roots of every degree the build scanned
        entries = disk_spectrum(40.0, dim=3)
        [root] = radial_roots_up_to(0, 3, 5.0)
        kernel_calls.reset()
        domain = supplied_ball(entries, cache=None)
        scanned = kernel_calls.total
        assert scanned > 0 and domain.cache.get(3, 0) and domain.cache.get(3, 4)
        assert radial_roots_up_to(0, 3, math.sqrt(40.0), cache=domain.cache) == [root]
        assert disk_spectrum(40.0, dim=3, cache=domain.cache) == entries
        assert kernel_calls.total == scanned

    def test_true_spectrum_states_what_the_radial_test_finds(self):
        # on the 3-ball spectrum from scipy's zeros of j_l', the rep each entry states is
        # nontrivial exactly where the radial test finds no trivial-type root
        x_max = 12.0
        items = [(0.0, SO2Rep.trivial(1))] + sorted(
            (x * x, SO2Rep.trivial(1) if l == 0 else SO2Rep.irr(l))
            for l in range(int(x_max) + 1)
            for x in spherical_jp_zeros(l, x_max)
        )
        domain = supplied_ball([SpectrumEntry(a, rep) for a, rep in items])
        entries = domain.entries_up_to(domain.bound)
        assert len(entries) == len(items) > 20 and sum(not e.rep.has_nontrivial() for e in entries) == 4
        for e in entries:
            assert ball_rep_nontrivial(e, 3) == e.rep.has_nontrivial(), e.eigenvalue

    def test_a_declared_angular_index_does_not_decide(self):
        # the scipy spectrum with angular_index 0 on each irr entry: the verdicts read the rep, and
        # so does the radial test, which once let the declared index 0 make an irr entry trivial
        x_max = 8.5
        entries = [
            SpectrumEntry(x * x, SO2Rep.irr(l), angular_index=0)
            for l in range(1, int(x_max) + 1)
            for x in spherical_jp_zeros(l, x_max)
        ]
        assert len(entries) == 8
        for e in entries:
            assert ball_rep_nontrivial(e, 3), e.eigenvalue


def _doc(entries):
    return {"type": "custom", "entries": entries}


def _custom(doc) -> list[SpectrumEntry]:
    return domain_from_json(doc).entries


ZERO_ENTRY = {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}}


class TestCustomSpectrum:
    def test_well_formed(self):
        entries = _custom(
            _doc([ZERO_ENTRY, {"eigenvalue": 2.5, "rep": {"trivial": 0, "irr": {"1": 1}}}])
        )
        assert len(entries) == 2
        assert entries[1].rep == SO2Rep.irr(1)

    def test_accepts_rot_alias_and_json_text(self):
        text = json.dumps(_doc([ZERO_ENTRY, {"eigenvalue": 1.0, "rep": {"trivial": 0, "rot": {"2": 3}}}]))
        entries = _custom(json.loads(text))
        assert entries[1].rep == SO2Rep.irr(2, 3)

    def test_missing_zero_rejected(self):
        with pytest.raises(ValidationError):
            _custom(_doc([{"eigenvalue": 1.0, "rep": {"trivial": 1, "irr": {}}}]))

    def test_descending_rejected(self):
        with pytest.raises(ValidationError):
            _custom(
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
            _custom(
                _doc([ZERO_ENTRY, {"eigenvalue": 1.0, "rep": {"trivial": 0, "irr": {"1": -2}}}])
            )

    def test_near_duplicates_merge(self):
        a = 7.25
        entries = _custom(
            _doc(
                [
                    ZERO_ENTRY,
                    {"eigenvalue": a, "rep": {"trivial": 0, "irr": {"1": 1}}},
                    {"eigenvalue": a * (1 + 1e-9), "rep": {"trivial": 0, "irr": {"2": 2}}},
                ]
            )
        )
        assert len(entries) == 2
        assert entries[1].rep == SO2Rep(0, {1: 1, 2: 2})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            _custom({**_doc([ZERO_ENTRY]), "extra": 1})
        with pytest.raises(SchemaError):
            _custom(_doc([{**ZERO_ENTRY, "bogus": 1}]))

    def test_zero_entry_must_be_constants(self):
        with pytest.raises(ValidationError):
            _custom(_doc([{"eigenvalue": 0.0, "rep": {"trivial": 2, "irr": {}}}]))

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            _custom({"entries": [ZERO_ENTRY]})
        with pytest.raises(SchemaError):
            _custom("not json {")


A = 7.25
#: the first trivial-type eigenvalue of the 3-ball, so the ball spectra below are true up to their top
T = 20.19072855642663
#: (eigenvalue, rep) lists that the one supplied-spectrum rule merges to [0, A (irr(1) + 2 irr(2)), T]
MERGED_ALIKE = {
    "near-duplicate": [(0.0, (1, {})), (A, (0, {1: 1})), (A * (1 + 1e-9), (0, {2: 2})), (T, (1, {}))],
    "reversal-within-tolerance": [(0.0, (1, {})), (A * (1 + 1e-9), (0, {2: 2})), (A, (0, {1: 1})), (T, (1, {}))],
}


#: the first eigenvalues of the 3-ball, degree 1 at B and degree 2 at C, then T
B, C = 4.332958551429382, 11.169590014604001
#: lists that the rule merges to the true 3-ball spectrum [0, B irr(1), C irr(2), T], as the build checks it
BALL_MERGED_ALIKE = {
    "near-duplicate": [(0.0, (1, {})), (B, (0, {1: 1})), (B * (1 + 1e-9), (0, {})), (C, (0, {2: 1})), (T, (1, {}))],
    "reversal-within-tolerance": [
        (0.0, (1, {})), (B * (1 + 1e-9), (0, {})), (B, (0, {1: 1})), (C, (0, {2: 1})), (T, (1, {}))
    ],
}


def _supplied(kind: str, items) -> tuple:
    """The domain of ``kind`` stated in Python and by a document of ``items``, each as a thunk.

    Python states a 3-ball as the computed one, up to the top of ``items``.
    """
    entries = [SpectrumEntry(a, SO2Rep(*rep)) for a, rep in items]
    doc = {"type": kind, "entries": [e.to_json() for e in entries], **({"dim": 3} if kind == "ball" else {})}
    top = max(e.eigenvalue for e in entries)
    built = (lambda: CustomDomain(entries)) if kind == "custom" else (lambda: DiskDomain(top * (1 + MERGE_REL), dim=3))
    return built, lambda: domain_from_json(doc)


class TestOneSuppliedRule:
    """A spectrum built in Python is ordered, merged and checked as its document is."""

    @pytest.mark.parametrize("kind", ["custom", "ball"])
    @pytest.mark.parametrize("case", sorted(MERGED_ALIKE))
    def test_python_and_document_give_one_domain(self, kind, case):
        built, read = _supplied(kind, (MERGED_ALIKE if kind == "custom" else BALL_MERGED_ALIKE)[case])
        assert built() == read()
        middle = [(A, SO2Rep(0, {1: 1, 2: 2}))] if kind == "custom" else [(B, SO2Rep.irr(1)), (C, SO2Rep.irr(2))]
        domain = read()
        entries = domain.entries if kind == "custom" else domain.entries_up_to(domain.bound)
        assert [(e.eigenvalue, e.rep) for e in entries] == [(0.0, SO2Rep.trivial(1)), *middle, (T, SO2Rep.trivial(1))]

    @pytest.mark.parametrize("kind", ["custom", "ball"])
    def test_out_of_order_gets_one_message(self, kind):
        message = re.escape("entries must be listed in ascending eigenvalue order (2.0 after 5.0)")
        built, read = _supplied(kind, [(0.0, (1, {})), (5.0, (1, {})), (2.0, (1, {}))])
        for make in (built, read) if kind == "custom" else (read,):  # Python states no ball by its entries
            with pytest.raises(ValidationError, match=message):
                make()

    def test_a_reversal_just_past_the_tolerance_is_out_of_order(self):
        for make in _supplied("custom", [(0.0, (1, {})), (A * (1 + 2 * MERGE_REL), (1, {})), (A, (1, {}))]):
            with pytest.raises(ValidationError, match="ascending eigenvalue order"):
                make()

    @pytest.mark.parametrize("entries", ["abc", [1], [SpectrumEntry(0.0, SO2Rep.trivial(1)), {}], 5])
    def test_items_that_are_no_entries_are_a_validation_error(self, entries):
        with pytest.raises(ValidationError, match="list of SpectrumEntry records"):
            CustomDomain(entries)

    # the rule a ball document's entries meet is CustomDomain's
    @pytest.mark.parametrize("domain", [CustomDomain, _supplied_entries], ids=["CustomDomain", "ball"])
    @pytest.mark.parametrize(
        "entries",
        [
            lambda: [SpectrumEntry(0.0, "x")],
            lambda: [
                SpectrumEntry(0.0, SO2Rep.trivial(1)), SpectrumEntry(2.0, None), SpectrumEntry(5.0, SO2Rep.trivial(1))
            ],
            lambda: SpectrumEntry(0.0, SO2Rep.trivial(1)),
        ],
        ids=["rep-text", "rep-none", "lone-entry"],
    )
    def test_entries_are_checked_as_records(self, domain, entries):
        # these raised AttributeError or TypeError, or built a domain whose first analyze raised AttributeError;
        # a rep is refused where its entry is built, so no entry of any domain holds one of another type
        with pytest.raises(ValidationError, match="list of SpectrumEntry records|entry's rep must be an SO2Rep"):
            domain(entries())


class TestClose:
    @pytest.mark.parametrize("a, b", [(math.inf, 0.0), (-math.inf, 12.5), (math.inf, math.inf), (0.0, -math.inf)])
    def test_never_at_an_infinity(self, a, b):
        assert not close(a, b) and not close(b, a)

    def test_finite_band_unchanged(self):
        for x in (0.0, 1.0, 7.25, 1e300, -3e5):
            scale = max(1.0, abs(x))
            assert close(x, x + 0.9 * MERGE_REL * scale) and not close(x, x + 1.1 * MERGE_REL * scale)
        assert close(sys.float_info.max, sys.float_info.max) and not close(sys.float_info.max, -sys.float_info.max)


class TestEntryBudget:
    def test_huge_request_refused_before_any_evaluation(self, monkeypatch):
        from symbif import _kernels

        def never(l, dim, x):
            raise AssertionError("a refused request must not evaluate the kernel")

        monkeypatch.setattr(_kernels, "_radial_condition", never)
        for alpha in (1e308, math.inf, 4.0 * MAX_DISK_ENTRIES):
            with pytest.raises(InsufficientSpectrum, match="Weyl"):
                disk_spectrum(alpha)
            with pytest.raises(InsufficientSpectrum, match="Weyl"):
                DiskDomain().entries_up_to(alpha)


class TestComputedBall:
    """The N-ball spectrum from the one loop of ``disk_spectrum``, the disk being its N = 2 case."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
    def test_roots_match_the_oracle(self, dim):
        # degree l at each root of degree l, every root up to x_max and no other
        x_max = 12.0
        entries = disk_spectrum(x_max * x_max, dim=dim)
        degrees = {e.angular_index for e in entries}
        assert len(entries) > 10 and degrees == set(range(max(degrees) + 1))
        for l in degrees:
            got = [math.sqrt(e.eigenvalue) for e in entries if e.angular_index == l and e.root_index]
            want = oracle_radial_roots(l, dim, len(got) + 1)
            assert want[-1] > x_max and all(abs(a - b) <= 1e-12 * b for a, b in zip(got, want)), (l, got, want)
            assert all(e.rep == (SO2Rep.irr(l) if l else SO2Rep.trivial(1)) for e in entries if e.angular_index == l)
        assert oracle_radial_roots(max(degrees) + 1, dim, 1)[0] > x_max

    def test_three_ball_is_the_zeros_of_spherical_j_prime(self):
        x_max = 22.0
        want = ball3_spectrum(x_max)
        got = disk_spectrum(x_max * x_max, dim=3)
        assert len(got) == len(want) == 68
        for e, (alpha, l) in zip(got, want):
            assert abs(e.eigenvalue - alpha) <= 1e-12 * alpha and e.rep == (SO2Rep.irr(l) if l else SO2Rep.trivial(1))

    def test_no_ball_has_more_entries_than_the_disk(self):
        # the disk's Weyl estimate is the entry budget of every N
        disk = len(disk_spectrum(4000.0))
        counts = [len(disk_spectrum(4000.0, dim=n)) for n in range(3, 13)]
        assert disk == 525 and counts[0] == 517 and max(counts) <= disk, counts

    def test_a_request_past_the_budget_is_refused_before_any_evaluation(self, kernel_calls):
        huge = [SpectrumEntry(0.0, SO2Rep.trivial(1)), SpectrumEntry(1e12, SO2Rep.irr(1))]
        kernel_calls.reset()
        for request in (
            lambda: disk_spectrum(4.0 * MAX_DISK_ENTRIES, dim=5),
            lambda: DiskDomain(dim=3).entries_up_to(4.0 * MAX_DISK_ENTRIES),
            lambda: supplied_ball(huge),
        ):
            with pytest.raises(InsufficientSpectrum, match=r"the \d+-ball spectrum up to .* \(Weyl estimate\)"):
                request()
        assert kernel_calls.total == 0

    def test_dim_past_the_orders_is_refused_at_build(self, kernel_calls):
        # dim 403 has the l = 0 order 200.5 > MAX_ROOT_X: refused with or without entries, evaluating nothing
        zero = [SpectrumEntry(0.0, SO2Rep.trivial(1))]
        kernel_calls.reset()
        for build in (
            lambda: DiskDomain(dim=403),
            lambda: supplied_ball(zero, 403),
            lambda: domain_from_json({"type": "ball", "dim": 403}),
            lambda: disk_spectrum(1.0, dim=403),
        ):
            with pytest.raises(DomainError, match="order"):
                build()
        assert DiskDomain(dim=402).dim == 402 and supplied_ball(zero, 402).dim == 402
        assert kernel_calls.total == 0

    def test_degrees_past_the_orders_are_refused_at_once_or_never_scanned(self, kernel_calls):
        # on the 300-ball, degree 52 (order 201) is the least past MAX_ROOT_X and
        # 52 * 352 < 30,000, so its roots may lie below sqrt(30,000): refused at once
        kernel_calls.reset()
        for request in (
            lambda: disk_spectrum(30000.0, dim=300),
            lambda: DiskDomain(dim=300).entries_up_to(30000.0),
        ):
            with pytest.raises(InsufficientSpectrum, match="degree 52, of order above 200.0"):
                request()
        assert kernel_calls.total == 0
        # on the 200-ball that degree is 102, whose roots lie above sqrt(102 * 302):
        # refused just past 102 * 302, and not scanned up to it
        with pytest.raises(InsufficientSpectrum, match="degree 102, of order above 200.0"):
            disk_spectrum(math.nextafter(102.0 * 302.0, math.inf), dim=200)
        assert kernel_calls.total == 0
        entries = disk_spectrum(102.0 * 302.0, dim=200)
        assert max(e.angular_index for e in entries) == 101 and entries[-1].eigenvalue <= 102.0 * 302.0

    def test_documents_and_the_disk(self):
        # a ball without entries is computed, as the disk is, and the disk is the 2-ball
        ball = domain_from_json({"type": "ball", "dim": 5, "max_eigenvalue": 30.0})
        assert ball == DiskDomain(bound=30.0, dim=5)
        assert ball.to_json() == {"type": "ball", "dim": 5, "max_eigenvalue": 30.0}
        assert domain_from_json({"type": "ball", "dim": 2}) == DiskDomain()
        assert DiskDomain().to_json() == {"type": "disk"}
        assert ball.entries_up_to(30.0) == disk_spectrum(30.0, dim=5) and DiskDomain().irr_dim_table is None
        assert ball.irr_dim_table == {1: 5, 2: 14, 3: 30}
        with pytest.raises(SchemaError, match="unknown keys in disk domain"):
            domain_from_json({"type": "disk", "dim": 3})

    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_a_supplied_ball_is_the_computed_ball(self, dim):
        # a true spectrum up to x = 9 from the mpmath oracle's roots: its document checks, and builds the
        # computed ball up to its top, which lists the computed entries and writes the bound
        x_max = 9.0
        items = [(0.0, SO2Rep.trivial(1))]
        for l in range(int(x_max) + 1):
            roots = oracle_radial_roots(l, dim, 4)
            assert roots[-1] > x_max
            items += [(x * x, SO2Rep.irr(l) if l else SO2Rep.trivial(1)) for x in roots if x <= x_max]
        items.sort(key=lambda item: item[0])
        top = items[-1][0]
        docs = [SpectrumEntry(*item).to_json() for item in items]
        domain = domain_from_json({"type": "ball", "dim": dim, "entries": docs})
        assert domain == DiskDomain(bound=top * (1 + MERGE_REL), dim=dim) and len(items) >= 8
        assert domain.entries_up_to(domain.bound) == disk_spectrum(top * (1 + MERGE_REL), dim=dim)
        assert [e.rep for e in domain.entries_up_to(domain.bound)] == [rep for _, rep in items]
        assert domain.to_json() == {"type": "ball", "dim": dim, "max_eigenvalue": top * (1 + MERGE_REL)}

    def test_a_request_in_the_bound_slack_reads_to_the_bound(self, call_counts):
        # a bounded domain never extends its spectrum past its bound: a request the slack admits
        # lists no eigenvalue above the bound and derives nothing again, so a supplied ball lists
        # only checked entries to any window analyze may ask for
        alpha = disk_spectrum(30.0, dim=3)[-1].eigenvalue
        domain = DiskDomain(bound=alpha * (1 - 10 * MERGE_REL), dim=3)
        below = domain.entries_up_to(domain.bound)
        builds = call_counts(symbif.spectral, "disk_spectrum")
        assert domain.entries_up_to(alpha) == below and below[-1].eigenvalue < domain.bound
        assert builds[0] == 0


class TestEntriesUpToTakesANumber:
    """``alpha_max`` is a number other than NaN: a NaN or a string is refused, not read as 0 or parsed."""

    DOMAINS = {
        "disk": DiskDomain,
        "bounded-disk": lambda: DiskDomain(bound=50.0),
        "custom": lambda: CustomDomain([SpectrumEntry(0.0, SO2Rep.trivial(1)), SpectrumEntry(2.0, SO2Rep.irr(1))]),
    }

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize(
        "alpha_max, message",
        [
            (math.nan, "alpha_max nan must be a float value other than NaN"),
            ("30", "alpha_max '30' must be a real number"),
        ],
        ids=["nan", "string"],
    )
    def test_refused(self, domain, alpha_max, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            self.DOMAINS[domain]().entries_up_to(alpha_max)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_infinity_is_insufficient(self, domain):
        with pytest.raises(InsufficientSpectrum):
            self.DOMAINS[domain]().entries_up_to(math.inf)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_negative_reads_as_zero(self, domain):
        assert [e.eigenvalue for e in self.DOMAINS[domain]().entries_up_to(-5)] == [0.0]


class TestLivePaths:
    """Paths of the root scan and the disk domain that only unusual requests reach."""

    def test_underflow_keeps_the_sign_before_it(self, monkeypatch):
        # -J_{150.5} and J_{149.5} underflow to 0.0 near the origin; the scan
        # carries the previous sign there and still finds the first root
        real, underflows = _kernels._radial_condition, []

        def watched(l, dim, x):
            f, g = real(l, dim, x)
            underflows.append(f == 0.0 or g == 0.0)
            return f, g

        monkeypatch.setattr(_kernels, "_radial_condition", watched)
        first = radial_roots_up_to(0, 301, 200.0)[0]
        assert any(underflows)
        assert abs(first - float(mpmath.besseljzero(150.5, 1))) <= 1e-9

    def test_bounded_disk_refuses_more_entries_than_its_bound_holds(self):
        domain = DiskDomain(bound=10.0)
        assert len(domain.first_entries(3)) == 3  # 0, j'_{1,1}^2 and j'_{2,1}^2
        with pytest.raises(InsufficientSpectrum, match="only 3 distinct eigenvalues below the bound 10.0, need 4"):
            domain.first_entries(4)


#: x refused by the evaluators: the next float above MAX_ROOT_X, and far above it
BEYOND_X = {"x-above-200": math.nextafter(MAX_ROOT_X, math.inf), "x-1e17": 1e17, "x-1e300": 1e300}


class TestRootRange:
    def test_scan_beyond_the_range_refused_before_any_evaluation(self, monkeypatch):
        def never(l, dim, x):
            raise AssertionError("a refused request must not evaluate the kernel")

        monkeypatch.setattr(_kernels, "_radial_condition", never)
        for dim in (2, 3, 7):
            with pytest.raises(InsufficientSpectrum, match="supported range"):
                radial_roots_up_to(0, dim, MAX_ROOT_X * (1.0 + 1e-15))
            with pytest.raises(DomainError):
                radial_roots_up_to(0, dim, math.nan)
        assert ball_rep_nontrivial(SpectrumEntry(1e12, SO2Rep.irr(1)), 3)  # reads the rep, scans nothing

    def test_disk_budget_stays_inside_the_range(self):
        # the largest alpha with alpha/4 + sqrt(alpha)/2 <= MAX_DISK_ENTRIES
        x_edge = -1.0 + math.sqrt(1.0 + 4.0 * MAX_DISK_ENTRIES)
        assert x_edge < 199.01 < MAX_ROOT_X
        assert len(radial_roots_up_to(0, 2, x_edge)) == 63

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: radial_condition(10**400, 2, 3.0), (DomainError, "<= 200")),
            (lambda: radial_roots_up_to(10**400, 2, 3.0), []),
            (lambda: bessel_j(2**60, 30.0), (DomainError, "<= 200")),
            (lambda: radial_condition(2**60, 2, 30.0), (DomainError, "<= 200")),
            (lambda: radial_roots_up_to(2**60, 2, 150.0), []),
            (lambda: radial_roots_up_to(10**6, 2, 150.0), []),
            # degree 1 on balls whose order nu = 1 + (dim - 2)/2 lies above MAX_ROOT_X: a root call
            # answers at once when every root lies beyond the request (first root > min(dim/2,
            # sqrt(dim + 1))), and refuses the order otherwise
            (lambda: radial_condition(1, 1000, 3.0), (DomainError, "<= 200")),
            (lambda: radial_roots_up_to(1, 1000, 3.0), []),
            (lambda: radial_roots_up_to(1, 1000, 150.0), (DomainError, "<= 200")),
            (lambda: radial_condition(1, 2**60, 3.0), (DomainError, "<= 200")),
            (lambda: radial_roots_up_to(1, 2**60, 150.0), []),
            (lambda: radial_condition(1, 10**400, 3.0), (DomainError, "<= 200")),
            (lambda: radial_roots_up_to(1, 10**400, 150.0), []),
            # x above MAX_ROOT_X: far above it the phase x - (nu/2 + 1/4) pi rounds to x, so J_3(1e300)
            # once came out with the wrong sign and J_3'(1e17) as 0.0
            *[(lambda x=x: bessel_j(3, x), (DomainError, "<= 200")) for x in BEYOND_X.values()],
            *[(lambda x=x: bessel_j_prime(3, x), (DomainError, "<= 200")) for x in BEYOND_X.values()],
            *[(lambda x=x: radial_condition(3, 2, x), (DomainError, "<= 200")) for x in BEYOND_X.values()],
        ],
        ids=[
            "condition-l-10e400",
            "roots-up-to-l-10e400",
            "bessel-order-2e60",
            "condition-l-2e60",
            "roots-up-to-l-2e60",
            "roots-up-to-l-10e6",
            "condition-l-1-dim-1000",
            "roots-up-to-l-1-dim-1000-below",
            "roots-up-to-l-1-dim-1000",
            "condition-l-1-dim-2e60",
            "roots-up-to-l-1-dim-2e60",
            "condition-l-1-dim-10e400",
            "roots-up-to-l-1-dim-10e400",
            *[f"bessel-{name}" for name in BEYOND_X],
            *[f"bessel-prime-{name}" for name in BEYOND_X],
            *[f"condition-{name}" for name in BEYOND_X],
        ],
    )
    def test_extreme_order_or_count_answers_at_once(self, call, expected, kernel_calls, deadline):
        # a recurrence started above the order would run for ages: every root
        # of J_l' lies above l, and no evaluator accepts an order above MAX_ROOT_X
        with deadline(10, "the call did not finish within 10 s"):
            if isinstance(expected, list):
                assert call() == expected
            else:
                with pytest.raises(expected[0], match=expected[1]):
                    call()
        assert kernel_calls.total == 0

    def test_orders_up_to_the_cut_answer(self):
        assert bessel_j(MAX_ROOT_X, 150.0) == _kernels._radial_condition(200, 2, 150.0)[1]
        assert radial_condition(int(MAX_ROOT_X), 2, 150.0) == _kernels._radial_condition(200, 2, 150.0)[0]
        assert radial_condition(0, 402, 150.0) == _kernels._radial_condition(0, 402, 150.0)[0]
        assert radial_condition(1, 400, 150.0) == _kernels._radial_condition(1, 400, 150.0)[0]
        # the largest x answered: J_3, J_3' and the disk's condition at x = MAX_ROOT_X
        assert bessel_j(3, MAX_ROOT_X) == _kernels._radial_condition(0, 8, MAX_ROOT_X)[1]
        top = _kernels._radial_condition(3, 2, MAX_ROOT_X)[0]
        assert bessel_j_prime(3, MAX_ROOT_X) == radial_condition(3, 2, MAX_ROOT_X) == top
        assert abs(bessel_j(3, MAX_ROOT_X) - float(mpmath.besselj(3, MAX_ROOT_X))) <= 5e-12
        assert abs(bessel_j_prime(3, MAX_ROOT_X) - float(mpmath.besselj(3, MAX_ROOT_X, derivative=1))) <= 5e-12
        assert radial_roots_up_to(1, 400, 25.0) == [r for r in _lattice_scan(1, 400, 25.0, GRID_STEP) if r <= 25.0]
        for call in (
            lambda: bessel_j(MAX_ROOT_X + 0.5, 150.0),
            lambda: bessel_j_prime(MAX_ROOT_X + 1, 150.0),
            lambda: radial_condition(0, 403, 150.0),
            lambda: radial_condition(1, 401, 150.0),
            lambda: radial_roots_up_to(1, 401, 150.0),
        ):
            with pytest.raises(DomainError, match="200"):
                call()


#: a cache file written by the bisection refiner (before Newton refinement)
#: for disk_spectrum(30.0) and radial_roots_up_to(0, 3, 10.0)
BISECTION_CACHE = {
    "records": [
        [2, 0, 1, 3.8317059702309093], [2, 0, 2, 7.0155866698132705],
        [2, 1, 1, 1.8411837813805472], [2, 1, 2, 5.331442773545712], [2, 1, 3, 8.536316366309197],
        [2, 2, 1, 3.054236928244622], [2, 2, 2, 6.706133194142463],
        [2, 3, 1, 4.2011889412054355], [2, 3, 2, 8.01523659834244],
        [2, 4, 1, 5.317553126094715], [2, 4, 2, 9.282396285223946],
        [2, 5, 1, 6.415616375693729],
        [3, 0, 1, 4.4934094578657575], [3, 0, 2, 7.72525183698173], [3, 0, 3, 10.904121659406659],
    ],
    "schema_version": 1,
    "tolerances": {"step": 0.39269908169872414, "xtol": 1e-10},
}


def _valid_cache_doc() -> dict:
    cache = RootCache()
    cache.put(2, 0, [3.8, 7.0])
    cache.put(2, 1, [1.5, 4.5, 7.5])
    cache.put(3, 0, [4.4])
    return cache.to_json()


#: values a damaged cache may hold where a number, a record or a table belongs
_HOSTILE = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(10**400),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(0.5, 9.0)), max_size=5),
    st.dictionaries(st.sampled_from(["xtol", "step", "records"]), st.floats(), max_size=2),
)


#: values that look like a dim, an l, an index or a root, and are not one
_NEAR_MISSES = st.sampled_from(
    [2.5, 2.0, 1.0, 0.0, -3.0, 1e300, float("inf"), float("nan"), "2", True, False, 0, 1, -1, 10**400, None, [2]]
)


#: ways to write a number that a reader taking anything int() accepts would still read
_GUISES = [float, str, lambda v: v + 0.5, lambda v: v == 1, lambda v: [v]]


@st.composite
def _mutated_cache_docs(draw):
    """A valid cache document with one to three record values disguised or replaced, then up
    to two values set, deleted or added anywhere; one in ten is a bare value instead."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_HOSTILE)  # no document at all
    doc = _valid_cache_doc()
    for _ in range(draw(st.integers(1, 3))):
        record, i = draw(st.sampled_from(doc["records"])), draw(st.integers(0, 3))
        old = record[i]
        # the same number in another guise: any number but an integer past the float range, whose float(...)
        # overflows (an earlier step may have put 10**400 there)
        if (type(old) is float or type(old) is int and abs(old) <= 1e308) and draw(st.booleans()):
            record[i] = draw(st.sampled_from(_GUISES))(old)
        else:
            record[i] = draw(st.one_of(_NEAR_MISSES, _HOSTILE))
    for _ in range(draw(st.integers(0, 2))):
        nodes = [doc] + [v for v in doc.values() if isinstance(v, (dict, list))]
        if isinstance(doc.get("records"), list):
            nodes += [r for r in doc["records"] if isinstance(r, list)]
        node = draw(st.sampled_from(nodes))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["set", "delete", "add"])) if keys else "add"
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["records", "tolerances", "xtol", "step", "other"]))] = draw(_HOSTILE)
        elif action == "add":
            node.insert(draw(st.integers(0, len(node))), draw(_HOSTILE))
        elif action == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(_HOSTILE)
    return doc


@st.composite
def _damaged_cache_bytes(draw):
    """The bytes of a valid cache file with one to four bytes cut, changed or inserted."""
    raw = bytearray((json.dumps(_valid_cache_doc(), sort_keys=True) + "\n").encode())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(raw) - 1))
        action = draw(st.sampled_from(["cut", "set", "insert"]))
        if action == "cut":
            del raw[i]
        elif action == "set":
            raw[i] = draw(st.integers(0, 255))
        else:
            raw.insert(i, draw(st.sampled_from(b'0123456789.-,[]{}"eE \xff')))
    return bytes(raw)


def _check_load(path, deadline) -> None:
    """RootCache.load answers (cache, stale), and a cache it keeps holds exactly the records of the file."""
    with deadline(10, "RootCache.load did not answer within 10 s"):
        result = RootCache.load(path)
    assert isinstance(result, tuple) and len(result) == 2
    cache, stale = result
    assert isinstance(cache, RootCache) and stale in (True, False)
    if stale:
        assert cache.records == {}
        return
    for (dim, l), roots in cache.records.items():
        assert type(dim) is int and dim >= 2 and type(l) is int and l >= 0
        assert roots and all(type(x) is float and math.isfinite(x) for x in roots)
        assert all(a < b for a, b in zip([0.0] + roots, roots))  # positive and strictly increasing
    # every record kept is a record of the file, with the same types (a root may be an integer there)
    records = json.loads(path.read_bytes())["records"]
    kept = [[dim, l, i, x] for (dim, l), roots in cache.records.items() for i, x in enumerate(roots, start=1)]
    normal = [[dim, l, i, float(x) if type(x) is int else x] for dim, l, i, x in records]
    assert json.dumps(sorted(kept)) == json.dumps(sorted(normal))


class TestRootCache:
    def test_cache_from_the_bisection_refiner_is_served(self, tmp_path, kernel_calls):
        path = tmp_path / "roots.json"
        path.write_text(json.dumps(BISECTION_CACHE, sort_keys=True) + "\n")
        loaded, stale = RootCache.load(path)
        assert not stale
        fresh = disk_spectrum(30.0)
        kernel_calls.reset()
        served = disk_spectrum(30.0, cache=loaded)
        assert radial_roots_up_to(0, 3, 10.0, cache=loaded) == [4.4934094578657575, 7.72525183698173]
        assert kernel_calls.total == 0
        assert [(e.angular_index, e.root_index) for e in served] == [
            (e.angular_index, e.root_index) for e in fresh
        ]
        for old, new in zip(served, fresh):
            assert abs(math.sqrt(old.eigenvalue) - math.sqrt(new.eigenvalue)) <= 1e-10
        loaded.save(path)
        assert json.loads(path.read_text()) == BISECTION_CACHE

    @staticmethod
    def saved(tmp_path):
        cache = RootCache()
        cache.put(2, 1, [1.5, 4.5, 7.5])
        cache.put(2, 0, [3.8])
        path = tmp_path / "roots.json"
        cache.save(path)
        return path

    def test_save_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path = self.saved(tmp_path)
        cache = RootCache()
        cache.put(2, 3, [4.2])
        cache.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["roots.json"]
        assert RootCache.load(path)[0].records == {(2, 3): [4.2]}

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = self.saved(tmp_path)
        before = path.read_bytes()

        def broken(self):
            raise RuntimeError("serialization failed")

        monkeypatch.setattr(RootCache, "to_json", broken)
        with pytest.raises(RuntimeError):
            RootCache().save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["roots.json"]

    def test_truncated_file_is_stale(self, tmp_path):
        path = self.saved(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        loaded, stale = RootCache.load(path)
        assert stale and loaded.records == {}

    @pytest.mark.parametrize(
        "change",
        [
            lambda recs: recs[1].__setitem__(3, float("nan")),  # NaN root
            lambda recs: recs[1].__setitem__(3, float("inf")),  # infinite root
            lambda recs: recs[2].__setitem__(2, 4),  # index gap 1, 2, 4
            lambda recs: recs[2].__setitem__(3, 1.5),  # repeated root
            lambda recs: recs.reverse(),  # descending order
        ],
        ids=["nan", "inf", "index-gap", "not-increasing", "reversed"],
    )
    def test_malformed_root_list_is_stale(self, tmp_path, change):
        path = self.saved(tmp_path)
        doc = json.loads(path.read_text())
        assert [r[:3] for r in doc["records"]] == [[2, 0, 1], [2, 1, 1], [2, 1, 2], [2, 1, 3]]
        change(doc["records"])
        path.write_text(json.dumps(doc))
        loaded, stale = RootCache.load(path)
        assert stale and loaded.records == {}

    @pytest.mark.parametrize(
        "record",
        [
            [2.5, 1, 1, 3.0],  # fractional dim, which int() truncates to 2
            ["2", 1, 1, 3.0],  # dim as a string, which int() reads
            [True, True, 1, 3.0],  # bools, which int() reads as 1
            [1, 0, 1, 3.0],  # dim below 2
            [2, 1.5, 1, 3.0],  # fractional l
            [2, -1, 1, 3.0],  # negative l
            [2, 1, 1.0, 3.0],  # index as a float
            [2, 1, True, 3.0],  # index as a bool
            [2, 1, 1, 0.0],  # zero root
            [2, 1, 1, -3.0],  # negative root
        ],
        ids=["dim-2.5", "dim-str", "bools", "dim-1", "l-1.5", "l-neg", "idx-float", "idx-bool", "root-0", "root-neg"],
    )
    def test_malformed_record_is_stale(self, tmp_path, record):
        # each of these once loaded as a root list, e.g. [2.5, 1, 1, 3.0] as (2, 1): [3.0]
        path = tmp_path / "roots.json"
        path.write_text(json.dumps({**RootCache().to_json(), "records": [record]}))
        loaded, stale = RootCache.load(path)
        assert stale and loaded.records == {}

    def test_record_of_an_order_above_the_range_is_stale(self, tmp_path):
        # nu = 1 + (1000 - 2)/2 lies above MAX_ROOT_X: once loaded as current and served as the first root
        path = tmp_path / "roots.json"
        path.write_text(json.dumps({**RootCache().to_json(), "records": [[1000, 1, 1, 5.0]]}))
        loaded, stale = RootCache.load(path)
        assert stale and loaded.records == {}
        with pytest.raises(DomainError, match="<= 200"):
            radial_roots_up_to(1, 1000, 150.0, cache=loaded)
        # a cache built in Python refuses such a record when it is built
        for dim in (1000, 2**60):
            with pytest.raises(ValidationError, match="lies above 200"):
                RootCache({(dim, 1): [5.0]})
        assert radial_roots_up_to(1, 2**60, 150.0, cache=RootCache()) == []

    @pytest.mark.parametrize(
        "records, match",
        [
            ({(2, 0): [9.0, 1.0]}, "strictly increasing"),  # once served as [1.0, 3.83...] and as [9.0, 1.0]
            ({(2, 0): [3.8, 3.8]}, "strictly increasing"),
            ({(2, 0): [-1.0]}, "positive"),
            ({(2, 0): [float("nan")]}, "finite"),  # once leaked ValueError from the scan
            ({(2, 0): [float("inf")]}, "finite"),
            ({(2, 0): ["3.8"]}, "real number"),
            ({(2, 0): 3.8}, r"record is \(dim, l\)"),
            ({(2.0, 0): [3.8]}, "cached dim"),
            ({(2, True): [3.8]}, "cached l"),
            ({(1, 0): [3.8]}, "cached dim"),
            ({2: [3.8]}, r"record is \(dim, l\)"),
            (object(), "got object"),  # once leaked AttributeError at the first get
            ([((2, 0), [3.8])], "got list"),
        ],
        ids=["descending", "repeated", "negative", "nan", "inf", "str", "bare", "dim-float", "l-bool", "dim-1", "key",
             "object", "pairs"],
    )
    def test_records_built_in_python_are_checked(self, records, match):
        with pytest.raises(ValidationError, match=match):
            RootCache(records)
        for key, roots in records.items() if isinstance(records, dict) else ():
            if isinstance(key, tuple):  # put() keeps the same rule
                with pytest.raises(ValidationError, match=match):
                    RootCache().put(*key, roots)

    def test_no_cache_serves_roots_out_of_order(self):
        # the repro of a cache built with [9.0, 1.0]: the call is refused where the cache is built
        with pytest.raises(ValidationError):
            radial_roots_up_to(0, 2, 5.0, cache=RootCache({(2, 0): [9.0, 1.0]}))

    def test_no_record_changes_outside_the_cache(self):
        # records hands out a copy: an unchecked list written into it never reaches a root call
        cache = RootCache()
        cache.records[(2, 0)] = [9.0, 1.0, 20.0]
        assert cache.records == {} and radial_roots_up_to(0, 2, 5.0, cache=cache) == [3.831705970207512]

    def test_no_root_list_handed_out_is_the_stored_one(self):
        # get hands out a copy: a root inserted into it is not served
        cache = RootCache({(2, 0): [3.0, 7.0]})
        cache.get(2, 0).insert(0, 8.0)
        assert radial_roots_up_to(0, 2, 7.0, cache=cache) == [3.0, 7.0] and cache.get(2, 0) == [3.0, 7.0]

    def test_records_keep_float_roots(self):
        cache = RootCache({(2, 0): (4, 7.5)})
        assert cache.records == {(2, 0): [4.0, 7.5]} and all(type(x) is float for x in cache.get(2, 0))
        cache.put(2, 1, [2, 5])
        assert cache.get(2, 1) == [2.0, 5.0] and all(type(x) is float for x in cache.get(2, 1))

    def test_a_key_in_another_number_type_is_stale(self, tmp_path):
        # 2.0 == 2 and True == 1: neither may join the record of the integer key
        for records in ([[2, 1, 1, 1.5], [2.0, 1, 2, 4.5]], [[2, 1, 1, 1.5], [2, True, 2, 4.5]]):
            path = tmp_path / "roots.json"
            path.write_text(json.dumps({**RootCache().to_json(), "records": records}))
            loaded, stale = RootCache.load(path)
            assert stale and loaded.records == {}

    @pytest.mark.parametrize(
        "call",
        [
            lambda cache: disk_spectrum(20.0, cache=cache),
            lambda cache: DiskDomain(cache=cache).entries_up_to(10),
            lambda cache: supplied_ball([SpectrumEntry(0.0, SO2Rep.trivial(1))], cache=cache),
            lambda cache: radial_roots_up_to(0, 2, 5.0, cache=cache),
        ],
        ids=["disk_spectrum", "DiskDomain", "ball", "radial_roots_up_to"],
    )
    @pytest.mark.parametrize("cache", ["x", 5, {}], ids=["str", "int", "dict"])
    def test_a_cache_argument_is_none_or_a_root_cache(self, call, cache):
        # each once leaked AttributeError at the first use of the cache
        with pytest.raises(ValidationError, match="cache must be a RootCache or None"):
            call(cache)

    @pytest.fixture(scope="class")
    def fuzz_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cache-fuzz") / "roots.json"

    @settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True)
    @given(doc=_mutated_cache_docs())
    def test_mutated_document_loads_or_is_stale(self, fuzz_path, deadline, doc):
        fuzz_path.write_text(json.dumps(doc))
        _check_load(fuzz_path, deadline)

    @settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True)
    @given(raw=st.one_of(_damaged_cache_bytes(), st.binary(max_size=64)))
    def test_damaged_bytes_load_or_are_stale(self, fuzz_path, deadline, raw):
        fuzz_path.write_bytes(raw)
        _check_load(fuzz_path, deadline)

    @pytest.mark.parametrize("version", [None, False, True, 1.0, 99], ids=["missing", "false", "true", "1.0", "99"])
    def test_other_schema_version_is_stale(self, tmp_path, version):
        path = self.saved(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        if version is None:
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        loaded, stale = RootCache.load(path)
        assert stale and loaded.records == {}
        # regenerated: the next save writes the current version, byte for byte a clean file
        loaded.put(2, 1, [1.5, 4.5, 7.5])
        loaded.put(2, 0, [3.8])
        loaded.save(path)
        clean = tmp_path / "clean"
        clean.mkdir()
        assert path.read_bytes() == self.saved(clean).read_bytes()

    def test_a_directory_is_not_a_cache_file(self, tmp_path):
        with pytest.raises(ValidationError, match=f"^{re.escape(f'cannot read root cache {tmp_path}: Is a directory')}$"):
            RootCache.load(tmp_path)

    def test_a_path_in_a_missing_directory_is_refused(self, tmp_path, kernel_calls):
        path = tmp_path / "missing" / "roots.json"
        with pytest.raises(ValidationError, match=f"{re.escape(f'the directory {path.parent} does not exist')}$"):
            RootCache.load(path)
        assert kernel_calls.total == 0 and list(tmp_path.iterdir()) == []

    def test_a_directory_the_user_may_not_write_is_a_validation_error(self, tmp_path, monkeypatch):
        path = self.saved(tmp_path)
        before = path.read_bytes()

        def refused(*args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        with monkeypatch.context() as patched, pytest.raises(
            ValidationError, match="^cannot write root cache .*: Permission denied$"
        ):
            patched.setattr(os, "open", refused)  # the temporary file's creation
            RootCache().save(path)
        assert path.read_bytes() == before and [p.name for p in tmp_path.iterdir()] == ["roots.json"]

    def test_a_new_file_gets_the_bits_of_a_plain_write(self, tmp_path):
        # 0o666 less the umask, as open() gives; a replaced file keeps its own bits under any umask
        before = os.umask(0o022)
        try:
            for umask, bits in ((0o022, 0o644), (0o077, 0o600)):
                os.umask(umask)
                path = tmp_path / f"new-{umask:o}.json"
                RootCache().save(path)
                assert path.stat().st_mode & 0o7777 == bits, oct(umask)
            replaced = tmp_path / "replaced.json"
            replaced.write_text("{}")
            replaced.chmod(0o640)
            RootCache().save(replaced)
            assert replaced.stat().st_mode & 0o7777 == 0o640 and json.loads(replaced.read_text())["records"] == []
        finally:
            os.umask(before)

    def test_grown_says_whether_a_file_would_lack_the_records(self, tmp_path):
        path = tmp_path / "roots.json"
        missing, stale = RootCache.load(path)  # no file: an empty cache that a file still lacks
        assert (missing.records, stale, missing.grown) == ({}, False, True)
        self.saved(tmp_path)
        intact, stale = RootCache.load(path)
        assert (stale, intact.grown) == (False, False)
        intact.put(2, 0, [3.8])  # the roots it holds: nothing to add
        assert not intact.grown
        intact.put(2, 0, [3.8, 7.0])
        assert intact.grown
        path.write_text(path.read_text().replace('"xtol"', '"old-xtol"'))
        regenerated, stale = RootCache.load(path)
        assert (regenerated.records, stale, regenerated.grown) == ({}, True, True)

    def test_round_trip(self, tmp_path):
        cache = RootCache()
        cache.put(2, 1, [1.5, 4.5])
        path = tmp_path / "roots.json"
        cache.save(path)
        loaded, stale = RootCache.load(path)
        assert not stale
        assert loaded.get(2, 1) == [1.5, 4.5]

    def test_stale_on_tolerance_mismatch(self, tmp_path):
        cache = RootCache()
        cache.put(2, 0, [3.8])
        path = tmp_path / "roots.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        assert doc["tolerances"] == {"step": GRID_STEP, "xtol": ROOT_XTOL}
        doc["tolerances"]["xtol"] = 1e-8
        path.write_text(json.dumps(doc))
        loaded, stale = RootCache.load(path)
        assert stale
        assert loaded.get(2, 0) == []

    def test_cache_serves_covered_requests(self):
        cache = RootCache()
        fake = [1.0, 2.0, 99.0]  # wrong on purpose: proves the cache is consulted
        cache.put(2, 1, fake)
        assert radial_roots_up_to(1, 2, 50.0, cache=cache) == [1.0, 2.0]
        assert radial_roots_up_to(1, 2, 99.0, cache=cache) == fake

    def test_cache_extended_when_insufficient(self):
        cache = RootCache()
        roots = radial_roots_up_to(1, 2, 15.0, cache=cache)[:4]
        assert len(roots) == 4 and len(cache.get(2, 1)) >= 4
        again = radial_roots_up_to(1, 2, 15.0, cache=cache)[:4]
        assert again == roots
