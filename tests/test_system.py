import random

import pytest
from hypothesis import given, settings, strategies as st

from symbif import (
    BallDomain,
    CustomDomain,
    DiskDomain,
    InsufficientSpectrum,
    NotAMember,
    SO2Rep,
    SchemaError,
    SpectrumEntry,
    SystemSpec,
    ValidationError,
    analyze,
    bif_a9,
    bif_difference,
    check_glob,
    epsilon_gap,
    kernel_reps,
    lambda_membership,
    lambda_set,
    linearization_eigenvalues,
    load_custom_spectrum,
    system_spec_from_json,
)

ALPHA2 = 1.8411837813406593**2  # first rotation-1 disk eigenvalue
ALPHA3 = 3.0542369282271403**2  # first rotation-2 disk eigenvalue


def a9_spec(q1: int, p2: int, mu: int = 0, **kw) -> SystemSpec:
    b1 = {v: m for v, m in ((0, mu), (1, q1)) if m}
    b2 = {1: p2} if p2 else {}
    return SystemSpec(
        p1=q1 + mu, p2=p2, sigma_b1=b1, sigma_b2=b2, mu_b0=mu, domain=DiskDomain(), a9=True, **kw
    )


class TestSystemSpecValidation:
    def test_multiplicity_totals(self):
        with pytest.raises(ValidationError):
            SystemSpec(p1=2, p2=0, sigma_b1={1: 1}, sigma_b2={}, domain=DiskDomain())

    def test_needs_a_component(self):
        with pytest.raises(ValidationError):
            SystemSpec(p1=0, p2=0, sigma_b1={}, sigma_b2={}, domain=DiskDomain())

    def test_mu_bounded_by_zero_multiplicity(self):
        with pytest.raises(ValidationError):
            SystemSpec(p1=1, p2=0, sigma_b1={1: 1}, sigma_b2={}, mu_b0=1, domain=DiskDomain())

    def test_a9_block_shape_enforced(self):
        with pytest.raises(ValidationError):
            SystemSpec(p1=1, p2=0, sigma_b1={2: 1}, sigma_b2={}, domain=DiskDomain(), a9=True)
        with pytest.raises(ValidationError):
            SystemSpec(p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={-1: 1}, domain=DiskDomain(), a9=True)
        spec = a9_spec(q1=2, p2=1, mu=1)
        assert spec.q1 == 2

    @pytest.mark.parametrize("field", ["sigma_b1", "sigma_b2"])
    def test_block_must_be_a_mapping(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be a mapping"):
            SystemSpec(p1=1, p2=1, **{"sigma_b1": {1: 1}, "sigma_b2": {1: 1}, field: [(1, 1)]})

    @pytest.mark.parametrize("domain", ["disk", {"type": "disk"}, SO2Rep.zero()])
    def test_domain_refused_when_built(self, domain):
        with pytest.raises(ValidationError, match="domain must be a DiskDomain, BallDomain or CustomDomain"):
            SystemSpec(p1=1, p2=0, sigma_b1={1: 1}, domain=domain)

    def test_none_means_empty_blocks_and_a_fresh_disk(self):
        spec = SystemSpec(p1=1, p2=0, sigma_b1={1: 1}, sigma_b2=None, domain=None)
        assert spec.sigma_b2 == {} and spec.domain == DiskDomain()

    def test_negative_multiplicity(self):
        with pytest.raises(ValidationError):
            SystemSpec(p1=1, p2=0, sigma_b1={1: -1}, sigma_b2={}, domain=DiskDomain())

    @pytest.mark.parametrize("a9", ["no", 1, None], ids=["string", "int", "none"])
    def test_a9_must_be_a_boolean(self, a9):
        # a truthy non-boolean would select the a9 path and write a document the reader refuses
        with pytest.raises(ValidationError, match=f"^a9 must be a boolean, got {a9!r}$"):
            SystemSpec(2, 2, {1: 2}, {1: 2}, a9=a9)

    @pytest.mark.parametrize("a9", [True, False])
    @pytest.mark.parametrize("domain", [DiskDomain(), DiskDomain(bound=50.0)], ids=["disk", "bounded-disk"])
    def test_accepted_spec_reads_back_from_its_document(self, a9, domain):
        spec = SystemSpec(2, 2, {1: 2}, {1: 2}, domain=domain, a9=a9)
        assert system_spec_from_json(spec.to_json()) == spec

    def test_morse_counts(self):
        spec = SystemSpec(
            p1=3, p2=2, sigma_b1={1: 1, -2: 1, 0: 1}, sigma_b2={3: 1, -1: 1}, domain=DiskDomain()
        )
        assert spec.morse_plus() == 2
        assert spec.morse_minus() == 2


class TestSystemSpecJson:
    DOC = {
        "p1": 2,
        "p2": 0,
        "b1": [{"value": 1, "mult": 2}],
        "b2": [],
        "mu_b0": 0,
        "domain": {"type": "disk"},
        "a9": True,
    }

    def test_round_trip(self):
        spec = system_spec_from_json(self.DOC)
        assert spec.to_json() == self.DOC

    def test_bounded_disk_round_trip(self):
        doc = {**self.DOC, "domain": {"type": "disk", "max_eigenvalue": 50.0}}
        spec = system_spec_from_json(doc)
        assert spec.domain.bound == 50.0
        assert spec.to_json() == doc
        assert system_spec_from_json(spec.to_json()) == spec

    def test_custom_domain_with_irr_dims_round_trip(self):
        entries = [
            {"eigenvalue": 0.0, "angular_index": None, "root_index": None, "rep": {"trivial": 1, "irr": {}}},
            {"eigenvalue": 4.0, "angular_index": None, "root_index": None, "rep": {"trivial": 0, "irr": {"3": 1}}},
        ]
        doc = {**self.DOC, "a9": False, "domain": {"type": "custom", "entries": entries, "irr_dims": {"3": 5}}}
        spec = system_spec_from_json(doc)
        assert spec.domain.irr_dim_table == {3: 5}
        assert spec.to_json() == doc
        assert system_spec_from_json(spec.to_json()) == spec

    def test_unknown_key(self):
        with pytest.raises(SchemaError):
            system_spec_from_json({**self.DOC, "extra": 1})

    def test_bad_block_entry(self):
        with pytest.raises(SchemaError):
            system_spec_from_json({**self.DOC, "b1": [{"mult": 2}]})

    @pytest.mark.parametrize(
        "item, error, message",
        [
            ({"value": "1", "mult": 2}, SchemaError, "eigenvalue '1' must be a real number"),
            ({"value": 1, "mult": "2"}, SchemaError, "multiplicity must be an integer"),
            ({"value": 1, "mult": 0}, ValidationError, "multiplicity must be >= 1"),
            ({"value": 1e999, "mult": 2}, ValidationError, "eigenvalue inf must be finite"),
        ],
        ids=["value-str", "mult-str", "mult-0", "value-inf"],
    )
    @pytest.mark.parametrize("key", ["b1", "b2"])
    def test_block_item_refusals(self, key, item, error, message):
        # a wrong type is a SchemaError and a bad value a ValidationError, in a document and in Python alike
        doc = {**self.DOC, "p1": 2 if key == "b1" else 0, "p2": 2 if key == "b2" else 0, "b1": [], "b2": [], "a9": False}
        with pytest.raises(error, match=f"^{key}: {message}"):
            system_spec_from_json({**doc, key: [item]})
        with pytest.raises(error, match=f"^sigma_{key}: {message}"):
            SystemSpec(p1=doc["p1"], p2=doc["p2"], **{f"sigma_{key}": {item["value"]: item["mult"]}})

    @pytest.mark.parametrize("key", ["p1", "p2", "mu_b0"])
    def test_wrong_type_of_a_count_is_a_schema_error(self, key):
        # as for a9, b1 and domain: the one check, in SystemSpec, reports a wrong type as a SchemaError
        for wrong in ("2", object()):
            with pytest.raises(SchemaError, match=f"{key} must be an integer"):
                system_spec_from_json({**self.DOC, key: wrong})
        with pytest.raises(ValidationError, match=f"{key} must be >= 0"):
            system_spec_from_json({**self.DOC, key: -1})

    def test_ball_domain_round_trip(self):
        doc = {
            "p1": 2,
            "p2": 0,
            "b1": [{"value": 1, "mult": 2}],
            "b2": [],
            "mu_b0": 0,
            "domain": {
                "type": "ball",
                "dim": 4,
                "entries": [
                    {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}},
                    {"eigenvalue": 7.0, "rep": {"trivial": 0, "irr": {"1": 1}}},
                ],
            },
            "a9": True,
        }
        spec = system_spec_from_json(doc)
        redone = system_spec_from_json(spec.to_json())
        assert redone.domain.dim == 4
        assert redone.domain.entries == spec.domain.entries
        assert redone.to_json() == spec.to_json()

    def test_custom_domain(self):
        doc = {
            "p1": 1,
            "p2": 0,
            "b1": [{"value": 2.0, "mult": 1}],
            "b2": [],
            "mu_b0": 0,
            "domain": {
                "type": "custom",
                "entries": [
                    {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}},
                    {"eigenvalue": 4.0, "rep": {"trivial": 0, "irr": {"1": 1}}},
                ],
            },
            "a9": False,
        }
        spec = system_spec_from_json(doc)
        assert isinstance(spec.domain, CustomDomain)
        assert lambda_set(spec, (0.0, 2.0)) == [0.0, 2.0]
        with pytest.raises(InsufficientSpectrum):
            lambda_set(spec, (0.0, 4.0))  # needs alpha up to 8, spectrum stops at 4

    @pytest.mark.parametrize(
        "table, error",
        [
            ({"1": 2.7}, SchemaError),
            ({"1": True}, SchemaError),
            ({"x": 2}, SchemaError),
            ({"1": -2}, ValidationError),
            ({"1": 0}, ValidationError),
            ({"1" * 5000: 2}, SchemaError),
        ],
        ids=["fraction", "bool", "label-x", "negative", "zero", "label-beyond-int-parsing"],
    )
    def test_bad_irr_dims_are_refused(self, table, error):
        entries = [
            {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}},
            {"eigenvalue": 4.0, "rep": {"trivial": 0, "irr": {"1": 1}}},
        ]
        domain = {"type": "custom", "entries": entries, "irr_dims": table}
        with pytest.raises(error):
            system_spec_from_json({"p1": 1, "p2": 0, "domain": domain})
        if error is ValidationError:
            with pytest.raises(ValidationError, match="dimensions must be >= 1"):
                CustomDomain([SpectrumEntry.from_json(e) for e in entries], irr_dim_table={1: table["1"]})


class TestWindowIsAPair:
    """A window that is not a tuple or list of two entries is refused, not indexed or cut short."""

    @pytest.mark.parametrize("call", [lambda_set, analyze])
    @pytest.mark.parametrize(
        "window", [(1.0,), None, (0, 1, 2), "01", {0: 1, 1: 2}], ids=["one", "none", "three", "string", "mapping"]
    )
    def test_refused(self, call, window):
        with pytest.raises(ValidationError, match=r"^window must be a pair \(lo, hi\), got "):
            call(a9_spec(2, 2), window)

    @pytest.mark.parametrize("call", [lambda_set, analyze])
    def test_list_and_tuple_agree(self, call):
        assert call(a9_spec(2, 2), [-5, 15]) == call(a9_spec(2, 2), (-5.0, 15.0))


class TestLambdaSet:
    def test_a9_positive_regime(self):
        spec = a9_spec(q1=2, p2=0)
        members = lambda_set(spec, (0.0, 15.0))
        assert len(members) == 4
        assert members[0] == 0.0
        assert abs(members[1] - 3.38996) < 1e-4
        assert abs(members[2] - 9.32836) < 1e-4
        assert abs(members[3] - 14.68197) < 1e-4

    def test_a9_negative_regime(self):
        spec = a9_spec(q1=0, p2=1, mu=0)
        members = lambda_set(spec, (-10.0, 0.0))
        assert len(members) == 3
        assert abs(members[0] + 9.32836) < 1e-4
        assert abs(members[1] + 3.38996) < 1e-4
        assert members[2] == 0.0

    def test_empty_blocks_give_empty_set(self):
        spec = SystemSpec(p1=1, p2=0, sigma_b1={0: 1}, sigma_b2={}, mu_b0=1, domain=DiskDomain())
        assert lambda_set(spec, (-100.0, 100.0)) == []

    def test_scaling_by_b(self):
        spec = SystemSpec(p1=1, p2=0, sigma_b1={2: 1}, sigma_b2={}, domain=DiskDomain())
        members = lambda_set(spec, (0.1, 3.0))
        assert abs(members[0] - ALPHA2 / 2) < 1e-6

    def test_negative_b_mirrors(self):
        spec = SystemSpec(p1=1, p2=0, sigma_b1={-1: 1}, sigma_b2={}, domain=DiskDomain())
        members = lambda_set(spec, (-10.0, -0.1))
        assert abs(members[-1] + ALPHA2) < 1e-6

    def test_window_endpoints_inclusive(self):
        spec = a9_spec(q1=1, p2=0)
        members = lambda_set(spec, (0.0, 0.0))
        assert members == [0.0]

    def test_dedup_of_coincident_members(self):
        # b and 2b produce the same lambda for alpha and 2*alpha in a made-up spectrum
        entries = [
            SpectrumEntry(0.0, SO2Rep.trivial(1)),
            SpectrumEntry(2.0, SO2Rep.irr(1)),
            SpectrumEntry(4.0, SO2Rep.irr(2)),
        ]
        spec = SystemSpec(
            p1=2, p2=0, sigma_b1={1: 1, 2: 1}, sigma_b2={}, domain=CustomDomain(entries)
        )
        members = lambda_set(spec, (0.0, 2.0))
        assert members == [0.0, 1.0, 2.0]  # lambda = 2 arises twice, reported once

    def test_insufficient_spectrum_from_bound(self):
        spec = SystemSpec(
            p1=1, p2=0, sigma_b1={1: 1}, sigma_b2={}, domain=DiskDomain(bound=20.0)
        )
        with pytest.raises(InsufficientSpectrum):
            lambda_set(spec, (0.0, 100.0))

    def test_window_must_be_ordered(self):
        with pytest.raises(ValidationError, match="lo <= hi"):
            lambda_set(a9_spec(q1=1, p2=0), (5.0, 1.0))

    def test_insufficient_spectrum_from_custom(self):
        entries = [SpectrumEntry(0.0, SO2Rep.trivial(1)), SpectrumEntry(5.0, SO2Rep.irr(1))]
        spec = SystemSpec(p1=1, p2=0, sigma_b1={1: 1}, sigma_b2={}, domain=CustomDomain(entries))
        with pytest.raises(InsufficientSpectrum):
            lambda_set(spec, (0.0, 50.0))


class TestKernelReps:
    def test_outside_lambda_is_zero(self):
        spec = a9_spec(q1=2, p2=0)
        kr = kernel_reps(spec, 1.2345)
        assert kr.is_zero()

    def test_positive_match(self):
        spec = a9_spec(q1=2, p2=0)
        kr = kernel_reps(spec, ALPHA2)
        assert kr.v1 == SO2Rep.irr(1, 2)
        assert kr.v2.is_zero()

    def test_negative_match(self):
        spec = a9_spec(q1=0, p2=3)
        kr = kernel_reps(spec, -ALPHA2)
        assert kr.v1.is_zero()
        assert kr.v2 == SO2Rep.irr(1, 3)

    def test_zero_parameter_collects_constants(self):
        spec = a9_spec(q1=2, p2=1)
        kr = kernel_reps(spec, 0.0)
        assert kr.v1 == SO2Rep.trivial(2)
        assert kr.v2 == SO2Rep.trivial(1)

    def test_total_dim_matches_vanishing_multiplicity(self):
        spec = SystemSpec(
            p1=2, p2=1, sigma_b1={1: 1, -1: 1}, sigma_b2={2: 1}, domain=DiskDomain()
        )
        for lam in (ALPHA2, -ALPHA2, ALPHA3 / 2 * -1, 0.5):
            kr = kernel_reps(spec, lam)
            lin = linearization_eigenvalues(spec, lam, 8)
            vanishing = sum(r.multiplicity for r in lin if r.vanishes)
            assert kr.total_dim() == vanishing


class TestLinearization:
    def test_lambda_zero_b1_values_nonnegative(self):
        spec = a9_spec(q1=2, p2=0)
        for rec in linearization_eigenvalues(spec, 0.0, 6):
            if rec.block == "B1" and rec.b == 1:
                alpha = rec.entry.eigenvalue
                assert rec.value == pytest.approx(alpha / (1 + alpha))
                assert rec.value >= 0

    def test_kernel_at_matched_eigenvalue(self):
        spec = SystemSpec(p1=3, p2=0, sigma_b1={1: 3}, sigma_b2={}, domain=DiskDomain())
        recs = [r for r in linearization_eigenvalues(spec, ALPHA2, 6) if r.vanishes]
        assert len(recs) == 1
        assert recs[0].multiplicity == 2 * 3  # eigenspace dim 2 times mu_B1(1) = 3
        assert abs(recs[0].value) < 1e-7

    def test_b2_block_negative_for_positive_lambda(self):
        spec = SystemSpec(p1=0, p2=2, sigma_b1={}, sigma_b2={1: 1, 3: 1}, domain=DiskDomain())
        for rec in linearization_eigenvalues(spec, 2.5, 5):
            assert rec.block == "B2"
            assert rec.value < 0

    def test_structural_flags(self):
        spec = SystemSpec(p1=2, p2=0, sigma_b1={0: 1, 1: 1}, sigma_b2={}, mu_b0=1, domain=DiskDomain())
        recs = linearization_eigenvalues(spec, 0.7, 4)
        structural = [r for r in recs if r.structural]
        assert len(structural) == 1
        assert structural[0].b == 0 and structural[0].entry.eigenvalue == 0.0
        assert structural[0].value == 0.0

    def test_k_max_validation(self):
        spec = a9_spec(q1=1, p2=0)
        with pytest.raises(ValidationError):
            linearization_eigenvalues(spec, 0.0, 0)

    def test_insufficient_for_supplied_domain(self):
        entries = [SpectrumEntry(0.0, SO2Rep.trivial(1))]
        spec = SystemSpec(p1=1, p2=0, sigma_b1={1: 1}, sigma_b2={}, domain=CustomDomain(entries))
        with pytest.raises(InsufficientSpectrum):
            linearization_eigenvalues(spec, 0.0, 2)

    @pytest.mark.parametrize("kind", ["ball", "custom"])
    def test_supplied_domains(self, kind):
        # rows per entry, B1 then B2; an eigenspace's dimension is 2 per irreducible unless the
        # custom domain's irr_dims say otherwise (here 5 for label 3), and on the 3-ball the
        # degree-l harmonics have dimension 2l + 1; the trivial summand sits at the first
        # trivial-type eigenvalue t of the 3-ball, so the ball spectrum is true up to its top
        t = 20.19072855642663
        entries = [
            SpectrumEntry(0.0, SO2Rep.trivial(1)),
            SpectrumEntry(4.0, SO2Rep.irr(3)),
            SpectrumEntry(t, SO2Rep(2, {1: 1})),
        ]
        domain = BallDomain(entries, dim=3) if kind == "ball" else CustomDomain(entries, irr_dim_table={3: 5})
        spec = SystemSpec(p1=1, p2=1, sigma_b1={2: 1}, sigma_b2={1: 1}, domain=domain)
        rows = [(r.value, r.multiplicity, r.block, r.vanishes) for r in linearization_eigenvalues(spec, 2.0, 3)]
        dim_4, dim_t = (7, 5) if kind == "ball" else (5, 4)
        assert rows == [
            (-4.0, 1, "B1", False), (-2.0, 1, "B2", False),
            (0.0, dim_4, "B1", True), (-6.0 / 5.0, dim_4, "B2", False),
            ((t - 4.0) / (1.0 + t), dim_t, "B1", False), ((-t - 2.0) / (1.0 + t), dim_t, "B2", False),
        ]

    @pytest.mark.parametrize("dim, dims", [(3, {1: 3, 2: 5, 7: 15}), (4, {1: 4, 2: 9, 3: 16}), (5, {1: 5, 2: 14})])
    def test_ball_multiplicities_are_the_harmonic_dimensions(self, dim, dims):
        # degree l on the N-ball: C(l+N-1, N-1) - C(l+N-3, N-1), which is 2l + 1 on the 3-ball
        # and (l + 1)^2 on the 4-ball; read by linearization_eigenvalues, one B1 row per entry
        entries = [SpectrumEntry(0.0, SO2Rep.trivial(1))]
        entries += [SpectrumEntry(1.0 + l, SO2Rep.irr(l)) for l in sorted(dims)]
        spec = SystemSpec(p1=1, p2=0, sigma_b1={1: 1}, domain=BallDomain(entries, dim=dim))
        rows = linearization_eigenvalues(spec, 0.5, len(entries))
        assert [r.multiplicity for r in rows] == [1, *(dims[l] for l in sorted(dims))]
        assert spec.domain.irr_dim_table == dims


class TestThreeWayEquivalence:
    def test_membership_kernel_linearization_agree(self):
        spec = SystemSpec(
            p1=3,
            p2=1,
            sigma_b1={1: 1, -0.5: 1, 0: 1},
            sigma_b2={2: 1},
            mu_b0=1,
            domain=DiskDomain(),
        )
        members = lambda_set(spec, (-12.0, 12.0))
        rng = random.Random(20240817)
        sampled = [rng.uniform(-12.0, 12.0) for _ in range(200)] + members
        k_max = len(spec.domain.entries_up_to(30.0))
        for lam in sampled:
            in_lambda = lambda_membership(spec, lam)
            kernel_nonzero = not kernel_reps(spec, lam).is_zero()
            lin = linearization_eigenvalues(spec, lam, k_max)
            has_vanishing = any(r.vanishes for r in lin)
            assert in_lambda == kernel_nonzero == has_vanishing, lam
            for r in lin:
                if r.vanishes:
                    assert abs(r.value) < 5e-7
                if r.structural:
                    assert r.value == 0.0


class TestDocstringFormulas:
    """lambda_set, kernel_reps and linearization_eigenvalues bit for bit against the module-docstring formulas.

    Both blocks carry a positive, a negative and a zero eigenvalue, so each
    sign of b meets each sign of the Laplacian term.
    """

    B1 = {0.7: 1, -1.3: 1, 0: 1}
    B2 = {2: 1, -0.4: 2, 0: 1}
    WINDOW = (-30.0, 30.0)

    @pytest.fixture(scope="class")
    def spec(self):
        return SystemSpec(p1=3, p2=4, sigma_b1=dict(self.B1), sigma_b2=dict(self.B2), mu_b0=2, domain=DiskDomain())

    def entries(self, spec):
        reach = max(abs(w) for w in self.WINDOW) * max(abs(b) for b in (*self.B1, *self.B2))
        return spec.domain.entries_up_to(2.0 * reach)

    def test_lambda_set(self, spec):
        lo, hi = self.WINDOW
        alphas = [e.eigenvalue for e in self.entries(spec)]
        raw = [a / b + 0.0 for b in self.B1 if b != 0 for a in alphas]
        raw += [-a / b + 0.0 for b in self.B2 if b != 0 for a in alphas]
        expected: list[float] = []
        for m in sorted(m for m in raw if lo <= m <= hi):
            if not expected or not self.close(expected[-1], m):
                expected.append(m)
        got = lambda_set(spec, self.WINDOW)
        assert [m.hex() for m in got] == [m.hex() for m in expected]
        assert any(m < 0 for m in got) and any(m > 0 for m in got)

    @staticmethod
    def close(a, b):
        return abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))

    def test_kernel_reps(self, spec):
        entries = self.entries(spec)
        members = lambda_set(spec, self.WINDOW)
        # each member moved just inside (0.9e-8) and just outside (1.1e-8) the merge band
        shifted = [m * (1.0 + f) for f in (0.9e-8, -0.9e-8, 1.1e-8, -1.1e-8) for m in members]
        lams = members + [0.0, 1.2345, -7.5] + shifted
        for lam in lams:
            pieces, matched = [], False
            for sign, sigma in ((1, self.B1), (-1, self.B2)):
                trivial, irr = 0, {}
                for b, mult in sorted(sigma.items()):
                    for e in entries:
                        if b != 0 and self.close(lam * b, sign * e.eigenvalue):
                            matched = True
                            trivial += mult * e.rep.trivial_dim
                            for label, m in e.rep.irreducibles.items():
                                irr[label] = irr.get(label, 0) + mult * m
                pieces.append(SO2Rep(trivial, irr))
            kr = kernel_reps(spec, lam)
            assert (kr.v1, kr.v2) == tuple(pieces), lam
            assert lambda_membership(spec, lam) is matched, lam
        assert not kernel_reps(spec, lams[0]).v2.is_zero()

    def test_linearization_rows(self, spec):
        close = self.close
        k_max = 12
        entries = spec.domain.first_entries(k_max)
        for lam in lambda_set(spec, (-8.0, 8.0)) + [0.0, 2.5, -3.75]:
            expected = []
            for e in entries:
                alpha, dim = e.eigenvalue, e.rep.total_dim()
                for b, mult in sorted(self.B1.items()):
                    value = (alpha - lam * b) / (1.0 + alpha)
                    vanishes = b != 0 and close(lam * b, alpha)
                    expected.append((value.hex(), dim * mult, alpha, "B1", b, vanishes, b == 0 and alpha == 0.0))
                for b, mult in sorted(self.B2.items()):
                    value = (-alpha - lam * b) / (1.0 + alpha)
                    vanishes = b != 0 and close(lam * b, -alpha)
                    expected.append((value.hex(), dim * mult, alpha, "B2", b, vanishes, b == 0 and alpha == 0.0))
            got = [
                (r.value.hex(), r.multiplicity, r.entry.eigenvalue, r.block, r.b, r.vanishes, r.structural)
                for r in linearization_eigenvalues(spec, lam, k_max)
            ]
            assert got == expected, lam


class TestWindowMonotonicity:
    @given(
        st.floats(-15.0, 15.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_smaller_window_is_subset(self, lo, width, pad_lo, pad_hi):
        spec = SystemSpec(
            p1=2, p2=1, sigma_b1={1: 1, -0.5: 1}, sigma_b2={2: 1}, domain=DiskDomain()
        )
        inner = (lo, lo + width)
        outer = (lo - pad_lo, lo + width + pad_hi)
        small = lambda_set(spec, inner)
        big = lambda_set(spec, outer)
        # identical floats: members are computed from the same lattice roots
        assert set(small) <= set(big)


class TestCustomSpectrumIdempotence:
    @given(
        st.lists(
            st.tuples(st.floats(0.5, 50.0), st.integers(1, 4), st.integers(1, 3)),
            min_size=0,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reingestion_is_identity(self, raw):
        docs = [{"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}}]
        for ev, label, mult in sorted(raw):
            docs.append({"eigenvalue": ev, "rep": {"trivial": 0, "irr": {str(label): mult}}})
        from symbif import load_custom_spectrum

        entries = load_custom_spectrum({"domain": "custom", "entries": docs})
        again = load_custom_spectrum(
            {"domain": "custom", "entries": [e.to_json() for e in entries]}
        )
        assert again == entries


class TestEpsilonGap:
    def test_half_min_gap(self):
        members = [0.0, 3.38996, 9.32836]
        assert epsilon_gap(3.38996, members) == pytest.approx(1.69498)

    def test_singleton_fallback(self):
        assert epsilon_gap(0.0, [0.0]) == 1.0

    def test_not_a_member(self):
        with pytest.raises(NotAMember):
            epsilon_gap(1.0, [0.0, 2.0])

    def test_tolerant_membership(self):
        members = [0.0, 2.0]
        assert epsilon_gap(2.0 + 1e-12, members) == pytest.approx(1.0)


NAN, INF = float("nan"), float("inf")
NONFINITE_CUSTOM = {
    "domain": "custom",
    "entries": [
        {"eigenvalue": 0.0, "rep": {"trivial": 1, "irr": {}}},
        {"eigenvalue": 1.0, "rep": {"trivial": 1, "irr": {}}},
        {"eigenvalue": INF, "rep": {"trivial": 0, "irr": {"1": 1}}},
    ],
}


class TestNonFiniteInputs:
    """A NaN or an infinity is refused: ``close`` would match inf to every number and NaN to none."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: kernel_reps(a9_spec(2, 0), NAN),
            lambda: kernel_reps(a9_spec(2, 0), INF),
            lambda: kernel_reps(a9_spec(0, 2), -INF),
            lambda: lambda_membership(a9_spec(2, 0), INF),
            lambda: check_glob(a9_spec(2, 0), NAN),
            lambda: bif_a9(a9_spec(2, 0), INF),
            lambda: bif_a9(a9_spec(2, 0), NAN),
            lambda: bif_difference(a9_spec(2, 0), NAN),
            lambda: linearization_eigenvalues(a9_spec(2, 0), INF, 3),
            lambda: epsilon_gap(INF, [0.0, 3.38996]),
            lambda: epsilon_gap(2.0, [0.0, INF]),
            lambda: epsilon_gap(2.0, [2.0, NAN]),
            lambda: SystemSpec(p1=1, p2=0, sigma_b1={INF: 1}),
            lambda: SystemSpec(p1=0, p2=1, sigma_b2={-INF: 1}),
            lambda: SystemSpec(p1=1, p2=0, sigma_b1={10**400: 1}),
            lambda: system_spec_from_json({"p1": 1, "p2": 0, "b1": [{"value": INF}], "domain": {"type": "disk"}}),
            lambda: SpectrumEntry(INF, SO2Rep.trivial(1)),
            lambda: load_custom_spectrum(NONFINITE_CUSTOM),
        ],
        ids=[
            "kernel_reps-nan",
            "kernel_reps-inf",
            "kernel_reps-neg-inf",
            "lambda_membership-inf",
            "check_glob-nan",
            "bif_a9-inf",
            "bif_a9-nan",
            "bif_difference-nan",
            "linearization-inf",
            "epsilon_gap-inf",
            "epsilon_gap-inf-member",
            "epsilon_gap-nan-member",
            "b1-inf",
            "b2-neg-inf",
            "b1-int-beyond-float",
            "json-b1-inf",
            "entry-inf",
            "custom-spectrum-inf",
        ],
    )
    def test_refused(self, call):
        # an integer beyond the float range is refused as too large for a float, by its digit count
        with pytest.raises(ValidationError, match="finite|integer of 401 digits, too large for a float"):
            call()
