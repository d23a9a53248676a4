import itertools

import pytest
from hypothesis import given, settings, strategies as st

from symbif import (
    CustomDomain,
    EulerSO2,
    NotInvertible,
    SO2Rep,
    SpectrumEntry,
    SystemSpec,
    ValidationError,
    deg_minus_id,
    rep_equiv_mod_even_trivial,
)
from symbif.bifurcation import _a9_element
from symbif.system import _merged, _spectral_pairs, _swept_kernels

I = EulerSO2.one()
O = EulerSO2.zero()
chi = EulerSO2.chi


elements = st.builds(
    EulerSO2,
    st.integers(-10, 10),
    st.dictionaries(st.integers(1, 12), st.integers(-10, 10), max_size=5),
)

reps = st.builds(
    SO2Rep,
    st.integers(0, 3),
    st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=4),
)


class TestRingOps:
    def test_add_identity(self):
        assert I + O == I

    def test_add_inverse(self):
        assert (2 * I - chi(1)) + (-2 * I + chi(1)) == O

    def test_add_coordinatewise(self):
        a = I + 3 * chi(2)
        b = I - chi(2) + chi(5)
        assert a + b == 2 * I + 2 * chi(2) + chi(5)

    def test_unit_law_examples(self):
        for x in (O, I, 3 * I - 2 * chi(4), chi(7)):
            assert I * x == x
            assert x * I == x

    def test_cyclic_products_vanish(self):
        assert chi(1) * chi(2) == O
        assert chi(3) * chi(3) == O

    def test_mul_example(self):
        assert (I - chi(2)) * (I + chi(2)) == I

    def test_invert_examples(self):
        assert (I - chi(3)).invert() == I + chi(3)
        assert (-I + chi(1)).invert() == -I - chi(1)

    def test_invert_rejects_nonunit(self):
        with pytest.raises(NotInvertible):
            (2 * I).invert()
        with pytest.raises(NotInvertible):
            O.invert()

    def test_pow_examples(self):
        assert (I - chi(1)) ** 2 == I - 2 * chi(1)
        assert (-I + chi(1)) ** -1 == -I - chi(1)
        assert (5 * I + 3 * chi(2)) ** 0 == I

    def test_pow_negative_needs_invertible(self):
        with pytest.raises(NotInvertible):
            (2 * I) ** -1

    @pytest.mark.parametrize(
        "op",
        [lambda a: a + 1, lambda a: a - 1, lambda a: a * 1.5, lambda a: 1.5 * a],
        ids=["add-int", "sub-int", "mul-float", "rmul-float"],
    )
    def test_non_elements_are_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(EulerSO2.one())

    def test_negative_cyclic_coefficient_reads_and_prints(self):
        a = EulerSO2(3, {1: -2})
        assert (a.coefficient(), a.coefficient(1), a.coefficient(2)) == (3, -2, 0)
        assert str(a) == "3*I -2*chi[1]"

    def test_zero_pruning_canonical(self):
        assert EulerSO2(1, {3: 0, 4: 2}) == EulerSO2(1, {4: 2})
        assert chi(2) - chi(2) == O

    def test_validation(self):
        with pytest.raises(ValidationError):
            EulerSO2(1, {0: 1})
        with pytest.raises(ValidationError):
            EulerSO2(1, {2: 1.5})
        with pytest.raises(ValidationError):
            EulerSO2(1.0, {})


class TestRingAxioms:
    @given(elements, elements)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(elements, elements, elements)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(elements)
    def test_unit(self, a):
        assert I * a == a

    @given(st.sampled_from([1, -1]), st.dictionaries(st.integers(1, 12), st.integers(-10, 10), max_size=5))
    def test_invert_law(self, unit, cyclic):
        a = EulerSO2(unit, cyclic)
        assert a.invert() * a == I

    @given(elements, st.integers(-6, 6))
    def test_pow_matches_repeated_mul(self, a, n):
        if n < 0 and a.unit not in (1, -1):
            return  # no inverse; see test_negative_pow_of_nonunit_raises
        step = a if n >= 0 else a.invert()
        expected = I
        for _ in range(abs(n)):
            expected = expected * step
        assert a**n == expected

    @given(
        st.integers(-10, 10).filter(lambda u: u not in (1, -1)),
        st.dictionaries(st.integers(1, 12), st.integers(-10, 10), max_size=5),
        st.integers(-6, -1),
    )
    def test_negative_pow_of_nonunit_raises(self, unit, cyclic, n):
        with pytest.raises(NotInvertible):
            EulerSO2(unit, cyclic) ** n

    @given(elements, st.integers(1, 6))
    def test_pow_closed_form(self, a, n):
        # (u; c)^n = (u^n; n u^(n-1) c), a consequence of chi*chi = 0
        expected = EulerSO2(
            a.unit**n, {k: n * a.unit ** (n - 1) * v for k, v in a.cyclic.items()}
        )
        assert a**n == expected


class TestDegMinusId:
    def test_trivial_representation(self):
        assert deg_minus_id(SO2Rep(3)) == -I
        assert deg_minus_id(SO2Rep(0)) == I
        assert deg_minus_id(SO2Rep(2)) == I

    def test_rotation_square(self):
        assert deg_minus_id(SO2Rep(0, {3: 2})) == I - 2 * chi(3)

    def test_mixed(self):
        assert deg_minus_id(SO2Rep(2, {1: 1})) == I - chi(1)

    def test_closed_form(self):
        v = SO2Rep(3, {1: 2, 4: 1})
        assert deg_minus_id(v) == -(I - 2 * chi(1) - chi(4))

    @given(reps)
    def test_product_of_base_cases(self, v):
        expected = -I if v.trivial_dim % 2 else I
        for k, m in v.irreducibles.items():
            for _ in range(m):
                expected = expected * (I - chi(k))
        assert deg_minus_id(v) == expected

    @given(reps, reps)
    def test_product_law(self, v, w):
        assert deg_minus_id(v.direct_sum(w)) == deg_minus_id(v) * deg_minus_id(w)

    @given(reps, reps)
    def test_degree_detects_equivalence(self, v, w):
        same_deg = deg_minus_id(v) == deg_minus_id(w)
        assert same_deg == rep_equiv_mod_even_trivial(v, w)

    @given(reps, st.sampled_from([2, 4, 6]))
    def test_even_powers_are_unit_plus_nonpositive(self, v, n):
        p = deg_minus_id(v) ** n
        assert p.unit == 1
        assert all(c <= 0 for c in (p - I).cyclic.values())


class TestEquivModEvenTrivial:
    def test_reflexive(self):
        v = SO2Rep(1, {2: 1})
        assert rep_equiv_mod_even_trivial(v, v)

    def test_even_trivial_absorbed(self):
        assert rep_equiv_mod_even_trivial(SO2Rep(2), SO2Rep(0))

    def test_parity_mismatch(self):
        assert not rep_equiv_mod_even_trivial(SO2Rep(2), SO2Rep(1))

    def test_rotation_mismatch(self):
        assert not rep_equiv_mod_even_trivial(SO2Rep(0, {2: 1}), SO2Rep(0, {2: 2}))


class TestSerialization:
    @given(elements)
    def test_euler_round_trip(self, a):
        assert EulerSO2.from_json(a.to_json()) == a

    @given(reps)
    def test_rep_round_trip(self, v):
        assert SO2Rep.from_json(v.to_json()) == v

    def test_schema(self):
        assert EulerSO2(1, {3: -2}).to_json() == {"unit": 1, "cyclic": {"3": -2}}
        assert SO2Rep(2, {1: 4}).to_json() == {"trivial": 2, "irr": {"1": 4}}

    @pytest.mark.parametrize("key", ["irr", "rot"])
    def test_reads_irr_or_rot(self, key):
        assert SO2Rep.from_json({"trivial": 1, key: {"2": 3}}) == SO2Rep(1, {2: 3})

    def test_rejects_irr_and_rot_together(self):
        from symbif import SchemaError

        with pytest.raises(SchemaError):
            SO2Rep.from_json({"trivial": 1, "irr": {"2": 3}, "rot": {"2": 3}})

    def test_rejects_unknown_keys(self):
        from symbif import SchemaError

        with pytest.raises(SchemaError):
            EulerSO2.from_json({"unit": 1, "extra": 2})


def test_rep_dim():
    assert SO2Rep(3, {1: 2, 5: 1}).total_dim() == 3 + 2 * 3
    assert SO2Rep(0, {}).is_zero()


@pytest.mark.parametrize("trivial", [True, False, -1, 1.0])
def test_rep_rejects_bad_trivial_dim(trivial):
    with pytest.raises(ValidationError):
        SO2Rep(trivial)


@pytest.mark.parametrize("make", [lambda: SO2Rep(1, [1]), lambda: EulerSO2(0, 5), lambda: EulerSO2(0, "12")])
def test_a_table_that_is_no_mapping_is_a_validation_error(make):
    with pytest.raises(ValidationError, match="table must be a mapping"):
        make()


def test_none_table_is_an_empty_one():
    assert SO2Rep(2, None) == SO2Rep.trivial(2) and EulerSO2(3, None) == EulerSO2(3)


def test_rep_descriptor_is_so2rep():
    """Guards the unexported binding that perfbench's tracer wraps (``RepDescriptor.__post_init__``)."""
    from symbif import spectral

    assert spectral.RepDescriptor is SO2Rep


def test_supplied_domain_is_custom_domain():
    """Guards the unexported binding whose ``entries_up_to`` perfbench's tracer wraps (``_SuppliedDomain``)."""
    from symbif import CustomDomain, spectral

    assert spectral._SuppliedDomain is CustomDomain


def test_exhaustive_family_product_law_small():
    # a reduced version of the exhaustive acceptance family, kept fast here
    family = [
        SO2Rep(t, {k: m for k, m in zip((1, 2), mults) if m})
        for t in range(3)
        for mults in itertools.product(range(3), repeat=2)
    ]
    for v, w in itertools.product(family, repeat=2):
        assert deg_minus_id(v.direct_sum(w)) == deg_minus_id(v) * deg_minus_id(w)
        assert (deg_minus_id(v) == deg_minus_id(w)) == rep_equiv_mod_even_trivial(v, w)


#: small elements over few labels, so sums, differences and products cancel often
small_elements = st.builds(
    EulerSO2,
    st.integers(-3, 3),
    st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=4),
)

small_reps = st.builds(
    SO2Rep,
    st.integers(0, 3),
    st.dictionaries(st.integers(1, 4), st.integers(0, 3), max_size=4),
)


def assert_zero_free(x):
    """``x`` equals its checked twin and stores no zero coefficient or multiplicity."""
    if isinstance(x, EulerSO2):
        twin, table = EulerSO2(x.unit, dict(x.cyclic)), x.cyclic
    else:
        twin, table = SO2Rep(x.trivial_dim, dict(x.irreducibles)), x.irreducibles
    assert x == twin and 0 not in table.values(), x


class TestZeroFreeTables:
    """Every record an operation builds unchecked is zero-pruned, as the constructors build it."""

    @given(small_elements, small_elements, st.integers(-3, 3))
    def test_ring_operations(self, a, b, n):
        for x in (a + b, a - b, a - a, a + (-a), -a, a * b, n * a, a * n, a * 0, a * (b - b)):
            assert_zero_free(x)

    @given(small_elements, st.integers(0, 5))
    def test_powers(self, a, n):
        assert_zero_free(a**n)
        assert_zero_free(EulerSO2(0, a.cyclic) ** (n + 2))  # u = 0, n >= 2: the factor n u^(n-1) is 0
        if a.unit in (1, -1):
            assert_zero_free(a.invert())
            assert_zero_free(a ** -(n + 1))

    @given(small_reps, small_reps)
    def test_degrees_and_direct_sums(self, v, w):
        assert_zero_free(deg_minus_id(v))
        assert_zero_free(v.direct_sum(w))
        assert_zero_free(v + w)
        assert_zero_free(SO2Rep.from_json(v.to_json()))
        assert_zero_free(EulerSO2.from_json(deg_minus_id(v).to_json()))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0, 8.0]), small_reps), max_size=6),
        st.dictionaries(st.sampled_from([1, 2, -1, 0]), st.integers(1, 2), min_size=1, max_size=3),
        st.dictionaries(st.sampled_from([1, 2, -2]), st.integers(1, 2), max_size=2),
    )
    def test_kernel_pieces(self, spectrum, b1, b2):
        # eigenvalues alpha and 2 alpha under b = 1 and 2 share a candidate, and every block meets 0 at 0:
        # several hits per kernel
        by_alpha = {0.0: SO2Rep.trivial(1), **dict(spectrum), 100.0: SO2Rep.irr(1)}
        entries = [SpectrumEntry(a, by_alpha[a]) for a in sorted(by_alpha)]
        spec = SystemSpec(
            p1=sum(b1.values()), p2=sum(b2.values()), sigma_b1=b1, sigma_b2=b2, mu_b0=b1.get(0, 0),
            domain=CustomDomain(entries),
        )
        lo, hi, covered, blocks, pairs = _spectral_pairs(spec, (-8.0, 8.0))
        for kr in _swept_kernels(covered, blocks, pairs, [0.0, *_merged(pairs, lo, hi)]):
            assert_zero_free(kr.v1)
            assert_zero_free(kr.v2)

    @given(
        st.integers(0, 3),
        st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=4),
        small_reps,
        st.integers(1, 4),
        st.sampled_from([1, -1]),
    )
    def test_a9_elements(self, t, mults, eig, a, sign):
        power = sign * a
        element = _a9_element(t, mults, eig, power)
        assert_zero_free(element)
        assert element == deg_minus_id(SO2Rep(t, mults)) ** power * (deg_minus_id(eig) ** a - I)

    def test_a9_element_whose_cyclic_part_cancels(self):
        # power = -a with e^a = -1 and m_E = 2 m_V: s^n a m_E + 2 s^n n m_V = 0 on every label
        for t, a in itertools.product(range(2), (1, 3)):
            element = _a9_element(t, {1: 1, 3: 2}, SO2Rep(1, {1: 2, 3: 4}), -a)
            assert_zero_free(element)
            assert element.cyclic == {} and element.unit == -2 * (-1) ** (t * a)
