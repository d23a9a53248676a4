import random

import pytest

from symbif import (
    EulerSO2,
    MissingClass,
    NonInjectiveTable,
    OrbitDatum,
    SchemaError,
    ValidationError,
    degree_from_orbits,
    lift_degree,
    so2_class_map_to_euler,
)
from symbif.morse import class_table_from_json, orbit_data_from_json


class TestDegreeFromOrbits:
    def test_single_full_orbit(self):
        assert degree_from_orbits([OrbitDatum("full", 0)]) == {"full": 1}

    def test_sign_from_morse_index(self):
        assert degree_from_orbits([OrbitDatum("Z2", 1)]) == {"Z2": -1}

    def test_cancellation_pruned(self):
        data = [OrbitDatum("Z3", 1), OrbitDatum("Z3", 2), OrbitDatum("full", 0)]
        assert degree_from_orbits(data) == {"full": 1}

    def test_empty(self):
        assert degree_from_orbits([]) == {}

    def test_additivity_random_partitions(self):
        rng = random.Random(7)
        classes = ["SO2", "Z1", "Z2", "Z3", "Z5"]
        for _ in range(100):
            data = [
                OrbitDatum(rng.choice(classes), rng.randrange(4)) for _ in range(rng.randrange(12))
            ]
            cut = rng.randrange(len(data) + 1)
            left, right = data[:cut], data[cut:]
            combined: dict[str, int] = {}
            for part in (degree_from_orbits(left), degree_from_orbits(right)):
                for cls, coeff in part.items():
                    combined[cls] = combined.get(cls, 0) + coeff
            combined = {c: v for c, v in combined.items() if v != 0}
            assert combined == degree_from_orbits(data)

    def test_validation(self):
        with pytest.raises(ValidationError):
            OrbitDatum("", 0)
        with pytest.raises(ValidationError):
            OrbitDatum("Z2", -1)

    def test_fields_are_frozen(self):
        datum = OrbitDatum("Z2", 1)
        with pytest.raises(AttributeError, match="cannot assign to field 'morse_index'"):
            datum.morse_index = 3
        with pytest.raises(AttributeError, match="cannot delete field 'isotropy_class'"):
            del datum.isotropy_class
        assert datum == OrbitDatum("Z2", 1)


class TestLiftDegree:
    def test_identity_table(self):
        deg = {"a": 2, "b": -1}
        assert lift_degree(deg, {"a": "a", "b": "b"}) == deg

    def test_relabelling(self):
        assert lift_degree({"Z2": -1}, {"Z2": "GxZ2", "Z3": "GxZ3"}) == {"GxZ2": -1}

    def test_non_injective_rejected(self):
        with pytest.raises(NonInjectiveTable):
            lift_degree({"a": 1}, {"a": "g", "b": "g"})

    def test_missing_class(self):
        with pytest.raises(MissingClass):
            lift_degree({"a": 1, "c": 2}, {"a": "ga", "b": "gb"})

    def test_large_table_lifts_in_linear_time(self, deadline):
        # the injectivity check is one pass over a set; scanning the targets
        # seen so far for each entry is quadratic, about 30 s at this size
        n = 50_000
        table = {f"h{i}": f"g{i}" for i in range(n)}
        deg = {f"h{i}": 1 for i in range(0, n, 7)}
        with deadline(5, "lifting a 50,000-entry table took over 5 s"):
            lifted = lift_degree(deg, table)
        assert lifted == {f"g{i}": 1 for i in range(0, n, 7)}

    @pytest.mark.parametrize(
        "deg, table",
        [({"a": 1.0}, {"a": "g"}), ({"a": True}, {"a": "g"}), ({1: 1}, {1: "g"}), ({"a": 1}, {"a": 7})],
        ids=["float-coefficient", "bool-coefficient", "int-label", "int-target"],
    )
    def test_entries_are_checked(self, deg, table):
        # coefficients are integers and labels strings, as degree_from_orbits and class_table_from_json give them
        with pytest.raises(ValidationError):
            lift_degree(deg, table)

    def test_explicit_zero_does_not_need_entry(self):
        assert lift_degree({"a": 1, "zz": 0}, {"a": "ga"}) == {"ga": 1}

    def test_commutes_with_relabelling(self):
        rng = random.Random(3)
        classes = ["c0", "c1", "c2", "c3"]
        table = {c: f"G.{c}" for c in classes}
        for _ in range(50):
            data = [OrbitDatum(rng.choice(classes), rng.randrange(3)) for _ in range(8)]
            relabelled = [OrbitDatum(table[d.isotropy_class], d.morse_index) for d in data]
            assert degree_from_orbits(relabelled) == lift_degree(degree_from_orbits(data), table)


class TestCompare:
    TABLE = {"SO2": "G.SO2", "Z2": "G.Z2", "Z3": "G.Z3"}

    def test_equal_maps(self):
        assert lift_degree({"Z2": -1}, self.TABLE) == lift_degree({"Z2": -1}, self.TABLE)

    def test_differing_coefficient(self):
        assert lift_degree({"Z2": -1}, self.TABLE) != lift_degree({"Z2": 1}, self.TABLE)

    def test_differing_class_absent_from_table(self):
        with pytest.raises(MissingClass):
            lift_degree({"Z9": 1}, self.TABLE)

    def test_agrees_with_map_inequality(self):
        rng = random.Random(11)
        classes = list(self.TABLE)
        for _ in range(100):
            a = degree_from_orbits(
                OrbitDatum(rng.choice(classes), rng.randrange(3)) for _ in range(rng.randrange(6))
            )
            b = degree_from_orbits(
                OrbitDatum(rng.choice(classes), rng.randrange(3)) for _ in range(rng.randrange(6))
            )
            assert (lift_degree(a, self.TABLE) != lift_degree(b, self.TABLE)) == (a != b)


class TestJsonForms:
    def test_orbit_data(self):
        data = orbit_data_from_json([{"class": "Z2", "morse_index": 1}])
        assert data == [OrbitDatum("Z2", 1)]

    def test_orbit_data_schema(self):
        with pytest.raises(SchemaError):
            orbit_data_from_json({"class": "Z2"})
        with pytest.raises(SchemaError):
            orbit_data_from_json([{"class": "Z2"}])

    def test_class_table(self):
        assert class_table_from_json({"a": "b"}) == {"a": "b"}
        with pytest.raises(SchemaError):
            class_table_from_json({"a": 3})


class TestEulerBridge:
    def test_so2_class_map(self):
        deg = {"SO2": 1, "Z3": -2}
        assert so2_class_map_to_euler(deg) == EulerSO2(1, {3: -2})

    def test_degree_sum_matches_ring_sum(self):
        rng = random.Random(5)
        classes = ["SO2", "Z1", "Z2", "Z4"]
        for _ in range(50):
            a = [OrbitDatum(rng.choice(classes), rng.randrange(3)) for _ in range(6)]
            b = [OrbitDatum(rng.choice(classes), rng.randrange(3)) for _ in range(6)]
            lhs = so2_class_map_to_euler(degree_from_orbits(a + b))
            rhs = so2_class_map_to_euler(degree_from_orbits(a)) + so2_class_map_to_euler(
                degree_from_orbits(b)
            )
            assert lhs == rhs

    def test_rejects_foreign_labels(self):
        with pytest.raises(ValidationError):
            so2_class_map_to_euler({"D4": 1})

    @pytest.mark.parametrize(
        "deg, first, second",
        [({"Z1": 1, "Z01": 4}, "Z1", "Z01"), ({"Z3": 1, "Z\u0663": 2}, "Z3", "Z\u0663")],
        ids=["leading-zero", "arabic-indic-three"],
    )
    def test_rejects_two_labels_of_one_class(self, deg, first, second):
        # each pair reads as one k, so one coefficient would overwrite the other
        with pytest.raises(ValidationError, match=f"labels '{first}' and '{second}' name the same class"):
            so2_class_map_to_euler(deg)

    @pytest.mark.parametrize("label", ["Z\u00b2", "Z" + "1" * 5000], ids=["superscript-two", "5000-digits"])
    def test_rejects_labels_int_cannot_read(self, label):
        # str.isdigit accepts a superscript two, and int() refuses 5,000 digits
        with pytest.raises(ValidationError):
            so2_class_map_to_euler({label: 1})
