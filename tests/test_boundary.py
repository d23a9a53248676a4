"""Boundary fuzz: a malformed number or count in a config is a package error, never a traceback.

Each example takes one CLI run that works, replaces one numeric or count
field of its config with a hostile JSON value, and runs ``main([...])`` in
process.  The run must end in exit status 0, 1 or 2; any exception that
escapes ``main`` (it maps every ``symbif.errors.Error`` to a status) fails
the example, and so does a run that outlives its deadline.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

import symbif
from symbif.cli import main

#: 5,001 digits: past the 4,300-digit limit of Python's int parsing, so no
#: ``json.dumps`` can write it; the text is spliced in for this marker
HUGE = "__5001_digit_integer__"
HOSTILE = [True, "x", None, float("nan"), float("inf"), float("-inf"), 0.5, -3, [1], 10**400, HUGE]

A9_DISK = {
    "p1": 2,
    "p2": 2,
    "b1": [{"value": 1, "mult": 2}],
    "b2": [{"value": 1, "mult": 2}],
    "mu_b0": 0,
    "domain": {"type": "disk", "max_eigenvalue": 60},
    "a9": True,
}
DISK = {"system": A9_DISK, "window": [-12, 12], "spectrum_bound": 40}
# no angular indices, so the a9 unboundedness check runs the ball's radial test
BALL = {
    "system": {
        **A9_DISK,
        "domain": {
            "type": "ball",
            "dim": 3,
            "entries": [
                {"eigenvalue": 0, "rep": {"trivial": 1}},
                {"eigenvalue": 20.19072856, "rep": {"trivial": 1}},
                {"eigenvalue": 40.0, "rep": {"trivial": 0, "irr": {"1": 1}}},
            ],
        },
    },
    "window": [0, 21],
}
CUSTOM = {
    "system": {
        **A9_DISK,
        "domain": {
            "type": "custom",
            "irr_dims": {"1": 2},
            "entries": [
                {"eigenvalue": 0, "rep": {"trivial": 1}},
                {"eigenvalue": 4.0, "rep": {"irr": {"1": 1}}},
                {"eigenvalue": 16.0, "rep": {"trivial": 1}},
            ],
        },
    },
    "window": [-10, 10],
}

SYS, B1, B2, DOM = ("system",), ("system", "b1", 0), ("system", "b2", 0), ("system", "domain")
ENTRY = DOM + ("entries", 1)
CASES = [
    *[
        (["analyze"], DISK, path)
        for path in [
            ("window", 0),
            ("window", 1),
            ("spectrum_bound",),
            SYS + ("p1",),
            SYS + ("p2",),
            SYS + ("mu_b0",),
            B1 + ("value",),
            B1 + ("mult",),
            B2 + ("value",),
            B2 + ("mult",),
            DOM + ("max_eigenvalue",),
        ]
    ],
    *[(["spectrum"], DISK, path) for path in [("spectrum_bound",), DOM + ("max_eigenvalue",)]],
    *[
        (["bif", "--lambda", "3.3899577166932745"], DISK, path)
        for path in [SYS + ("p1",), SYS + ("mu_b0",), B1 + ("value",), DOM + ("max_eigenvalue",)]
    ],
    *[(["rabinowitz", "--enumerate"], DISK, path) for path in [("window", 0), ("window", 1), SYS + ("p2",), B2 + ("mult",)]],
    *[
        (["analyze"], BALL, path)
        for path in [("window", 1), DOM + ("dim",), ENTRY + ("eigenvalue",), ENTRY + ("rep",), ENTRY + ("rep", "trivial")]
    ],
    *[
        (["analyze"], CUSTOM, path)
        for path in [DOM + ("irr_dims", "1"), ENTRY + ("eigenvalue",), ENTRY + ("rep", "irr", "1")]
    ],
]


def config_text(base: dict, path: tuple, value) -> str:
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc).replace(json.dumps(HUGE), "1" * 5001)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "config.json"


def test_every_base_run_succeeds(config_path):
    for argv, base, _ in CASES:
        config_path.write_text(json.dumps(base))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main([*argv, "--config", str(config_path)]) == 0, err.getvalue()


# one strategy over every (case, value) pair, so the examples can cover all of them
@settings(max_examples=len(CASES) * len(HOSTILE), deadline=timedelta(seconds=5), derandomize=True)
@given(example=st.sampled_from([(case, value) for case in CASES for value in HOSTILE]))
def test_hostile_number_is_a_package_error(config_path, deadline, example):
    (argv, base, path), value = example
    config_path.write_text(config_text(base, path, value))
    with deadline(30, "the run did not finish within 30 s"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--config", str(config_path)])
    assert code in (0, 1, 2)


A9_SPEC = symbif.system_spec_from_json(A9_DISK)
PLAIN_SPEC = symbif.system_spec_from_json({**A9_DISK, "a9": False})


@pytest.mark.parametrize(
    "call",
    [
        lambda: symbif.radial_condition(True, 2, 3.0),
        lambda: symbif.neumann_radial_roots(True),
        lambda: symbif.check_glob(A9_SPEC, "abc"),
        lambda: symbif.bif_difference(PLAIN_SPEC, "abc"),
        lambda: symbif.bif_a9(A9_SPEC, "11.49"),
        lambda: symbif.epsilon_gap(1.0, ["a"]),
    ],
    ids=["radial-condition-bool", "neumann-bool", "check-glob-str", "bif-difference-str", "bif-a9-str", "epsilon-gap-str"],
)
def test_library_refuses_bools_and_strings_as_numbers(call):
    with pytest.raises((symbif.DomainError, symbif.ValidationError)):
        call()


BIG = 10**5000  # 5,001 digits: str() and repr() of it raise ValueError


@pytest.mark.parametrize(
    "call",
    [
        lambda: symbif.radial_roots_up_to(-BIG, 2, 3.0),
        lambda: symbif.neumann_radial_roots(0, 2, -BIG),
        lambda: symbif.neumann_radial_roots(BIG, 2, 1),
        lambda: symbif.SO2Rep(-BIG),
        lambda: symbif.EulerSO2(0, {-BIG: 1}),
        lambda: symbif.EulerSO2(BIG).invert(),
        lambda: symbif.SystemSpec(p1=BIG, p2=0),
        lambda: symbif.SystemSpec(p1=1, p2=0, sigma_b1={0: 1}, mu_b0=BIG),
        lambda: symbif.OrbitDatum("Z1", -BIG),
        lambda: symbif.DiskDomain().first_entries(-BIG),
        lambda: symbif.epsilon_gap(BIG, [1.0]),
    ],
    ids=[
        "radial-roots-index", "neumann-count", "neumann-index", "so2rep-trivial", "euler-label", "euler-invert",
        "spec-p1", "spec-mu-b0", "orbit-morse-index", "first-entries", "epsilon-gap",
    ],
)
def test_integer_too_long_to_print_is_a_package_error(call):
    # the message shows the integer by its digit count, as it cannot print it
    with pytest.raises(symbif.Error, match="integer of 5001 digits"):
        call()


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "infinity-allowed"])
@pytest.mark.parametrize(
    "value, shown",
    [
        (2**1024, "an integer of 309 digits"),
        (10**400, "an integer of 401 digits"),
        (-(10**400), "a negative integer of 401 digits"),
        (BIG, "an integer of 5001 digits"),
    ],
    ids=["2^1024", "10^400", "-10^400", "5001-digits"],
)
def test_integer_beyond_the_float_range_is_named_by_its_digits(finite, value, shown):
    # an integer is never NaN, and its digits are not printed
    with pytest.raises(symbif.ValidationError) as exc:
        symbif.errors._real(value, "x", finite=finite)
    assert str(exc.value) == f"x is {shown}, too large for a float"


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: symbif.DiskDomain().entries_up_to(10**400), "alpha_max"),
        (lambda: symbif.bif_a9(A9_SPEC, 10**400), "lambda0"),
        (lambda: symbif.lambda_set(A9_SPEC, (0, 10**400)), "window entry"),
    ],
    ids=["entries-up-to", "bif-a9", "lambda-set-window"],
)
def test_library_refuses_an_integer_too_large_for_a_float_by_its_digits(call, what):
    with pytest.raises(symbif.ValidationError) as exc:
        call()
    assert str(exc.value) == f"{what} is an integer of 401 digits, too large for a float"


@pytest.mark.parametrize(
    "read",
    [
        lambda: symbif.SO2Rep.from_json({"irr": {"1": 1, "01": 2}}),
        lambda: symbif.EulerSO2.from_json({"unit": 1, "cyclic": {"10": 1, "010": 4}}),
        lambda: symbif.EulerSO2.from_json({"unit": 1, "cyclic": {"10": 1, "1_0": 4}}),
        lambda: symbif.CustomDomain([symbif.SpectrumEntry(0.0, symbif.SO2Rep.trivial(1))], {"1": 2, "01": 4}),
    ],
    ids=["so2rep-irr", "euler-cyclic", "euler-cyclic-underscore", "custom-irr-dims"],
)
def test_keys_that_overwrite_a_label_are_a_schema_error(read):
    # "01" reads as the label 1; "1_0" is not decimal digits, though int() reads it as 10
    with pytest.raises(symbif.SchemaError):
        read()


def test_colliding_rep_labels_in_a_config_are_exit_1(config_path):
    doc = copy.deepcopy(BALL)
    doc["system"]["domain"]["entries"][2]["rep"] = {"trivial": 0, "irr": {"1": 1, "01": 2}}
    config_path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["analyze", "--config", str(config_path)])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("symbif: SchemaError: ") and "name the same label" in err.getvalue()
