"""Boundary fuzz: a malformed number or count in a config, or a malformed argv, is a package error, never a traceback.

Each example of the config fuzz takes one CLI run that works, replaces one
numeric or count field of its config with a hostile JSON value, and runs
``main([...])`` in process.  The argv fuzz draws a subcommand and flags, with
real numbers in many spellings and paths that are missing, directories or
files of the wrong kind.  A run must end in exit status 0, 1 or 2 (argparse
ends a usage error or ``--help`` in SystemExit with that status); any other
exception that escapes ``main`` (it maps every ``symbif.errors.Error`` to a
status) fails the example, and so does a run that outlives its deadline.
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
# a true 3-ball spectrum up to 40, as the build checks: degree l at each squared root of degree l
BALL = {
    "system": {
        **A9_DISK,
        "domain": {"type": "ball", "dim": 3, "entries": [e.to_json() for e in symbif.disk_spectrum(40.0, dim=3)]},
    },
    "window": [0, 21],
}
# the same ball, computed
COMPUTED_BALL = {"system": {**A9_DISK, "domain": {"type": "ball", "dim": 3}}, "window": [0, 21], "spectrum_bound": 40}
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
    *[(argv, COMPUTED_BALL, DOM + ("dim",)) for argv in (["analyze"], ["spectrum"])],
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
        lambda: symbif.radial_roots_up_to(True, 2, 3.0),
        lambda: symbif.check_glob(A9_SPEC, "abc"),
        lambda: symbif.bif_difference(PLAIN_SPEC, "abc"),
        lambda: symbif.bif_a9(A9_SPEC, "11.49"),
    ],
    ids=["radial-condition-bool", "radial-roots-bool", "check-glob-str", "bif-difference-str", "bif-a9-str"],
)
def test_library_refuses_bools_and_strings_as_numbers(call):
    with pytest.raises((symbif.DomainError, symbif.ValidationError)):
        call()


BIG = 10**5000  # 5,001 digits: str() and repr() of it raise ValueError


@pytest.mark.parametrize(
    "call",
    [
        lambda: symbif.radial_roots_up_to(-BIG, 2, 3.0),
        lambda: symbif.SO2Rep(-BIG),
        lambda: symbif.EulerSO2(0, {-BIG: 1}),
        lambda: symbif.EulerSO2(BIG).invert(),
        lambda: symbif.SystemSpec(p1=BIG, p2=0),
        lambda: symbif.SystemSpec(p1=1, p2=0, sigma_b1={0: 1}, mu_b0=BIG),
        lambda: symbif.OrbitDatum("Z1", -BIG),
        lambda: symbif.DiskDomain().first_entries(-BIG),
        lambda: symbif.kernel_reps(A9_SPEC, BIG),
    ],
    ids=[
        "radial-roots-index", "so2rep-trivial", "euler-label", "euler-invert",
        "spec-p1", "spec-mu-b0", "orbit-morse-index", "first-entries", "kernel-reps",
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


#: real numbers as a user may spell them on the command line; every finite one is at most 2,000 in size,
#: so no run asks for an eigenvalue above 2,000, and the infinite ones are refused before any evaluation
REAL_WORDS = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "-nan", "1e400", "-1e400", "abc", "", "1_0", "0x1p3", " 2", "+.5", "5."]),
    st.sampled_from(["-0", "1e-320", "2e3", "-2e3", "3.3899577166932745", "-3.3899577166932745", "20.1907285564"]),
    st.integers(-2000, 2000).map(str),
    st.integers(-200, 200).map(str),
    st.floats(-2000.0, 2000.0).map(repr),
    st.floats(-2000.0, 2000.0).map(lambda v: f"{v:e}"),
)
#: the words each flag may take: a list strategy, so a flag may also get too few or too many
FLAG_WORDS = {
    "--config": st.sampled_from(["disk.json", "ball.json", "custom.json", "missing.json", "folder", "orbits.json"]),
    "--window": st.one_of(st.lists(REAL_WORDS, min_size=2, max_size=2), st.lists(REAL_WORDS, min_size=1, max_size=3)),
    "--format": st.sampled_from(["table", "structured", "xml"]),
    "--max-eigenvalue": REAL_WORDS,
    "--cache": st.sampled_from(["roots.json", "garbage.json", "folder", "no-such-folder/roots.json"]),
    "--lambda": REAL_WORDS,
    "--indices": st.sampled_from(["indices.json", "disk.json", "missing.json", "folder"]),
    "--lambdas": st.lists(REAL_WORDS, max_size=4).map(",".join),
    "--enumerate": st.just([]),
    "--orbits": st.sampled_from(["orbits.json", "table.json", "missing.json", "folder"]),
    "--table": st.sampled_from(["table.json", "orbits.json", "missing.json", "folder"]),
    "--help": st.just([]),
    "--no-such-flag": st.just([]),
}
#: each subcommand and the flags it takes besides the common ones; most examples give the one it needs
#: (the first, or one of the three modes of rabinowitz)
OWN_FLAGS = {
    "spectrum": [],
    "lambda-set": [],
    "analyze": [],
    "bif": ["--lambda"],
    "rabinowitz": ["--indices", "--lambdas", "--enumerate"],
    "morse-degree": ["--orbits", "--table"],
}
COMMON_FLAGS = ["--config", "--window", "--format", "--max-eigenvalue", "--cache"]


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand, mostly a real one with a working config and the flag it needs, up to four more flags it
    takes, and rarely a stray flag."""
    roll = st.integers(0, 9)  # Hypothesis leans to 0, so the rare cases sit at 9
    command = draw(st.sampled_from(sorted(OWN_FLAGS))) if draw(roll) < 9 else "no-such-command"
    own = OWN_FLAGS.get(command, [])
    argv = [command]
    if draw(roll) < 8:
        argv += ["--config", draw(st.sampled_from(["disk.json", "ball.json", "custom.json"]))]
    flags = draw(st.lists(st.sampled_from(COMMON_FLAGS + own), max_size=4))
    if own and draw(roll) < 9:
        flags.insert(0, draw(st.sampled_from(own)) if command == "rabinowitz" else own[0])
    if command == "spectrum" and draw(roll) < 9:
        flags.insert(0, "--max-eigenvalue")
    if draw(roll) == 9:
        flags.append(draw(st.sampled_from(sorted(FLAG_WORDS))))
    for flag in flags:
        words = draw(FLAG_WORDS[flag])
        argv += [flag, *([words] if isinstance(words, str) else words)]
    return argv


@pytest.fixture(scope="module")
def argv_folder(tmp_path_factory):
    """A folder with the files the argv fuzz names; every other name in FLAG_WORDS is missing or a directory."""
    folder = tmp_path_factory.mktemp("argv")
    files = {
        "disk.json": DISK,
        "ball.json": BALL,
        "custom.json": CUSTOM,
        "indices.json": [{"unit": 1, "cyclic": {"1": -2}}, {"unit": 0, "cyclic": {}}],
        "orbits.json": [{"class": "Z2", "morse_index": 1}, {"class": "SO2", "morse_index": 0}],
        "table.json": {"Z2": "Z2", "SO2": "SO2"},
    }
    for name, doc in files.items():
        (folder / name).write_text(json.dumps(doc))
    (folder / "folder").mkdir()
    return folder


def test_every_argv_file_is_read(argv_folder, monkeypatch):
    # the files the fuzz names work: the runs below reach the handlers, not only the readers
    monkeypatch.chdir(argv_folder)
    for argv in (
        ["analyze", "--config", "ball.json"],
        ["rabinowitz", "--indices", "indices.json"],
        ["morse-degree", "--orbits", "orbits.json", "--table", "table.json"],
        ["spectrum", "--config", "disk.json", "--cache", "roots.json"],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 0, err.getvalue()


@settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True)
@given(argv=argvs())
def test_any_argv_ends_in_an_exit_status(argv_folder, deadline, argv):
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(argv_folder)
        (argv_folder / "garbage.json").write_bytes(b"\xff not a cache")
        with deadline(30, f"main({argv!r}) did not finish within 30 s"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: a usage error, or --help
                    code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), argv
