"""Byte-exact stdout of every subcommand, in both output formats, on fixed configs.

Each report is pinned by the sha256 of its stdout, so any change to a
handler's fields, its table text or the JSON envelope shows here; the
exit status is 0 and stderr is empty in every case.
"""

import hashlib
import json

import pytest

from symbif.cli import main

A9_DISK = {
    "system": {
        "p1": 3,
        "p2": 2,
        "b1": [{"value": 0, "mult": 1}, {"value": 1, "mult": 2}],
        "b2": [{"value": 1, "mult": 2}],
        "mu_b0": 1,
        "domain": {"type": "disk"},
        "a9": True,
    },
    "window": [-10.0, 15.0],
}

CUSTOM = {
    "system": {
        "p1": 1,
        "p2": 1,
        "b1": [{"value": 1, "mult": 1}],
        "b2": [{"value": 2, "mult": 1}],
        "domain": {
            "type": "custom",
            "irr_dims": {"4": 3},
            "entries": [
                {"eigenvalue": 0.0, "rep": {"trivial": 1}},
                {"eigenvalue": 2.5, "rep": {"trivial": 0, "rot": {"4": 2}}},
                {"eigenvalue": 4.0, "rep": {"trivial": 1}},
                {"eigenvalue": 9.0, "rep": {"trivial": 1, "irr": {"1": 1}}},
            ],
        },
    },
    "window": [-4.0, 8.0],
}

ORBITS = [{"class": "Z2", "morse_index": 1}, {"class": "SO2", "morse_index": 0}, {"class": "Z3", "morse_index": 2}]
TABLE = {"Z2": "G.Z2", "SO2": "G.SO2", "Z3": "G.Z3"}

#: j'_{1,1}^2, the first rotation eigenvalue of the disk
J11_SQUARED = "3.3899577166932745"

#: (config, argv) of each pinned run, before the format flag
RUNS = {
    "spectrum": (None, ["spectrum", "--max-eigenvalue", "30"]),
    "lambda-set-a9-disk": (A9_DISK, ["lambda-set"]),
    "lambda-set-custom": (CUSTOM, ["lambda-set"]),
    "analyze-a9-disk": (A9_DISK, ["analyze"]),
    "analyze-custom": (CUSTOM, ["analyze"]),
    "bif-j11": (A9_DISK, ["bif", "--lambda", J11_SQUARED]),
    "bif-zero": (A9_DISK, ["bif", "--lambda", "0"]),
    "rabinowitz-enumerate": (A9_DISK, ["rabinowitz", "--enumerate"]),
    "rabinowitz-lambdas": (A9_DISK, ["rabinowitz", "--lambdas", f"0,{J11_SQUARED},-{J11_SQUARED},9.328363214467453"]),
    "morse-degree": (None, ["morse-degree", "--orbits", "{orbits}"]),
    "morse-degree-table": (None, ["morse-degree", "--orbits", "{orbits}", "--table", "{table}"]),
}

#: sha256 of stdout, by run and format
GOLDEN = {
    ("spectrum", "table"): "69a9043446b2778e77a2e211915b1adcd6d89917e6203b01726cc2c09cd689bd",
    ("spectrum", "structured"): "0671c05f021893a58ffe951d844f87254a294cc54b55ef1e683e96a7eb7c7701",
    ("lambda-set-a9-disk", "table"): "2d501ea40fcaac91109c4864bc5eb95738d6216d134ac0114a82c1946d49a6d0",
    ("lambda-set-a9-disk", "structured"): "a7a2f726dcaa3f66f1bfac4e08be15c1aaa79cb7e6b2c9b47a83d5c5a96fc066",
    ("lambda-set-custom", "table"): "549621093af0897df781383cb1a4dd60532efb17e02471ba64e4f1d3b256c4a9",
    ("lambda-set-custom", "structured"): "2903ab938588668a2a5b93761357b35a6ceeb02b9a2f1fbf224660b79f7db537",
    ("analyze-a9-disk", "table"): "af7491d87f7fdb824b3f98fb4e6173d35becbd80a164d97235ad68cc768ec53b",
    ("analyze-a9-disk", "structured"): "a6af06797b835cc93ebba571243c119e8196115551d7da9157085d991d6a12b8",
    ("analyze-custom", "table"): "336f80ed7e9861a30328c2bfb59ef3b5488304f9f112d7e6038421ac03b0642d",
    ("analyze-custom", "structured"): "7ce4eb1b0242b934430930336c9b163cfed4743b5524e0912e727f06916d93ba",
    ("bif-j11", "table"): "9c15bd013d84119ae7b4046ea54f8c01d78805a95225ec3546952a6cdd2e78ec",
    ("bif-j11", "structured"): "5af3d28c300c7098995f9cd578171fbf8e6e66932649caeb960fc454ba0acc79",
    ("bif-zero", "table"): "3481e05f9415068f5a809f82783ad836f65aa063eda3b258926f2d5bb65219ea",
    ("bif-zero", "structured"): "572ff5556516b70ad9da6a9bd0367df88fc438d70c3fe418f7a38fa326055fa0",
    ("rabinowitz-enumerate", "table"): "fe105831cdf199cdf74758adf9fdf2aad150446fc0413afd83b97204cf0f10ea",
    ("rabinowitz-enumerate", "structured"): "30e9fa66f821c91a043560971851a9aeab86b8c52890f2e160b45f27a3fccc5c",
    ("rabinowitz-lambdas", "table"): "3dd0465c95662b8cf82a3602d8a2e54e2cb3d7fd6ed49c5a495e527399961c18",
    ("rabinowitz-lambdas", "structured"): "75f3ca293b30db4cedd18b13e4e11c5cac2752b0d333fcda3b5b44000e7bd1d8",
    ("morse-degree", "table"): "b3d8e5d0bdbf2cee502aefd25bb0bda80c241dba4c3883569fec56b091304ab7",
    ("morse-degree", "structured"): "656062b9832a0173ba1fec4c4348ac5e2bc7941e752b844700059ef8bc69d0c3",
    ("morse-degree-table", "table"): "aba30d17b5f4ebfe0765b16a6caa9759d7cd24b29f458928f4841f8e3ffed6a1",
    ("morse-degree-table", "structured"): "3ea8c1240190538948072d4404b6a0b1be259ae30f73c3647f98f47ac5f4a2c6",
}


@pytest.mark.parametrize("run, fmt", list(GOLDEN), ids=[f"{run}-{fmt}" for run, fmt in GOLDEN])
def test_stdout_is_byte_identical(capsys, tmp_path, run, fmt):
    config, argv = RUNS[run]
    files = {"orbits": tmp_path / "orbits.json", "table": tmp_path / "table.json"}
    files["orbits"].write_text(json.dumps(ORBITS))
    files["table"].write_text(json.dumps(TABLE))
    argv = [word.format(**files) for word in argv]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    argv += ["--format", fmt]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[run, fmt], out
