import functools
import gc
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import homlab
from homlab import cli
from homlab.cli import (EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, _to_csv, _to_json,
                        main)
from homlab.bs_core import BALANCED
from homlab.detector import LossConfig, lossy_distribution
from homlab.joint_dist import joint_general
from homlab.states import coherent, fock, thermal


class TestDispatch:
    def test_fock_fock(self):
        d = joint_general((fock(1), fock(1)), BALANCED)
        assert d.grid[1, 1] == 0.0

    def test_fock_pure_and_general_agree(self):
        d = joint_general((fock(1), coherent(1)), BALANCED)
        ref = joint_general((fock(1), coherent(1)), BALANCED, grid_max=d.grid_max)
        assert np.max(np.abs(d.grid - ref.grid)) < 1e-10

    def test_mixed_input(self):
        d = joint_general((thermal(1), coherent(1)), BALANCED)
        assert d.total_mass == pytest.approx(1.0, abs=1e-8)


class TestDistCommand:
    def test_vacuum(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = main(["dist", "--a", "fock:0", "--b", "fock:0",
                     "--bs", "1/2", "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["grid"] == [[1.0]]
        assert doc["meta"]["bs"] == {"T_num": 1, "T_den": 2}
        assert doc["total_mass"] == 1.0

    def test_zero_diagonal_grid(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(["dist", "--a", "fock:1", "--b", "coherent:beta=3",
                     "--bs", "1/2", "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        grid = np.array(doc["grid"])
        assert np.max(np.diag(grid)) < 1e-14
        assert doc["diagnostics"]["cnl_verdict"] is True

    def test_grid_max_clip(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(["dist", "--a", "fock:1", "--b", "coherent:beta=1",
                     "--bs", "1/2", "--grid-max", "5", "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert np.array(doc["grid"]).shape == (6, 6)

    def test_json_round_trip_bit_identical(self, tmp_path):
        out = tmp_path / "grid.json"
        main(["dist", "--a", "fock:1", "--b", "coherent:beta=1",
              "--bs", "theta=0.9", "-o", str(out)])
        doc = json.loads(out.read_text())
        d = joint_general((fock(1), coherent(1)),
                          __import__("homlab").BeamSplitterSetting.from_angle(0.9))
        assert doc["grid"] == [[float(v) for v in row] for row in d.grid]

    def test_csv_agrees_with_json(self, tmp_path):
        jout, cout = tmp_path / "g.json", tmp_path / "g.csv"
        args = ["dist", "--a", "fock:1", "--b", "coherent:beta=1", "--bs", "1/2"]
        main(args + ["-o", str(jout)])
        main(args + ["-o", str(cout), "--format", "csv"])
        doc = json.loads(jout.read_text())
        lines = cout.read_text().strip().splitlines()
        assert lines[0] == "m_a,m_b,P"
        for line in lines[1:]:
            m_a, m_b, p = line.split(",")
            assert float(p) == doc["grid"][int(m_a)][int(m_b)]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["dist", "--a", "oddcat:alpha=2", "--b", "thermal:nbar=1",
                "--bs", "1/2", "--grid-max", "12"]
        main(args + ["-o", str(a)])
        main(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_trace_deficit_warning_is_written(self, tmp_path):
        # coherent(3) cut at 4 photons keeps 5.5 % of its norm
        modes = ["--a", "fock:0", "--b", "coherent:beta=3", "--cutoff-b", "4"]
        for command, extra in (("dist", []), ("lossy", ["--eta-a", "0.9", "--eta-b", "0.9"])):
            out = tmp_path / f"{command}.json"
            assert main([command, *modes, *extra, "-o", str(out)]) == EXIT_OK
            warnings = json.loads(out.read_text())["diagnostics"]["warnings"]
            assert len(warnings) == 1 and "input trace deficit" in warnings[0]

    def test_no_warnings_is_empty_list(self, tmp_path):
        out = tmp_path / "grid.json"
        main(["dist", "--a", "fock:1", "--b", "fock:1", "-o", str(out)])
        assert json.loads(out.read_text())["diagnostics"]["warnings"] == []

    def test_automatic_cutoffs_do_not_warn(self, tmp_path):
        # each thermal:1 mode loses less than 1e-10, the pair about twice that;
        # a faint odd cat's renormalisation scales its tail by 1 / |alpha|^2
        out = tmp_path / "grid.json"
        small = ["--grid-max", "4"]
        for a, b, extra in (("thermal:nbar=1", "thermal:nbar=1", []),
                            ("oddcat:alpha=0.01", "fock:0", []), ("oddcat:alpha=0.3", "fock:0", []),
                            ("pasmss:r=0.1", "fock:0", small), ("pasmss:r=1", "fock:0", small),
                            ("pasmss:r=3", "fock:0", small), ("oddcat:alpha=3", "fock:0", small),
                            ("oddcat:alpha=5", "fock:0", small)):
            main(["dist", "--a", a, "--b", b, *extra, "-o", str(out)])
            assert json.loads(out.read_text())["diagnostics"]["warnings"] == [], a

    def test_bad_state_exits_2(self, capsys):
        assert main(["dist", "--a", "nonsense:1", "--b", "fock:0",
                     "--bs", "1/2"]) == EXIT_USAGE

    def test_bright_coherent_state(self, tmp_path):
        # the Poisson cutoff search used to start from exp(-745.29) = 0.0
        out = tmp_path / "g.json"
        assert main(["dist", "--a", "coherent:beta=27.3", "--b", "fock:0",
                     "--grid-max", "4", "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["meta"]["grid_max"] == 4

    def test_bad_grid_max_exits_3(self):
        assert main(["dist", "--a", "fock:2", "--b", "fock:3",
                     "--bs", "1/2", "--grid-max", "2"]) == EXIT_DOMAIN

    def test_non_normalised_state_exits_3(self, tmp_path):
        # amplitudes (1, 1) carry norm^2 = 2: the grid would hold mass 2
        state = tmp_path / "doubled.json"
        state.write_text(json.dumps({"type": "pure", "amplitudes": [[1, 0], [1, 0]]}))
        modes = ["--a", f"custom:file={state}", "--b", "fock:1"]
        assert main(["dist", *modes]) == EXIT_DOMAIN
        assert main(["lossy", *modes, "--eta-a", "0.9", "--eta-b", "0.9"]) == EXIT_DOMAIN

    def test_missing_custom_file_exits_4(self):
        assert main(["dist", "--a", "custom:file=/nonexistent.json",
                     "--b", "fock:0", "--bs", "1/2"]) == EXIT_IO


#: the ``dist`` and ``lossy`` jobs of the benchmark's ``grids`` and
#: ``lossy-io`` workloads at seed 1, their seeded phases, angles and
#: efficiencies written out, with the sha256 of each ``-o`` file.  The grids
#: with a coherent, cat or photon-added mode were re-pinned when their amplitudes
#: became sqrt(weight) e^(i phase): no cell moved by more than 1.1e-16.  The
#: JSON files were re-pinned when a grid row became one line; each parses to
#: the same bits as before.  The grids with a diagonal mode and a wide band
#: (pure_mixed, general, dist-thermal-thermal-10) were re-pinned when their
#: weights reached einsum as a contiguous real array: no cell moved by more
#: than 3.5e-18
PINNED_GRIDS = {
    "fs_pure": (["dist", "--a", "fock:1",
                 "--b", "coherent:beta=-0.67774177113931389+2.922441802953986j", "--bs", "1/2"],
                "f501b16e00a58a9458f3973818194b21b0bcf098c84cefc7cc1d6643554169eb"),
    "fs_mixed": (["dist", "--a", "fock:3", "--b", "thermal:nbar=4.0", "--bs", "1/2"],
                 "b690fcb5621d4de27764cd4ca586a3b639ad5b54db6a8ae84a59aba22fe0f27b"),
    "pure_pure-T1/2": (["dist", "--a", "coherent:beta=-1.3954275941874994-2.6557074065830535j",
                        "--b", "coherent:beta=-0.12895276703741362-2.997227249287814j",
                        "--bs", "1/2"],
                       "91ba524a4c83190b13fc1545d78bd122d0e3084ec4bdc0075cc82cb47b3f7213"),
    "pure_pure-theta": (["dist", "--a", "coherent:beta=-1.3954275941874994-2.6557074065830535j",
                         "--b", "coherent:beta=-0.12895276703741362-2.997227249287814j",
                         "--bs", "theta=1.0913238655534787"],
                        "8ec7b55aed6f130002663adef04a4c9af0d23295278a77db889912dd5a4e00a1"),
    "pure_mixed": (["dist", "--a", "oddcat:alpha=1.8701356086698417+0.70893780064620682j",
                    "--b", "thermal:nbar=1.0", "--bs", "1/2"],
                   "0459db8615014919872bef476512daa319e86b80fc88a9ee96910a6e95ba1a23"),
    "general": (["dist", "--a", "thermal:nbar=1.0", "--b", "thermal:nbar=1.0", "--bs", "1/2"],
                "bb46ee6885ed3af9f4234de325bee1ee033c915df909f3f805c4bb97e95629cd"),
    "pure_pure-T3/4": (["dist", "--a", "pasmss:r=0.5",
                        "--b", "coherent:beta=0.71421990865528018-1.8681247073149168j",
                        "--bs", "3/4"],
                       "a32fdc2dd596d612ba8e0d3f10367ba626ad86720b0c376d61c1c6f0e065c052"),
    "fs_fs": (["dist", "--a", "fock:10", "--b", "fock:10", "--bs", "1/2"],
              "a198ea5d8efccdeb34981f9aaa41192a51f63fc2bfe90cdf282eb18bc8d410b3"),
    "lossy-fock-coherent-500": (
        ["lossy", "--a", "fock:1", "--b", "coherent:beta=-2.0791310227770952+2.1626867988975822j",
         "--bs", "1/2", "--grid-max", "500",
         "--eta-a", "0.8634728013840465", "--eta-b", "0.809275295085482"],
        "d9f65b2cbff4589d3defe5737a4ea9faa1aef7299ca2ffc73d00dbef037a47f0"),
    "lossy-fock-thermal-400-csv": (
        ["lossy", "--a", "fock:1", "--b", "thermal:nbar=1.0", "--bs", "1/2", "--grid-max", "400",
         "--eta-a", "0.9495491338728442", "--eta-b", "0.7134431984535361", "--format", "csv"],
        "830b03cf2365a72726a120db392910e8c0c5bfe2121dc12d8f8b6364cf1d9397"),
    "lossy-coherent-theta-300": (
        ["lossy", "--a", "coherent:beta=1.4300339872746184-1.3982141449861878j",
         "--b", "coherent:beta=0.51327509184104569+0.85822414327235408j",
         "--bs", "theta=1.0870717421235392", "--grid-max", "300",
         "--eta-a", "0.7532733178523499", "--eta-b", "0.8892423910954655"],
        "7f02034cad6d61d07c1d6bd2d40b37c455e7c5014780d6bbe8767de5c0eb2f0e"),
    # bright pairs on small grids: thermal:nbar=100 is 2315 weights
    "dist-thermal-thermal-10": (
        ["dist", "--a", "thermal:nbar=100", "--b", "thermal:nbar=100", "--grid-max", "10"],
        "bf51adba2da93a1be7eb1ab09bff11b43921b817bf0cd1b72c91b00208f0c06d"),
    # a crop below the input's support of 34: the loss acts on every latent count
    "lossy-fock-thermal-crop-10": (
        ["lossy", "--a", "fock:1", "--b", "thermal:nbar=1", "--grid-max", "10",
         "--eta-a", "0.95", "--eta-b", "0.9"],
        "2b68f8914d70a05c2fb7ed257a839080c9ffdac9b922b5e00a95bd483e17a76c"),
}


class TestPinnedGrids:
    """Every bit of the benchmark's grid files: an engine or writer change
    that moves one bit of one cell fails here."""

    @pytest.mark.parametrize("argv, digest", PINNED_GRIDS.values(), ids=PINNED_GRIDS)
    def test_file_bytes(self, tmp_path, argv, digest):
        out = tmp_path / "grid"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        # --bs has a default, --a has none: an explicit flag wins over both
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": "fock:2", "b": "fock:0", "bs": "3/4"}))
        out = tmp_path / "grid.json"
        code = main(["dist", "--config", str(cfg), "--a", "fock:1", "--bs", "1/2",
                     "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["meta"]["state_a"] == "fock:1"
        assert doc["meta"]["state_b"] == "fock:0"
        assert doc["meta"]["bs"] == {"T_num": 1, "T_den": 2}

    def test_missing_config_exits_4(self):
        assert main(["dist", "--config", "/no/such/file.json",
                     "--a", "fock:0", "--b", "fock:0"]) == EXIT_IO

    def test_config_that_is_not_text_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: --config: invalid JSON in {cfg}: ")

    def test_values_convert_like_flags(self, tmp_path):
        # "6" is the text --grid-max 6 would give, so it becomes the int 6
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": "fock:1", "b": "coherent:beta=1",
                                   "grid-max": "6", "eta_a": 0.5}))
        out = tmp_path / "grid.json"
        assert main(["dist", "--config", str(cfg), "-o", str(out)]) == EXIT_OK
        meta = json.loads(out.read_text())["meta"]
        assert meta["grid_max"] == 6
        assert meta["eta_a"] is None  # not a flag of dist, so ignored

    def test_file_sets_flags_that_have_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": "fock:1", "b": "fock:1", "bs": "3/4",
                                   "format": "csv"}))
        out = tmp_path / "grid.csv"
        assert main(["dist", "--config", str(cfg), "-o", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "m_a,m_b,P"
        # (T - R)^2 = 1/4 at T = 3/4; T = 1/2 would give 0
        p11 = next(float(r.split(",")[2]) for r in rows[1:] if r.startswith("1,1,"))
        assert p11 == pytest.approx(0.25, abs=1e-12)
        cfg.write_text(json.dumps({"degree": 3, "coeff-min": -1, "coeff-max": 1}))
        out = tmp_path / "p.json"
        assert main(["parametric", "--config", str(cfg), "--n", "2", "--T", "1/2",
                     "-o", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert (doc["degree"], doc["coeff_range"]) == (3, [-1, 1])


class TestLossyCommand:
    def test_runs(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["lossy", "--a", "fock:1", "--b", "coherent:beta=1",
                     "--bs", "1/2", "--eta-a", "0.95", "--eta-b", "0.95",
                     "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["meta"]["eta_a"] == 0.95
        grid = np.array(doc["grid"])
        assert np.min(np.diag(grid)[:4]) > 0.0

    def test_bad_eta_exits_3(self):
        assert main(["lossy", "--a", "fock:1", "--b", "fock:1", "--bs", "1/2",
                     "--eta-a", "1.5", "--eta-b", "1.0"]) == EXIT_DOMAIN

    def test_grid_max_below_the_fewest_photons(self, tmp_path):
        # loss lowers counts: five photons in, and all five lost with
        # probability 0.1^5, whatever the splitter did
        out = tmp_path / "g.json"
        assert main(["lossy", "--a", "fock:2", "--b", "fock:3", "--grid-max", "2",
                     "--eta-a", "0.9", "--eta-b", "0.9", "-o", str(out)]) == EXIT_OK
        grid = json.loads(out.read_text())["grid"]
        assert len(grid) == 3 and grid[0][0] == pytest.approx(1e-5, rel=1e-12)

    @pytest.mark.parametrize("command", ["dist", "lossy"])
    def test_grid_max_only_crops(self, tmp_path, command):
        # the input's support is 34: every latent count above a crop still
        # reaches the lossy detectors, so each cell is that of the full grid
        argv = [command, "--a", "fock:1", "--b", "thermal:nbar=1"]
        if command == "lossy":
            argv += ["--eta-a", "0.95", "--eta-b", "0.9"]
        out = tmp_path / "g.json"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        full = np.array(json.loads(out.read_text())["grid"])
        assert full.shape == (35, 35)
        for g in (10, 20, 33):
            assert main([*argv, "--grid-max", str(g), "-o", str(out)]) == EXIT_OK
            crop, want = np.array(json.loads(out.read_text())["grid"]), full[:g + 1, :g + 1]
            assert crop.shape == want.shape
            if command == "dist":
                assert np.array_equal(crop.view(np.int64), want.view(np.int64)), g
            else:
                assert np.all(np.abs(crop - want) <= 1e-12 * np.abs(want)), g

    def test_grid_above_1030(self, tmp_path):
        # C(M, m) overflows a float above M ~ 1030; the recurrence never forms it
        out, ref = tmp_path / "g.json", tmp_path / "ref.json"
        states = ["--a", "fock:1", "--b", "coherent:beta=3", "--grid-max", "1100"]
        assert main(["lossy", *states, "--eta-a", "0.9", "--eta-b", "0.8",
                     "-o", str(out)]) == EXIT_OK
        assert main(["dist", *states, "-o", str(ref)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["grid"]) == 1101
        # loss moves mass within the grid and loses none
        assert doc["total_mass"] == pytest.approx(
            json.loads(ref.read_text())["total_mass"], abs=1e-12)


def _json_layout(doc) -> str:
    """``doc`` in the writer's layout, built from json.dumps of each element
    alone: one line per top-level item and per element of a top-level list
    (a grid array as the list of its rows)."""
    items = []
    for key, value in doc.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            elements = value.tolist() if isinstance(value, np.ndarray) else value
            text = ("[" + ",".join(f"\n    {json.dumps(v)}" for v in elements)
                    + ("\n  ]" if len(elements) else "]"))
        else:
            text = json.dumps(value)
        items.append(f"\n  {json.dumps(key)}: {text}")
    return "{" + ",".join(items) + ("\n}\n" if items else "}\n")


def _bits(value):
    """A parsed JSON value with each float as its bits and each scalar tagged
    with its type, so that == tells -0.0 from 0.0 and 1 from 1.0."""
    if isinstance(value, dict):
        return [(key, _bits(v)) for key, v in value.items()]
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if type(value) is float:
        return struct.pack("<d", value)
    return type(value).__name__, value


def _assert_json(doc) -> None:
    """The writer's text of ``doc`` is its layout built from json.dumps, and
    reads back as json.dumps(doc) does, bit for bit."""
    text = "".join(_to_json(doc))
    assert text == _json_layout(doc)
    assert _bits(json.loads(text)) == _bits(json.loads(json.dumps(doc, default=np.ndarray.tolist)))


class TestJsonWriter:
    """Every value is json.dumps text, one line per top-level item and per
    element of a top-level list, and the document reads back unchanged."""

    @pytest.mark.parametrize("doc", [
        {"meta": {"state_a": '"grid": null', "eta_a": None, "bs": {}},
         "grid": [[0.0]], "total_mass": 1.0},
        {"meta": {"note": '{"grid": [[1.0]]},\n\t"x": "\u00e9"', "tags": []},
         "grid": [[0.0, 1.0, 5e-324], [2.2250738585072014e-308, 0.1, 1 / 3],
                  [1e-300, 123456789.0, 0.5]],
         "total_mass": 0.9999999999999999,
         "diagnostics": {"warnings": ["w"], "cnl_verdict": True}},
        {"grid": np.random.default_rng(4).random((9, 7)).tolist()},
        {"grid": []},
        {"grid": [[], []]},
        {"meta": {"command": "zeros"}, "zeros": [{"m_a": 1, "m_b": 0}]},
        {"rows": [], "all_valid": True, "label": "grid"},
        {},
        {"pair": (1, -2, (3, (4,))), "none": (), "rows": ({"a": (0, 1)}, [2])},
        {"x": [math.nan, math.inf, -math.inf], "nan": math.nan, "grid": [], "inf": -math.inf},
        {"p": np.float64(0.5), "q": [np.float64(1 / 3), np.float64(-0.0)], "r": 1e300 * 10},
        {"ints": [1, True, 2, False, -0], "flags": [True], "big": [10 ** 30, -(10 ** 20)]},
        {"a": {"b": {}, "c": [], "d": [[], {}, [[]], [{}]]}, "e": [{}, {"f": {}}]},
        {"s": "caf\u00e9 \u2603 \U0001f600 \x00\x1f\x7f\t\n\r\"\\/",
         "\u00e9\n\"key\"": ["\u2028", "", " "], "grid": [[0.5]], "after": "\x08"},
        {"mixed": [1, 2.5, "3", None, True, [4], {"five": 5}], "float_int": [1.0, 2]},
    ])
    def test_matches_json_dumps(self, doc):
        _assert_json(doc)

    @pytest.mark.parametrize("argv", [
        ["parametric", "--n", "3", "--T", "1/2", "--coeff-min", "-2", "--coeff-max", "2"],
        ["parametric", "--n", "3", "--T", "3/4", "--coeff-min", "-2", "--coeff-max", "2"],
        ["zeros", "--n", "3", "--T", "3/4", "--max", "200"],
        ["zeros", "--n", "2", "--T", "1/2", "--max", "0"],
        ["verify", "--tables", "all"],
        ["herald", "--t", "2", "--eta", "0.87", "--r", "1.5"],
        ["dicke", "--j-max", "6"]],
        ids=["parametric", "parametric-empty", "zeros", "zeros-empty", "verify", "herald",
             "dicke"])
    def test_command_documents_match_json_dumps(self, tmp_path, monkeypatch, argv):
        # the documents as the commands build them, before any JSON round trip
        docs = []
        monkeypatch.setattr(cli, "_emit", lambda doc, path, fmt: docs.append(doc))
        main([*argv, "-o", str(tmp_path / "out.json")])
        assert len(docs) == 1
        _assert_json(docs[0])

    def test_cli_grid_file(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["lossy", "--a", "fock:1", "--b", "coherent:beta=2",
                     "--eta-a", "0.9", "--eta-b", "0.8", "-o", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text == _json_layout(json.loads(text))


def _csv_reference(grid) -> str:
    """The grid CSV, cell by cell."""
    lines = ["m_a,m_b,P"] + [f"{m_a},{m_b},{float(v):.17g}"
                             for m_a, row in enumerate(grid) for m_b, v in enumerate(row)]
    return "\n".join(lines) + "\n"


class TestGridWriters:
    """The writers format each row up to its last entry that is not +0.0 and
    emit the rest from a precomputed zero tail; every byte must stay that of
    json.dumps(row) per row and of the per-cell CSV writer."""

    GRIDS = {
        "signed-zeros-and-tiny": [[0.5, -0.0, 0.0, 0.0], [0.0, 0.0, 5e-324, 0.0],
                                  [-1e-15, 0.0, 0.0, 0.0], [0.25, 0.0, 0.0, -0.0]],
        "zero-rows-and-tails": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0],
                                [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]],
        "last-column": [[0.0, 0.0, 0.2], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "last-row": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.7]],
        "all-zero": [[0.0, 0.0], [0.0, 0.0]],
        "non-square": [[0.1, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1 / 3, 0.0, 0.0]],
        "empty": [],
        "random": np.where(np.random.default_rng(7).random((11, 9)) < 0.5, 0.0,
                           np.random.default_rng(8).random((11, 9))).tolist(),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_lists_match_per_cell_writers(self, name):
        grid = self.GRIDS[name]
        assert _bits(json.loads(_json_layout({"grid": grid}))) == _bits({"grid": grid})
        _assert_json({"grid": grid})
        assert "".join(_to_csv({"grid": grid})) == _csv_reference(grid)

    @pytest.mark.parametrize("name", [n for n in GRIDS if n != "empty"])
    def test_arrays_match_per_cell_writers(self, name):
        grid = np.array(self.GRIDS[name])
        _assert_json({"grid": grid})
        assert "".join(_to_csv({"grid": grid})) == _csv_reference(grid)

    def test_padded_lossy_grid(self):
        dist = lossy_distribution(joint_general((fock(1), coherent(1.5)), BALANCED,
                                                grid_max=60), LossConfig(0.9, 0.8))
        grid = dist.grid
        assert grid[-1].sum() == 0.0 and grid[0, 1] > 0.0
        _assert_json({"grid": grid})
        assert "".join(_to_csv({"grid": grid})) == _csv_reference(grid)


class TestZerosCommand:
    def test_seven_pairs(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        code = main(["zeros", "--n", "3", "--T", "3/4", "--max", "200",
                     "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        pairs = {(z["m_a"], z["m_b"]) for z in doc["zeros"]}
        assert pairs == {(1, 0), (1, 1), (1, 11), (2, 0), (3, 1), (11, 55),
                         (70, 162)}

    def test_csv(self, tmp_path):
        out = tmp_path / "z.csv"
        main(["zeros", "--n", "3", "--T", "3/4", "--max", "20",
              "-o", str(out), "--format", "csv"])
        assert out.read_text().splitlines()[0] == "m_a,m_b,physical"

    def test_negative_n_exits_2(self, tmp_path):
        # for n = -1 the sum defining g is empty, so every pair would read as a zero
        out = tmp_path / "z.json"
        assert main(["zeros", "--n", "-1", "--T", "1/2", "--max", "3",
                     "-o", str(out)]) == EXIT_USAGE
        assert not out.exists()


class TestParametricCommand:
    def test_negative_search(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(["parametric", "--n", "3", "--T", "3/4", "--degree", "2",
                     "--coeff-min", "-4", "--coeff-max", "4", "-o", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["solutions"] == []

    def test_positive_search(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(["parametric", "--n", "2", "--T", "1/2", "--degree", "2",
                     "--coeff-min", "-3", "--coeff-max", "3", "-o", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["solutions"]

    def test_negative_n_exits_2(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["parametric", "--n", "-1", "--T", "1/2", "--coeff-min", "-1",
                     "--coeff-max", "1", "-o", str(out)]) == EXIT_USAGE
        assert not out.exists()


class TestHeraldCommand:
    def test_prints_posterior(self, capsys):
        code = main(["herald", "--t", "2", "--eta", "0.87", "--r", "1.5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.71" in out

    def test_json_output(self, tmp_path):
        out = tmp_path / "h.json"
        main(["herald", "--t", "3", "--eta", "0.87", "--r", "1.5",
              "-o", str(out)])
        doc = json.loads(out.read_text())
        assert doc["posterior"] == pytest.approx(0.6373, abs=1e-3)
        assert doc["squeezing_db"] == pytest.approx(-13.0, abs=0.1)

    def test_underflowing_first_term_exits_0(self, capsys):
        # w_t = (eta tanh^2 r)^t / cosh^2 r underflows to 0 at this count, and
        # the posterior (1 - 0.5 tanh^2 0.5)^401 is 2.2e-20
        assert main(["herald", "--t", "400", "--eta", "0.5", "--r", "0.5"]) == EXIT_OK
        assert "= 0.0000" in capsys.readouterr().out

    def test_slowly_converging_source_matches_closed_form(self, tmp_path):
        # [DERIVED] P(t=0) = sech^2 r / (1 - q) and P(n'=0 | t=0) = 1 - q, with
        # q = (1-eta) tanh^2 r = 0.9898: a series cut at n = 400 misses q^401,
        # 1.7 % of the evidence
        out = tmp_path / "h.json"
        assert main(["herald", "--t", "0", "--eta", "0.01", "--r", "5", "-o", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        sech2 = 1.0 / math.cosh(5.0) ** 2
        q_bar = 0.01 * math.tanh(5.0) ** 2 + sech2
        assert doc["detection_prob"] == pytest.approx(sech2 / q_bar, rel=1e-12, abs=0.0)
        assert doc["posterior"] == pytest.approx(q_bar, rel=1e-12, abs=0.0)

    def test_count_beyond_any_fixed_source_cutoff_exits_0(self, capsys):
        # 0.802^501 = 1e-48: at r = 3 the 500 registered photons almost surely
        # came from more pairs
        assert main(["herald", "--t", "500", "--eta", "0.8", "--r", "3"]) == EXIT_OK
        assert "P(n'=500 | t=500) = 0.0000" in capsys.readouterr().out


class TestDickeCommand:
    def test_sweep(self, tmp_path):
        out = tmp_path / "d.json"
        code = main(["dicke", "--j-max", "5", "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        probs = {row["J"]: row["P_central"] for row in doc["sweep"]}
        assert probs[1] == 0.0 and probs[3] == 0.0 and probs[5] == 0.0


class TestVerifyCommand:
    def test_all_tables(self, capsys):
        assert main(["verify", "--tables", "all"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("[ok]") == 17

    def test_unknown_tables_exits_2(self, capsys):
        assert main(["verify", "--tables", "bogus"]) == EXIT_USAGE


def _run_python(args, check=True):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


GRID = ["--a", "fock:1", "--b", "coherent:beta=1"]
ETAS = ["--eta-a", "0.9", "--eta-b", "0.9"]


class TestExitCodes:
    """Malformed input ends in one ``error:`` line and the documented exit
    code, never a traceback.  ``{config}`` stands for a file holding the
    row's JSON text, as a config file or as a custom state file.  A row's
    code may come with the start of its error line, ``(code, start)``."""

    @pytest.mark.parametrize("argv, config, code", [
        (["dist", "--a", "super:1,-1", "--b", "fock:0"], None, EXIT_USAGE),
        (["dist", *GRID, "--cutoff-b", "-1"], None, EXIT_USAGE),
        (["dist", "--a", "thermal:nbar=1", "--b", "fock:0", "--cutoff-a", "-1"],
         None, EXIT_USAGE),
        (["lossy", *GRID, *ETAS, "--cutoff-a", "-2"], None, EXIT_USAGE),
        (["dist", "--bs", "1/0", *GRID], None, EXIT_USAGE),
        (["dist", "--config", "{config}"], '["fock:1", "fock:0"]', EXIT_USAGE),
        (["dist", "--config", "{config}"],
         '{"a": "fock:1", "b": "fock:0", "grid-max": "six"}', EXIT_USAGE),
        (["zeros", "--n", "3", "--T", "3/2", "--max", "5"], None, EXIT_USAGE),
        (["zeros", "--n", "-1", "--T", "1/2", "--max", "3"], None, EXIT_USAGE),
        (["parametric", "--n", "3", "--T", "3/2", "--coeff-min", "-1",
          "--coeff-max", "1"], None, EXIT_USAGE),
        (["parametric", "--n", "2", "--T=-1/2"], None, EXIT_USAGE),
        (["parametric", "--n", "2", "--T", "1/0"], None, EXIT_USAGE),
        (["verify", "--tables", "bogus"], None, EXIT_USAGE),
        (["verify", "--tables", "appendix-c"], None, EXIT_USAGE),
        (["dicke", "--j-max", "3", "--bs", "3/2"], None, EXIT_USAGE),
        (["dist", "--config", "{config}"],
         '{"a": "fock:1", "b": "fock:0", "format": "xml"}', EXIT_USAGE),
        (["parametric", "--config", "{config}", "--n", "2", "--T", "1/2"],
         '{"degree": "two"}', EXIT_USAGE),
        (["dist", "--a", "custom:file={config}", "--b", "fock:0"], '[[1, 0]]', EXIT_USAGE),
        (["dist", "--a", "custom:file={config}", "--b", "fock:0"],
         '{"type": "pure", "amplitudes": [1, 0]}', EXIT_USAGE),
        (["dist", "--a", "custom:file={config}", "--b", "fock:0"],
         '{"type": "pure", "amplitudes": [["one", 0]]}', EXIT_USAGE),
        (["dist", "--a", "fock:0", "--b", "custom:file={config}"],
         '{"type": "mixed", "rho": [[[1, 0]], 0]}', EXIT_USAGE),
        (["zeros", "--n", "2", "--T", "1/2", "--max", "-1"], None, EXIT_USAGE),
        (["dicke", "--j-max", "-1"], None, EXIT_USAGE),
        (["dist", "--a", "coherent:beta=nan", "--b", "fock:0"], None, EXIT_USAGE),
        (["lossy", "--a", "fock:1", "--b", "coherent:beta=-inf", *ETAS], None, EXIT_USAGE),
        (["zeros", "--n", "3", "--T", "1/0", "--max", "5"], None, EXIT_USAGE),
        (["zeros", "--n", "3", "--T", "half", "--max", "5"], None, EXIT_USAGE),
        (["dicke", "--j-max", "3", "--bs", "1/0"], None, EXIT_USAGE),
        (["dist", "--a", "coherent:beta=1e200", "--b", "fock:0"], None, EXIT_USAGE),
        (["dist", "--a", "oddcat:alpha=1e200", "--b", "fock:0"], None, EXIT_USAGE),
        (["dist", "--a", "pasmss:r=1e6", "--b", "fock:0"], None, EXIT_USAGE),
        (["dist", "--a", "thermal:nbar=1e308", "--b", "fock:0"], None, EXIT_USAGE),
        (["lossy", "--a", "fock:1", "--b", "thermal:nbar=1e12", *ETAS], None, EXIT_USAGE),
        (["herald", "--t", "2", "--eta", "0.87", "--r", "inf"], None, EXIT_DOMAIN),
        (["herald", "--t", "2", "--eta", "0.87", "--r", "nan"], None, EXIT_DOMAIN),
        (["herald", "--t", "2", "--eta", "0.87", "--r", "400"], None, EXIT_DOMAIN),
        (["dist", "--a", "fock:-1", "--b", "fock:1"], None, EXIT_USAGE),
        (["dist", "--a", "fock:n=3", "--b", "fock:1"], None, EXIT_USAGE),
        (["dist", "--a", "thermal:nbar=nan", "--b", "fock:0", "--cutoff-a", "5"], None, EXIT_USAGE),
        # an 82170^2 grid, over the budget: refused before it is allocated
        (["dist", "--a", "pasmss:r=4.4", "--b", "fock:0"], None, EXIT_DOMAIN),
        # an 11585^2 grid within the budget, whose 11585^2 amplitude block, 7 times over, is not
        (["dist", "--a", "thermal:nbar=600", "--b", "thermal:nbar=600", "--grid-max", "11584"],
         None, EXIT_DOMAIN),
        # a pure mode beside a dense rho: refused with no 91916^2 outer product built
        (["dist", "--a", "coherent:beta=300", "--b", "custom:file={config}", "--grid-max", "100"],
         '{"type": "mixed", "rho": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}', EXIT_DOMAIN),
        # lossy thins every latent count: a 23038^2 latent grid is over the
        # budget, however small the written one, and the error says so
        (["lossy", "--a", "thermal:nbar=1000", "--b", "fock:0", "--grid-max", "10", *ETAS],
         None, (EXIT_DOMAIN, "error: latent grid before loss: grid_max=23037 needs ")),
        # an output grid over the budget, however small the latent one
        (["lossy", "--a", "fock:1", "--b", "fock:0", "--grid-max", "11585", *ETAS],
         None, EXIT_DOMAIN),
        (["lossy", *GRID, *ETAS, "--grid-max", "-1"], None, EXIT_DOMAIN),
        (["lossy", *GRID, *ETAS, "--grid-max", "-5"], None, EXIT_DOMAIN),
        # a photon number or cutoff above MAX_CUTOFF, refused before any array exists
        (["dist", "--a", "fock:100001", "--b", "fock:0", "--grid-max", "3"], None, EXIT_USAGE),
        (["dist", "--a", "super:1,100001", "--b", "fock:0", "--grid-max", "3"], None, EXIT_USAGE),
        (["dist", "--a", "fock:1", "--b", "thermal:nbar=1", "--cutoff-b", "100001"],
         None, EXIT_USAGE),
        # 2J and n' above MAX_CUTOFF, whose work grows without a grid to bound it
        (["dicke", "--j-max", "50001"], None, (EXIT_USAGE, "error: j_max=50001: 2J=100002 ")),
        (["herald", "--t", "1", "--eta", "0.5", "--r", "1", "--n-prime", "100001"],
         None, (EXIT_DOMAIN, "error: n_prime=100001 exceeds ")),
        (["herald", "--t", "100001", "--eta", "0.5", "--r", "1"], None, EXIT_DOMAIN),
        # no pair at r = 0, so no count t > 0 to condition on, as at eta = 0
        (["herald", "--t", "3", "--eta", "1", "--r", "0"],
         None, (EXIT_DOMAIN, "error: with r = 0 only t = 0 is observable")),
        (["herald", "--t", "3", "--eta", "0", "--r", "3"],
         None, (EXIT_DOMAIN, "error: with eta = 0 only t = 0 is observable")),
    ])
    def test_exit_code(self, tmp_path, argv, config, code):
        code, start = code if isinstance(code, tuple) else (code, "error: ")
        cfg = tmp_path / "run.json"
        if config is not None:
            cfg.write_text(config)
        argv = [arg.replace("{config}", str(cfg)) for arg in argv]
        out = tmp_path / "out.json"
        proc = _run_python(["-m", "homlab.cli", *argv, "-o", str(out)], check=False)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(start), proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["zeros", "--n", "3", "--max", "5"],
                                      ["parametric", "--n", "2"]])
    def test_zero_denominator_names_the_flag(self, argv):
        proc = _run_python(["-m", "homlab.cli", *argv, "--T", "1/0"], check=False)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: --T 1/0: the denominator is 0\n"

    @pytest.mark.parametrize("argv, code", [(["dist", *GRID], EXIT_USAGE),
                                            (["dicke", "--j-max", "3"], EXIT_USAGE)])
    def test_zero_splitter_denominator_names_the_flag(self, argv, code):
        proc = _run_python(["-m", "homlab.cli", *argv, "--bs", "1/0"], check=False)
        assert proc.returncode == code
        assert proc.stderr == "error: --bs 1/0: the denominator is 0\n"


class TestCommandTable:
    """The parser is built from ``cli.COMMANDS``, with the flags of the named
    command only; its help texts are those of the parser that built all seven
    commands (``tests/cli_help.txt``, one ``=== <command>`` block each)."""

    COMMANDS = ["dist", "lossy", "zeros", "parametric", "herald", "dicke", "verify"]

    @staticmethod
    @functools.cache
    def _pinned():
        with open(os.path.join(os.path.dirname(__file__), "cli_help.txt")) as fh:
            return dict(block.split("\n", 1) for block in fh.read().split("=== ")[1:])

    @pytest.mark.parametrize("command", ["", *COMMANDS])
    def test_help_text_is_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out == self._pinned()[command]

    def test_only_the_named_command_has_flags(self):
        parser = cli.build_parser(["zeros", "--n", "3"])
        subs = next(a for a in parser._actions if a.dest == "command").choices
        flags = {name: [a.dest for a in sub._actions] for name, sub in subs.items()}
        assert list(flags) == self.COMMANDS
        assert flags.pop("zeros") == ["help", "n", "T", "max", "config", "output", "format"]
        assert all(dests == ["help"] for dests in flags.values()), flags

    def test_bad_eta_fails_before_the_grid(self, monkeypatch, capsys):
        import homlab.joint_dist
        monkeypatch.setattr(homlab.joint_dist, "joint_general",
                            lambda *args, **kwargs: pytest.fail("grid computed"))
        assert main(["lossy", *GRID, "--eta-a", "1.5", "--eta-b", "0.9"]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: efficiency must lie in [0, 1]\n"


class TestOutputFile:
    WRITE = ("import os, stat, sys; os.umask(int(sys.argv[2], 8)); "
             "from homlab.cli import main; "
             "code = main(['herald', '--t', '2', '--eta', '0.87', '--r', '1.5', "
             "'-o', sys.argv[1]]); "
             "print(code, oct(stat.S_IMODE(os.stat(sys.argv[1]).st_mode)))")

    @pytest.mark.parametrize("umask, mode", [("022", "0o644"), ("077", "0o600")])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        out = tmp_path / "h.json"
        last = _run_python(["-c", self.WRITE, str(out), umask]).stdout.splitlines()[-1]
        assert last.split() == ["0", mode]

    def test_replaces_existing_file_and_leaves_no_temporary(self, tmp_path):
        out = tmp_path / "h.json"
        out.write_text("old")
        assert main(["herald", "--t", "2", "--eta", "0.87", "--r", "1.5",
                     "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["t"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["h.json"]


class TestStreamedWriter:
    """``_emit`` writes a document as it is rendered, one grid row at a time,
    so its memory is one row's text, and a failure leaves no partial file."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_memory_is_one_row(self, tmp_path, fmt):
        # 2000 x 2000 cells with a zero tail after 100 columns: over 20 MB
        grid = np.zeros((2000, 2000))
        grid[:, :100] = np.random.default_rng(5).random((2000, 100))
        out = tmp_path / f"g.{fmt}"
        tracemalloc.start()
        try:
            cli._emit({"grid": grid, "total_mass": 1.0}, str(out), fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 20_000_000
        assert peak < 2_000_000

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "g.json"
        out.write_text("old")
        rows = cli._to_json

        def broken(document):
            # more than a write buffer reaches the temporary file first
            yield from itertools.islice(rows(document), 50)
            raise RuntimeError("renderer failed")

        monkeypatch.setattr(cli, "_to_json", broken)
        with pytest.raises(RuntimeError):
            cli._emit({"grid": np.full((200, 200), 0.1)}, str(out), "json")
        assert out.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    def test_no_csv_rendering_writes_nothing(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            cli._emit({"rows": []}, None, "csv")
        assert capsys.readouterr().out == ""
        with pytest.raises(ValueError):
            cli._emit({"rows": []}, str(tmp_path / "r.csv"), "csv")
        assert list(tmp_path.iterdir()) == []

    # each command with what it prints beside an -o file; without -o its
    # stdout is the document alone
    LOSSY = ["lossy", "--a", "fock:1", "--b", "coherent:beta=2", "--grid-max", "40", *ETAS]

    @pytest.mark.parametrize("argv, printed", [
        ([*LOSSY, "--format", "json"], ""),
        ([*LOSSY, "--format", "csv"], ""),
        (["parametric", "--n", "2", "--T", "1/2", "--coeff-min", "-3", "--coeff-max", "3"],
         "2 parametric solution(s) found\n"),
        (["zeros", "--n", "3", "--T", "3/4", "--max", "200"],
         "(1, 0)\n(1, 1)\n(1, 11)\n(2, 0)\n(3, 1)\n(11, 55)\n(70, 162)\n")],
        ids=["json", "csv", "parametric", "zeros"])
    def test_stdout_matches_file(self, tmp_path, capsys, argv, printed):
        out = tmp_path / "out"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == printed
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        assert text.encode() == out.read_bytes()
        if "csv" not in argv:
            json.loads(text)


class TestImports:
    """Each command imports only the modules it runs, and numpy only where it
    builds an array; none starts a process pool."""

    VERSION = ("-m", "homlab.cli", "--version")
    PACKAGE = ("-c", "import homlab")
    VERIFY = ("-m", "homlab.cli", "verify")
    HERALD = ("-m", "homlab.cli", "herald", "--t", "2", "--eta", "0.87", "--r", "1.5")
    ZEROS = ("-m", "homlab.cli", "zeros", "--n", "3", "--T", "3/4", "--max", "20")
    PARAMETRIC = ("-m", "homlab.cli", "parametric", "--n", "2", "--T", "1/2",
                  "--coeff-min", "-1", "--coeff-max", "1")
    DICKE = ("-m", "homlab.cli", "dicke", "--j-max", "6")
    EXACT_SEARCHES = ("-c", "from fractions import Fraction as F; import homlab.nodal as nodal; "
                            "nodal.bfs_zeros(70, F(1, 2), 80); nodal.bfs_zeros(3, F(3, 4), 500); "
                            "nodal.search_parametric(2, F(1, 2), 2, (-2, 2))")
    EXACT_PROBABILITIES = ("-c", "from fractions import Fraction as F; import homlab; "
                                 "homlab.bs_prob_exact(3, 11, 55, F(3, 4)); "
                                 "homlab.central_probability_exact(3, 1, F(1, 3))")
    DIST = ("-m", "homlab.cli", "dist", "--a", "fock:1", "--b", "coherent:beta=1",
            "--grid-max", "4")
    LOSSY = ("-m", "homlab.cli", "lossy", "--a", "fock:1", "--b", "thermal:nbar=1",
             "--grid-max", "4", "--eta-a", "0.9", "--eta-b", "0.8")

    @staticmethod
    @functools.cache
    def _imported(args):
        # -X importtime lists each module on stderr as it is first imported
        lines = _run_python(["-X", "importtime", *args]).stderr.splitlines()
        return frozenset(line.rsplit("|", 1)[1].strip() for line in lines
                         if line.startswith("import time:"))

    @pytest.mark.parametrize("args", [VERSION, PACKAGE, VERIFY, HERALD, ZEROS, PARAMETRIC])
    def test_no_process_pool_on_start(self, args):
        imported = self._imported(args)
        assert "multiprocessing" not in imported
        assert "concurrent.futures.process" not in imported

    @pytest.mark.parametrize("args", [VERSION, PACKAGE])
    def test_start_loads_no_library(self, args):
        # -m runs homlab.cli as __main__, which is not an import
        imported = self._imported(args)
        assert "numpy" not in imported
        assert {m for m in imported if m.startswith("homlab.")} <= {"homlab.cli"}

    @pytest.mark.parametrize("args", [VERIFY, HERALD, DICKE, PARAMETRIC, ZEROS, EXACT_SEARCHES,
                                      EXACT_PROBABILITIES])
    def test_no_numpy_without_arrays(self, args):
        assert "numpy" not in self._imported(args)

    def test_dicke_loads_only_the_splitter(self):
        grid_modules = {"homlab.states", "homlab.joint_dist", "homlab.detector", "homlab.nodal"}
        assert not grid_modules & self._imported(self.DICKE)

    @pytest.mark.parametrize("args", [VERSION, VERIFY, HERALD, DICKE, ZEROS, PARAMETRIC])
    def test_no_dataclasses_without_numpy(self, args):
        # dataclasses loads inspect, and with it ast, dis and tokenize
        assert not {"dataclasses", "inspect"} & self._imported(args)

    @pytest.mark.parametrize("args", [VERSION, HERALD])
    def test_no_fractions_without_exact_work(self, args):
        assert not {"fractions", "decimal"} & self._imported(args)

    @pytest.mark.parametrize("args", [DIST, LOSSY])
    def test_grid_commands_load_no_zero_search(self, args):
        imported = self._imported(args)
        assert "homlab.joint_dist" in imported and "homlab.nodal" not in imported

    @pytest.mark.parametrize("args", [ZEROS, PARAMETRIC, VERIFY])
    def test_exact_commands_load_no_float_modules(self, args):
        float_modules = {"homlab.states", "homlab.joint_dist", "homlab.detector", "homlab.dicke"}
        assert not float_modules & self._imported(args)


class TestEntryPoint:
    """``python -m homlab.cli`` and the installed ``homlab`` script freeze the
    heap before interpreter teardown, so shutdown's collections skip it;
    ``main`` itself freezes nothing, and the process ends as it did without
    the freeze."""

    HERALD = ["herald", "--t", "2", "--eta", "0.87", "--r", "1.5"]
    # atexit handlers run after the entry point's ``finally``
    FROZEN = ("import atexit, gc, importlib, runpy, sys; sys.argv[0] = 'homlab'; "
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); ")

    def test_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert main(self.HERALD) == EXIT_OK
        assert main(["herald", "--t", "2", "--eta", "0.87", "--r", "-1"]) == EXIT_DOMAIN
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv", [["--version"], HERALD, ["zeros", "--n", "x"]])
    def test_entry_point_freezes_on_every_exit(self, argv):
        launch = "runpy.run_module('homlab.cli', run_name='__main__')"
        proc = _run_python(["-c", self.FROZEN + launch, *argv], check=False)
        assert proc.stdout.splitlines()[-1] == "frozen True", proc.stderr

    @pytest.mark.parametrize("argv", [["--version"], HERALD, ["zeros", "--n", "x"]])
    def test_console_script_freezes_on_every_exit(self, argv):
        # what the script that pip writes for [project.scripts] runs
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["homlab"]
        module, func = target.split(":")
        launch = f"sys.exit(importlib.import_module({module!r}).{func}())"
        proc = _run_python(["-c", self.FROZEN + launch, *argv], check=False)
        assert proc.stdout.splitlines()[-1] == "frozen True", proc.stderr
        assert proc.returncode == _run_python(["-m", "homlab.cli", *argv], check=False).returncode

    @pytest.mark.parametrize("argv, code, stdout, stderr", [
        (["--version"], EXIT_OK, f"{homlab.__version__}\n", ""),
        (HERALD, EXIT_OK, "posterior P(n'=2 | t=2) = 0.7133\n", ""),
        (["zeros", "--n", "x"], EXIT_USAGE, "",
         "usage: homlab zeros [-h] [--n N] [--T T] [--max MAX] [--config CONFIG]\n"
         "                    [-o OUTPUT] [--format {json,csv}]\n"
         "homlab zeros: error: argument --n: invalid int value: 'x'\n"),
        (["zeros", "--n", "3", "--T", "1/0", "--max", "5"], EXIT_USAGE, "",
         "error: --T 1/0: the denominator is 0\n"),
        (["herald", "--t", "2", "--eta", "0.87", "--r", "-1"], EXIT_DOMAIN, "",
         "error: squeezing parameter r must be non-negative\n"),
    ])
    def test_process_ends_as_before(self, argv, code, stdout, stderr):
        proc = _run_python(["-m", "homlab.cli", *argv], check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
