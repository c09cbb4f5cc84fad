import functools
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

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


class TestJsonWriter:
    """The grid writer must reproduce json.dumps(doc, indent=2) byte for byte."""

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
    ])
    def test_matches_json_dumps(self, doc):
        assert "".join(_to_json(doc)) == json.dumps(doc, indent=2) + "\n"

    def test_cli_grid_file(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["lossy", "--a", "fock:1", "--b", "coherent:beta=2",
                     "--eta-a", "0.9", "--eta-b", "0.8", "-o", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _json_reference(grid) -> str:
    """``{"grid": grid}`` as json.dumps(indent=2) writes it, cell by cell."""
    rows = []
    for row in grid:
        cells = [f"      {float.__repr__(float(v))}" for v in row]
        rows.append("[\n" + ",\n".join(cells) + "\n    ]" if cells else "[]")
    body = "[\n" + ",\n".join(f"    {r}" for r in rows) + "\n  ]" if rows else "[]"
    return '{\n  "grid": ' + body + "\n}\n"


def _csv_reference(grid) -> str:
    """The grid CSV, cell by cell."""
    lines = ["m_a,m_b,P"] + [f"{m_a},{m_b},{float(v):.17g}"
                             for m_a, row in enumerate(grid) for m_b, v in enumerate(row)]
    return "\n".join(lines) + "\n"


class TestGridWriters:
    """The writers format each row up to its last entry that is not +0.0 and
    emit the rest from a precomputed zero tail; every byte must stay that of
    the per-cell writers."""

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
        assert _json_reference(grid) == json.dumps({"grid": grid}, indent=2) + "\n"
        assert "".join(_to_json({"grid": grid})) == _json_reference(grid)
        assert "".join(_to_csv({"grid": grid})) == _csv_reference(grid)

    @pytest.mark.parametrize("name", [n for n in GRIDS if n != "empty"])
    def test_arrays_match_per_cell_writers(self, name):
        grid = np.array(self.GRIDS[name])
        assert "".join(_to_json({"grid": grid})) == _json_reference(grid)
        assert "".join(_to_csv({"grid": grid})) == _csv_reference(grid)

    def test_padded_lossy_grid(self):
        dist = lossy_distribution(joint_general((fock(1), coherent(1.5)), BALANCED,
                                                grid_max=60), LossConfig(0.9, 0.8))
        grid = dist.grid
        assert grid[-1].sum() == 0.0 and grid[0, 1] > 0.0
        assert "".join(_to_json({"grid": grid})) == _json_reference(grid)
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
        # w_t = (eta tanh^2 r)^t / cosh^2 r underflows to 0 at this count
        assert main(["herald", "--t", "400", "--eta", "0.5", "--r", "0.5"]) == EXIT_OK
        assert "= 1.0000" in capsys.readouterr().out


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
    row's JSON text, as a config file or as a custom state file."""

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
        (["dicke", "--j-max", "3", "--bs", "3/2"], None, EXIT_DOMAIN),
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
        (["dicke", "--j-max", "3", "--bs", "1/0"], None, EXIT_DOMAIN),
    ])
    def test_exit_code(self, tmp_path, argv, config, code):
        cfg = tmp_path / "run.json"
        if config is not None:
            cfg.write_text(config)
        argv = [arg.replace("{config}", str(cfg)) for arg in argv]
        out = tmp_path / "out.json"
        proc = _run_python(["-m", "homlab.cli", *argv, "-o", str(out)], check=False)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: "), proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["zeros", "--n", "3", "--max", "5"],
                                      ["parametric", "--n", "2"]])
    def test_zero_denominator_names_the_flag(self, argv):
        proc = _run_python(["-m", "homlab.cli", *argv, "--T", "1/0"], check=False)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: --T 1/0: the denominator is 0\n"

    @pytest.mark.parametrize("argv, code", [(["dist", *GRID], EXIT_USAGE),
                                            (["dicke", "--j-max", "3"], EXIT_DOMAIN)])
    def test_zero_splitter_denominator_names_the_flag(self, argv, code):
        proc = _run_python(["-m", "homlab.cli", *argv, "--bs", "1/0"], check=False)
        assert proc.returncode == code
        assert proc.stderr == "error: --bs 1/0: the denominator is 0\n"


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
        # 1500 x 1500 cells with a zero tail after 100 columns: tens of MB
        grid = np.zeros((1500, 1500))
        grid[:, :100] = np.random.default_rng(5).random((1500, 100))
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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_matches_file(self, tmp_path, capsys, fmt):
        argv = ["lossy", "--a", "fock:1", "--b", "coherent:beta=2", "--grid-max", "40",
                *ETAS, "--format", fmt]
        out = tmp_path / f"g.{fmt}"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes()


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

    @pytest.mark.parametrize("args", [DIST, LOSSY])
    def test_grid_commands_load_no_zero_search(self, args):
        imported = self._imported(args)
        assert "homlab.joint_dist" in imported and "homlab.nodal" not in imported

    @pytest.mark.parametrize("args", [ZEROS, PARAMETRIC, VERIFY])
    def test_exact_commands_load_no_float_modules(self, args):
        float_modules = {"homlab.states", "homlab.joint_dist", "homlab.detector", "homlab.dicke"}
        assert not float_modules & self._imported(args)
