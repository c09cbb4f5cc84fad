import json

import numpy as np
import pytest

from homlab.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from homlab.bs_core import BALANCED
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

    def test_bad_state_exits_2(self, capsys):
        assert main(["dist", "--a", "nonsense:1", "--b", "fock:0",
                     "--bs", "1/2"]) == EXIT_USAGE

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
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": "fock:2", "b": "fock:0", "bs": "1/2"}))
        out = tmp_path / "grid.json"
        code = main(["dist", "--config", str(cfg), "--a", "fock:1",
                     "-o", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["meta"]["state_a"] == "fock:1"
        assert doc["meta"]["state_b"] == "fock:0"

    def test_missing_config_exits_4(self):
        assert main(["dist", "--config", "/no/such/file.json",
                     "--a", "fock:0", "--b", "fock:0"]) == EXIT_IO


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
        assert main(["verify", "--tables", "appendix-c"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("[ok]") == 17

    def test_unknown_tables_exits_2(self, capsys):
        assert main(["verify", "--tables", "bogus"]) == EXIT_USAGE
