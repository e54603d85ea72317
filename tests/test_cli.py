import numpy as np
import pytest

from adinash.cli import main, parse_config_file
from adinash.generators import planted_winrates
from adinash.nfg import read_nfg, write_nfg
from adinash.normalform import GameTensor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_solve_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "metrics.csv"
        code, stdout, _ = run_cli(
            capsys,
            "solve",
            "--game", "shapley",
            "--solver", "adidas",
            "--exact-gradients",
            "--iterations", "50",
            "--learning-rate", "0.05",
            "--seed", "4",
            "--out", str(out),
        )
        assert code == 0
        assert "adi_estimate=" in stdout
        lines = out.read_text().splitlines()
        assert lines[0].startswith("run_id,seed,iteration")
        assert len(lines) == 51

    def test_symmetric_solver_on_el_farol(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "solve",
            "--game", "el-farol",
            "--players", "10",
            "--solver", "adidas-symmetric",
            "--entropy", "shannon",
            "--iterations", "30",
            "--seed", "0",
        )
        assert code == 0
        assert "strategy=" in stdout

    def test_config_error_exit_code(self, capsys):
        code, _, stderr = run_cli(
            capsys,
            "solve",
            "--game", "blotto",
            "--coins", "10",
            "--fields", "3",
            "--players", "4",
            "--solver", "adidas",
            "--iterations", "5",
            "--learning-rate", "-0.5",
        )
        assert code == 1
        assert "configuration error" in stderr

    def test_baseline_without_iterations_is_config_error(self, capsys):
        # used to die with an uncaught IndexError from the empty log
        code, _, stderr = run_cli(
            capsys, "solve", "--game", "shapley", "--solver", "rm", "--iterations", "0"
        )
        assert code == 1
        assert "configuration error" in stderr
        assert "iterations" in stderr

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        # a diverging run aborts with FloatingPointError; the CLI maps it to 2
        from adinash.solvers import AdidasSolver

        def blow_up(self, game):
            raise FloatingPointError("non-finite deviation-incentive gradient")

        monkeypatch.setattr(AdidasSolver, "fit", blow_up)
        code, _, stderr = run_cli(
            capsys, "solve", "--game", "shapley", "--solver", "adidas"
        )
        assert code == 2
        assert "numeric failure" in stderr

    def test_mirror_underflow_is_numeric_failure(self, capsys):
        # a Shannon mirror step underflows a coordinate of the shared strategy
        code, _, stderr = run_cli(
            capsys,
            "solve",
            "--game", "blotto",
            "--coins", "4",
            "--fields", "3",
            "--players", "3",
            "--solver", "adidas-symmetric",
            "--entropy", "shannon",
            "--projection", "mirror",
            "--learning-rate", "0.05",
            "--samples", "2",
            "--iterations", "60",
            "--seed", "3",
        )
        assert code == 2
        assert "numeric failure" in stderr

    def test_overflowing_step_is_numeric_failure(self, capsys, tmp_path):
        # finite gradients whose step overflows used to reach the simplex
        # projection and exit 1 as "cannot project non-finite vector"
        path = tmp_path / "huge.nfg"
        write_nfg(path, GameTensor(np.random.default_rng(0).uniform(-1e300, 1e300, (2, 3, 3))))
        with np.errstate(all="ignore"):
            code, _, stderr = run_cli(
                capsys,
                "solve",
                "--game", "nfg",
                "--path", str(path),
                "--solver", "ftrl",
                "--learning-rate", "1e10",
                "--iterations", "5",
            )
        assert code == 2
        assert "numeric failure" in stderr


class TestNfg:
    def test_export_then_info_and_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "shapley.nfg"
        code, stdout, _ = run_cli(
            capsys, "nfg", "export", "--game", "shapley", "--out", str(path)
        )
        assert code == 0
        game, title, _ = read_nfg(str(path))
        assert game.action_counts == (3, 3)

        code, stdout, _ = run_cli(capsys, "nfg", "info", "--path", str(path))
        assert code == 0 and "players=2" in stdout

        code, stdout, _ = run_cli(capsys, "nfg", "roundtrip", "--path", str(path))
        assert code == 0 and "roundtrip ok" in stdout

    def test_export_bernoulli_metagame_writes_mean_game(self, capsys, tmp_path):
        path = tmp_path / "meta.nfg"
        code, _, _ = run_cli(
            capsys,
            "nfg", "export",
            "--game", "bernoulli-meta",
            "--players", "3",
            "--actions", "3",
            "--out", str(path),
        )
        assert code == 0
        game, _, _ = read_nfg(str(path))
        want = planted_winrates(3, 3, seed=0).expand_to_tensor()
        assert np.allclose(game.payoffs, want.payoffs, rtol=0.0, atol=1e-12)

        code, stdout, _ = run_cli(capsys, "nfg", "roundtrip", "--path", str(path))
        assert code == 0 and "roundtrip ok" in stdout

    def test_malformed_file_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.nfg"
        bad.write_text('NFG 1 R "x" { "a" "b" } { 2 2 }\n\n1 2 3\n')
        code, _, stderr = run_cli(capsys, "nfg", "info", "--path", str(bad))
        assert code == 1


class TestReportAndBias:
    def test_report_values(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "report", "--players", "7", "--actions", "21"
        )
        assert code == 0
        assert "ratio=583443.0" in stdout

    def test_bias_table(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "bias",
            "--game", "shapley",
            "--temperatures", "0.1",
            "--sample-counts", "0",
            "--trials", "2",
        )
        assert code == 0
        assert stdout.splitlines()[0].startswith("family,temperature")

    def test_bias_rejects_zero_trials(self, capsys):
        code, _, stderr = run_cli(
            capsys, "bias", "--game", "shapley", "--sample-counts", "1", "--trials", "0"
        )
        assert code == 1
        assert "trials" in stderr

    @pytest.mark.parametrize(
        "game",
        [
            ("--game", "el-farol", "--players", "4"),
            ("--game", "bernoulli-meta", "--players", "3", "--actions", "3"),
        ],
        ids=["el-farol", "bernoulli-meta"],
    )
    def test_bias_table_on_symmetric_games(self, capsys, game):
        # exact blocks come from the dense expansion; these used to exit 1
        # (symmetric game) or die with an AttributeError (Bernoulli oracle)
        code, stdout, stderr = run_cli(
            capsys,
            "bias",
            *game,
            "--temperatures", "0.1",
            "--sample-counts", "0", "2",
            "--trials", "2",
        )
        assert code == 0, stderr
        header, *rows = [line.split(",") for line in stdout.splitlines()]
        distance = header.index("distance")
        assert [row[header.index("samples")] for row in rows] == ["0", "2"]
        assert float(rows[0][distance]) == 0.0
        assert np.isfinite(float(rows[1][distance]))


class TestSweep:
    def test_sweep_with_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# two-cell sweep\n"
            "grid.learning_rate = [0.05, 0.1]\n"
            "iterations = 20\n"
            "exact_gradients = True\n"
            "exact_adi_every = 5\n"
            "repetitions = 2\n"
        )
        code, stdout, _ = run_cli(
            capsys,
            "sweep",
            "--game", "shapley",
            "--solver", "adidas",
            "--config", str(cfg),
            "--out", str(tmp_path / "runs"),
        )
        assert code == 0
        assert "runs=4" in stdout
        assert "best cell" in stdout
        assert (tmp_path / "runs" / "summary.csv").exists()

    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 0.5\nname = mirror\ngrid.eps = [0.01, 0.05]\n")
        options = parse_config_file(str(cfg))
        assert options == {
            "alpha": 0.5,
            "name": "mirror",
            "grid.eps": [0.01, 0.05],
        }
