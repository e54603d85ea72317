import numpy as np
import pytest

from adinash.cli import main, parse_config_file
from adinash.generators import ElFarolSpec, make_el_farol, make_modified_shapley, planted_winrates
from adinash.nfg import read_nfg, write_nfg
from adinash.normalform import GameTensor
from adinash.solvers import BaselineSolver, SymmetricAdidasSolver


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

    def test_symmetric_solver_past_66_players(self, capsys):
        # exited 2 with "oracle failed" from an int64 overflow in the rank table
        code, stdout, _ = run_cli(
            capsys, "solve", "--game", "el-farol", "--players", "100",
            "--solver", "adidas-symmetric",
        )
        assert code == 0
        assert "strategy=" in stdout

    @pytest.mark.parametrize(
        "argv, solver, game",
        [
            (
                ("--solver", "ftrl", "--game", "shapley", "--iterations", "50"),
                BaselineSolver(method="ftrl", iterations=50),
                make_modified_shapley(),
            ),
            (
                ("--solver", "adidas-symmetric", "--game", "el-farol", "--players", "4",
                 "--iterations", "20"),
                SymmetricAdidasSolver(iterations=20),
                make_el_farol(ElFarolSpec(players=4)),
            ),
        ],
        ids=["ftrl", "adidas-symmetric"],
    )
    def test_solver_defaults_are_the_library_defaults(self, capsys, tmp_path, argv, solver, game):
        # the CLI restated its own defaults: learning rate 0.01 for the
        # baselines (library 0.05) and Shannon for adidas-symmetric (Tsallis)
        out = tmp_path / "metrics.csv"
        code, _, stderr = run_cli(capsys, "solve", *argv, "--out", str(out))
        assert code == 0, stderr
        assert out.read_bytes() == solver.fit(game).log_.csv_bytes()

    def test_flag_the_solver_does_not_take_is_a_config_error(self, capsys):
        # used to be dropped silently for the baselines, exiting 0
        code, _, stderr = run_cli(
            capsys, "solve", "--game", "shapley", "--solver", "rm", "--exact-gradients"
        )
        assert code == 1
        assert "configuration error" in stderr and "exact_gradients" in stderr

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

    def test_el_farol_with_too_few_players_is_config_error(self, capsys):
        # --players 0 solved El Farol(10) and exited 0
        code, _, stderr = run_cli(
            capsys, "solve", "--game", "el-farol", "--players", "0", "--iterations", "1"
        )
        assert code == 1
        assert "configuration error" in stderr and "players must be >= 2" in stderr

    def test_covariant_without_actions_is_config_error(self, capsys):
        # built a game with no actions and exited 2 on a division by zero
        code, _, stderr = run_cli(
            capsys, "solve", "--game", "covariant", "--players", "2", "--actions", "0"
        )
        assert code == 1
        assert "configuration error" in stderr and "actions must be >= 1" in stderr

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

    def test_solving_a_file_with_no_actions_is_config_error(self, capsys, tmp_path):
        # a count of 0 once parsed and then failed as a float division by zero
        bad = tmp_path / "empty.nfg"
        bad.write_text('NFG 1 R "t" { "a" "b" } { 0 2 }\n')
        code, _, stderr = run_cli(capsys, "solve", "--game", "nfg", "--path", str(bad))
        assert code == 1
        assert "configuration error" in stderr and "action count" in stderr


class TestReportAndBias:
    def test_report_values(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "report", "--players", "7", "--actions", "21"
        )
        assert code == 0
        assert "ratio=583443.0" in stdout

    @pytest.mark.parametrize(
        "players,actions,name", [("0", "3", "players"), ("3", "0", "actions")]
    )
    def test_report_rejects_bad_shape_by_name(self, capsys, players, actions, name):
        # both exited 2 on a division by zero
        code, _, stderr = run_cli(capsys, "report", "--players", players, "--actions", actions)
        assert code == 1
        assert "configuration error" in stderr and f"{name} must be" in stderr

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


    def test_tsallis_bias_table_reports_its_offset(self, capsys):
        # the covariant game has negative payoffs: it exited 1 with
        # "tsallis gradient needs nonnegative payoff gradients"
        code, stdout, stderr = run_cli(
            capsys,
            "bias",
            "--game", "covariant", "--players", "3", "--actions", "3",
            "--entropy", "tsallis",
            "--temperatures", "0.5",
            "--sample-counts", "0", "1",
            "--trials", "2",
        )
        assert code == 0, stderr
        header, *rows = [line.split(",") for line in stdout.splitlines()]
        assert header[-1] == "offset"
        assert all(float(row[-1]) > 0.0 for row in rows)
        assert float(rows[0][header.index("distance")]) == 0.0


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

    def test_parameter_the_solver_does_not_take_is_a_config_error(self, capsys, tmp_path):
        # every cell failed on it and the sweep exited 2, the numeric-failure code
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("bernoulli_repeats = 2\niterations = 3\nrepetitions = 1\n")
        out = tmp_path / "runs"
        code, stdout, stderr = run_cli(
            capsys, "sweep", "--game", "shapley", "--config", str(cfg), "--out", str(out)
        )
        assert code == 1
        assert "configuration error" in stderr and "bernoulli_repeats" in stderr
        assert not out.exists()  # raised before any cell ran

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--repetitions", "0"), "repetitions must be >= 1"),
            (("--repetitions", "-3"), "repetitions must be >= 1"),
            (("--workers", "0"), "workers must be >= 1"),
            ("repetitions = 2.5\n", "repetitions must be an integer"),
        ],
    )
    def test_sweep_rejects_bad_run_counts_by_name(self, capsys, tmp_path, argv, message):
        # --repetitions 0 ran nothing and exited 0 with runs=0; a config
        # file's 2.5 repetitions ran 2
        if isinstance(argv, str):
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(argv)
            argv = ("--config", str(cfg))
        out = tmp_path / "runs"
        code, _, stderr = run_cli(capsys, "sweep", "--game", "shapley", *argv, "--out", str(out))
        assert code == 1
        assert "configuration error" in stderr and message in stderr
        assert not out.exists()  # raised before any job ran

    def test_failure_while_a_cell_runs_is_recorded_and_exits_2(self, capsys, tmp_path):
        # learning_rate is checked when the solver fits, so only its cell fails
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("grid.learning_rate = [-1.0, 0.1]\niterations = 3\nrepetitions = 1\n")
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--game", "shapley", "--config", str(cfg), "--out", str(tmp_path / "runs"),
        )
        assert code == 2
        assert "runs=2 failed=1 cells=1" in stdout

    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 0.5\nname = mirror\ngrid.eps = [0.01, 0.05]\n")
        options = parse_config_file(str(cfg))
        assert options == {
            "alpha": 0.5,
            "name": "mirror",
            "grid.eps": [0.01, 0.05],
        }
