"""Command-line front end.

Subcommands: solve (one solver run, metrics to CSV), sweep (hyperparameter
grid from a key=value config file), bias (stochastic-gradient bias table),
nfg (Gambit file inspection / round trip / export), report (query-savings
accounting). Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import harness, nfg
from .entropy import Entropy
from .generators import (
    BlottoSpec,
    ElFarolSpec,
    make_bernoulli_metagame,
    make_blotto,
    make_covariant_random,
    make_el_farol,
    make_modified_shapley,
    planted_winrates,
)
from .normalform import StrategyProfile

CONFIG_ERROR = 1
NUMERIC_ERROR = 2


def build_game(args):
    name = args.game
    if name == "blotto":
        spec = BlottoSpec(args.coins, args.fields, args.players)
        return make_blotto(spec)
    if name == "el-farol":
        return make_el_farol(ElFarolSpec(players=args.players))
    if name == "shapley":
        return make_modified_shapley(args.beta, offset=args.offset)
    if name == "covariant":
        return make_covariant_random(
            args.players, args.actions, args.correlation, seed=args.game_seed
        )
    if name == "bernoulli-meta":
        table = planted_winrates(args.players, args.actions, seed=args.game_seed)
        return make_bernoulli_metagame(table, seed=args.game_seed)
    if name == "nfg":
        if not args.path:
            raise ValueError("--path is required for --game nfg")
        game, _, _ = nfg.read_nfg(args.path)
        return game
    raise ValueError(f"unknown game {name!r}")


def _add_game_arguments(parser, required=True):
    parser.add_argument(
        "--game",
        required=required,
        choices=["blotto", "el-farol", "shapley", "covariant", "bernoulli-meta", "nfg"],
    )
    parser.add_argument("--coins", type=int, default=10)
    parser.add_argument("--fields", type=int, default=3)
    parser.add_argument("--players", type=int, default=4)
    parser.add_argument("--actions", type=int, default=5)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--offset", action="store_true")
    parser.add_argument("--correlation", type=float, default=0.0)
    parser.add_argument("--game-seed", type=int, default=0)
    parser.add_argument("--path", help=".nfg file for --game nfg")


def _add_solver_arguments(parser):
    parser.add_argument("--solver", default="adidas", choices=sorted(harness.SOLVER_FACTORIES))
    parser.add_argument("--seed", type=int, default=0)
    group = parser.add_argument_group(
        "solver parameters",
        "a flag left out keeps the solver's own default",
        argument_default=argparse.SUPPRESS,
    )
    flags = [
        group.add_argument("--entropy", choices=["shannon", "tsallis", "none"]),
        group.add_argument("--initial-temperature", type=float),
        group.add_argument("--learning-rate", type=float, help="strategy step size"),
        group.add_argument("--aux-learning-rate", type=float, help="tracker step size"),
        group.add_argument("--adi-threshold", type=float, help="anneal trigger"),
        group.add_argument("--iterations", type=int),
        group.add_argument("--samples", type=int, help="joint-play samples per iteration"),
        group.add_argument("--exact-gradients", action="store_true"),
        group.add_argument("--projection", choices=["euclidean", "mirror"]),
        group.add_argument("--average-iterates", action="store_true"),
    ]
    parser.set_defaults(solver_flags=[flag.dest for flag in flags])


def _solver_params(args):
    """The solver parameters the user gave, by name; one the solver does not
    take makes its constructor raise TypeError, a configuration error."""
    return {name: getattr(args, name) for name in args.solver_flags if hasattr(args, name)}


def cmd_solve(args):
    game = build_game(args)
    factory = harness.SOLVER_FACTORIES[args.solver]
    solver = factory(**_solver_params(args), seed=args.seed, run_id=args.run_id).fit(game)
    log = solver.log_
    if args.out:
        log.to_csv(args.out)
    final = log.final
    exact = log.final_exact_adi()
    print(f"run_id={log.run_id} seed={log.seed} iterations={final['iteration']}")
    print(f"adi_estimate={final['adi_estimate']!r}")
    if not np.isnan(exact):
        print(f"adi_exact={exact!r}")
    print(f"temperature={final['temperature']!r} queries={final['queries']}")
    strategy = getattr(solver, "strategy_", None)
    if strategy is not None:
        print("strategy=" + " ".join(repr(float(v)) for v in strategy))
    else:
        for i, s in enumerate(solver.profile_):
            print(f"strategy[{i}]=" + " ".join(repr(float(v)) for v in s))
    return 0


def parse_config_file(path):
    """key = value lines; '#' comments; values parsed as python literals."""
    import ast

    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            try:
                options[key.strip()] = ast.literal_eval(value.strip())
            except (ValueError, SyntaxError):
                options[key.strip()] = value.strip()
    return options


def cmd_sweep(args):
    game = build_game(args)
    overrides = parse_config_file(args.config) if args.config else {}
    grids = {k[5:]: v for k, v in overrides.items() if k.startswith("grid.")}
    base = _solver_params(args)
    base.update(
        (k, v) for k, v in overrides.items() if not k.startswith("grid.") and k != "repetitions"
    )
    config = harness.ExperimentConfig(
        game=game,
        solver=args.solver,
        base_params=base,
        grids=grids,
        repetitions=overrides.get("repetitions", args.repetitions),
        base_seed=args.seed,
        output_dir=args.out or "runs",
    )
    results, summaries, best = harness.run_experiment(config, workers=args.workers)
    failured = [r for r in results if r.error]
    print(f"runs={len(results)} failed={len(failured)} cells={len(summaries)}")
    for r in failured:
        print(f"failed {r.run_id}: {r.error}")
    if best is not None:
        print(f"best cell: {best.cell} mean_final_adi={best.mean_final_adi!r}")
    return 0 if not failured else NUMERIC_ERROR


def cmd_bias(args):
    game = build_game(args)
    if args.entropy == "tsallis":
        kinds = [Entropy.tsallis(t) for t in args.temperatures]
    else:
        kinds = [Entropy.shannon(t) for t in args.temperatures]
    x = StrategyProfile.uniform(game.action_counts)
    rows = harness.measure_gradient_bias(
        game, x, kinds, args.sample_counts, args.trials, seed=args.seed
    )
    # one column per BiasRow field; str of a float is its repr
    names = [field.name for field in dataclasses.fields(harness.BiasRow)]
    print(",".join(names))
    for r in rows:
        print(",".join(str(getattr(r, name)) for name in names))
    return 0


def cmd_nfg(args):
    if args.action in ("info", "roundtrip"):
        if not args.path:
            raise ValueError(f"nfg {args.action} needs --path")
        if args.action == "info":
            game, title, names = nfg.read_nfg(args.path)
            print(f"title={title!r} players={game.players} actions={game.action_counts}")
            print(f"names={names}")
        else:
            game = nfg.nfg_roundtrip(args.path)
            print(f"roundtrip ok: players={game.players} actions={game.action_counts}")
    else:  # export
        if not args.game or not args.out:
            raise ValueError("nfg export needs --game and --out")
        game = build_game(args)
        if hasattr(game, "mean_game"):
            game = game.mean_game()
        if hasattr(game, "expand_to_tensor"):
            game = game.expand_to_tensor()
        nfg.write_nfg(args.out, game, title=args.game)
        print(f"wrote {args.out}")
    return 0


def cmd_report(args):
    rep = harness.query_savings_report(args.players, args.actions, args.symmetric)
    print(f"players={rep.players} actions={rep.actions} symmetric={rep.symmetric}")
    print(f"tensor_entries={rep.tensor_entries}")
    print(f"queries_per_gradient={rep.queries_per_gradient}")
    print(f"ratio={rep.ratio!r} (floor {rep.ratio_floor})")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(prog="adinash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver and dump metrics")
    _add_game_arguments(p_solve)
    _add_solver_arguments(p_solve)
    p_solve.add_argument("--out", help="metric CSV path")
    p_solve.add_argument("--run-id", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="hyperparameter sweep")
    _add_game_arguments(p_sweep)
    _add_solver_arguments(p_sweep)
    p_sweep.add_argument("--config", help="key = value file; grid.<param> lists sweep values")
    p_sweep.add_argument("--repetitions", type=int, default=10)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bias = sub.add_parser("bias", help="gradient bias table")
    _add_game_arguments(p_bias)
    p_bias.add_argument("--entropy", default="shannon", choices=["shannon", "tsallis"])
    p_bias.add_argument("--temperatures", type=float, nargs="+", default=[0.0, 0.01, 0.1, 1.0])
    p_bias.add_argument("--sample-counts", type=int, nargs="+", default=[0, 1, 4, 21])
    p_bias.add_argument("--trials", type=int, default=20)
    p_bias.add_argument("--seed", type=int, default=0)
    p_bias.set_defaults(func=cmd_bias)

    p_nfg = sub.add_parser("nfg", help="Gambit .nfg utilities")
    p_nfg.add_argument("action", choices=["info", "roundtrip", "export"])
    _add_game_arguments(p_nfg, required=False)
    p_nfg.add_argument("--out", help="output path for export")
    p_nfg.set_defaults(func=cmd_nfg)

    p_report = sub.add_parser("report", help="query savings accounting")
    p_report.add_argument("--players", type=int, required=True)
    p_report.add_argument("--actions", type=int, required=True)
    p_report.add_argument("--symmetric", action="store_true")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, FileNotFoundError, KeyError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return CONFIG_ERROR
    except (FloatingPointError, ArithmeticError, RuntimeError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
