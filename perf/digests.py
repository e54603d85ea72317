"""Fixed-seed digests of adinash runs, for proving a refactor byte for byte.

Each run is a small, fully seeded solve (both ADIDAS solvers over every
entropy, exact and sampled blocks and both projections; the general solver
also on a game with unequal action counts, on the benchmark's covariant
4x6 game and on a Bernoulli oracle that overrides ``pair_payoffs``, whose
blocks are read pair by pair in query order; the six baselines on six games, ``ped`` on five players, and the
shared-strategy form; the exact warm-up; the gradient-bias table, Tsallis rows included; block
fills of a Bernoulli oracle, single and stacked, at the benchmark's planted 7x5
shape and on planted 4x21; the tables of Blotto(10,3,4),
El Farol(10) and the planted 7x5 winrates;
with ``normalform.PAIR_TABLE_ENTRIES`` at 0 so that no pair table is
built and every block read takes the uncached branch, sampled symmetric
solves and the stacked fill; and a sampled symmetric solve of El Farol(70),
past the 66 players where a two-action rank table once overflowed int64;
the Gambit ``.nfg`` text written for four games, one hand-written
three-player file read back and two malformed files.
A run's digest is the sha256
of its metric-CSV bytes, final strategies and query count (the table's
bytes, for the table; the text, or the payoffs, title and names, for
``.nfg``), or of the error it raised. Output is one
``<sha256>  <run>`` line per run and then ``<sha256>  total`` over those
lines, so two trees agree exactly when their outputs are equal:

    python3 perf/digests.py > after.txt
    python3 perf/digests.py --src /path/to/other/tree/src > before.txt
    diff before.txt after.txt

``perf/digests.txt`` records this tree's output, and its git history the
output before and after each change. CI diffs a run against the parent
commit's ``src`` run on the same machine, unless the commit updates
``perf/digests.txt``: a change that moves numbers on purpose does so, and
CI then prints ``perf/moved.py``'s list of the runs that moved.

Only parameters and call forms that every tree since the player-batched
general loop accepts are used.
Takes about 5-8 s on one CPU; errors are echoed to stderr.
"""

import argparse
import dataclasses
import hashlib
import pathlib
import sys

import numpy as np

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# three players with (2, 3, 2) actions: 36 payoffs in mixed notation,
# separated by spaces, tabs and line ends
RAGGED_NFG = (
    'NFG 1 R "three players, (2, 3, 2)"\n{ "Ann" "Bo b" "Cy" }\t{ 2 3 2 }\n\n'
    "1 -2 3.5\t4 5e-1 -6\n7 8 9.25 10 -11 12\r\n13 14 15 -1.5e2 17 18\n"
    "19 20 21 22 23 0.125 25 26 27 28 -29 30\n31 32 33 +34 35 36\n"
)


def _games(gen, GameTensor, new_rng):
    """Name -> game or oracle builder; oracles are rebuilt per run so their
    query counters and draws start fresh."""
    return {
        "shapley": lambda: gen.make_modified_shapley(0.5),
        "covariant3x3": lambda: gen.make_covariant_random(3, 3, 0.0, seed=1),
        "covariant2x4": lambda: gen.make_covariant_random(2, 4, -0.5, seed=2),
        "elfarol4": lambda: gen.make_el_farol(gen.ElFarolSpec(players=4)),
        "blotto": lambda: gen.make_blotto(gen.BlottoSpec(coins=4, fields=3, players=3)),
        "bernoulli": lambda: gen.make_bernoulli_metagame(
            gen.planted_winrates(3, 3, seed=0), seed=4
        ),
        "elfarol4_dense": lambda: gen.make_el_farol(gen.ElFarolSpec(players=4)).expand_to_tensor(),
        # unequal action counts: the per-pair block path
        "ragged234": lambda: GameTensor(new_rng(11).uniform(-1.0, 1.0, size=(3, 2, 3, 4))),
        # the benchmark's general game
        "covariant4x6": lambda: gen.make_covariant_random(4, 6, 0.0, seed=0),
        # five players: both block orientations for every owner but the ends
        "covariant5x3": lambda: gen.make_covariant_random(5, 3, 0.0, seed=13),
        "elfarol70": lambda: gen.make_el_farol(gen.ElFarolSpec(players=70)),
    }


def _strategy_bytes(strategies):
    return b"".join(np.ascontiguousarray(s, dtype=np.float64).tobytes() for s in strategies)


def _fitted_bytes(solver):
    return solver.log_.csv_bytes() + _strategy_bytes(solver.profile_) + repr(
        getattr(solver, "queries_", None)
    ).encode()


def _temperature(entropy, projection):
    """The default temperature, except a Shannon mirror run: at temperature
    100 its first step leaves the simplex interior and the run proves little."""
    return 1.0 if (entropy, projection) == ("shannon", "mirror") else None


def runs(fitted_bytes=_fitted_bytes, strategy_bytes=_strategy_bytes):
    """(name, thunk returning bytes) for every run, in a fixed order. A solve
    is encoded by `fitted_bytes(solver)`, strategies and blocks by
    `strategy_bytes(arrays)`; ``perf/moved.py`` passes its own encoders."""
    from adinash import generators as gen
    from adinash import nfg
    from adinash.entropy import Entropy
    from adinash.normalform import GameTensor
    from adinash.oracles import BernoulliOracle
    from adinash.harness import measure_gradient_bias
    from adinash.sampling import estimate_pairwise_matrices, new_rng, sample_joint_action
    from adinash.solvers import AdidasSolver, BaselineSolver, SymmetricAdidasSolver
    from adinash.solvers.adidas import warmup_anneal_descend

    games = _games(gen, GameTensor, new_rng)
    out = []

    def solve(factory, game, **params):
        return lambda: fitted_bytes(factory(**params).fit(games[game]()))

    def uncached(thunk):
        """`thunk` run with no symmetric pair table cached, the threshold
        restored afterwards."""
        from adinash import normalform

        def run():
            saved = normalform.PAIR_TABLE_ENTRIES
            normalform.PAIR_TABLE_ENTRIES = 0
            try:
                return thunk()
            finally:
                normalform.PAIR_TABLE_ENTRIES = saved

        return run

    for game in ("shapley", "covariant3x3", "elfarol4", "bernoulli"):
        for entropy in ("shannon", "tsallis", "none"):
            for exact in (False, True):
                for projection in ("euclidean", "mirror"):
                    name = f"adidas/{game}/{entropy}/{'exact' if exact else 'sampled'}/{projection}"
                    out.append((name, solve(
                        AdidasSolver, game, entropy=entropy, exact_gradients=exact,
                        projection=projection, initial_temperature=_temperature(entropy, projection), iterations=40, samples=2,
                        learning_rate=0.05, adi_threshold=0.05, exact_adi_every=10, seed=3,
                    )))
    for entropy in ("shannon", "tsallis"):
        for exact in (False, True):
            for projection in ("euclidean", "mirror"):
                name = f"adidas/ragged234/{entropy}/{'exact' if exact else 'sampled'}/{projection}"
                out.append((name, solve(
                    AdidasSolver, "ragged234", entropy=entropy, exact_gradients=exact,
                    projection=projection, initial_temperature=_temperature(entropy, projection),
                    iterations=40, samples=2, learning_rate=0.05, adi_threshold=0.05,
                    exact_adi_every=10, seed=3,
                )))
    for seed in (0, 1):
        # the covariant_general_sampled settings, fewer iterations
        out.append((f"adidas/covariant4x6/bench/seed{seed}", solve(
            AdidasSolver, "covariant4x6", entropy="shannon", initial_temperature=1.0,
            iterations=60, samples=2, seed=seed,
        )))

    class PairByPair(BernoulliOracle):
        """A Bernoulli oracle that overrides pair_payoffs, so the sampled
        fill reads it one pair and joint at a time, drawing in query order."""

        def pair_payoffs(self, owner, partner, base_joint):
            return super().pair_payoffs(owner, partner, base_joint)

    def pair_by_pair():
        oracle = PairByPair(gen.planted_winrates(3, 3, seed=0), seed=4)
        return fitted_bytes(AdidasSolver(
            entropy="shannon", iterations=40, samples=2, learning_rate=0.05,
            adi_threshold=0.05, exact_adi_every=10, seed=3,
        ).fit(oracle))

    out.append(("adidas/bernoulli-pair-by-pair/shannon/sampled", pair_by_pair))
    for game in ("covariant3x3", "elfarol4"):
        out.append((f"adidas/{game}/no-tangent", solve(
            AdidasSolver, game, tangent_projection=False, iterations=30, seed=5,
            initial_temperature=0.5, exact_adi_every=10,
        )))
        out.append((f"adidas/{game}/average", solve(
            AdidasSolver, game, average_iterates=True, anneal=False, iterations=30, seed=6,
            exact_adi_every=10,
        )))

    for game in ("elfarol4", "blotto", "bernoulli"):
        for entropy in ("shannon", "tsallis", "none"):
            for exact in (False, True):
                for projection in ("euclidean", "mirror"):
                    name = f"symmetric/{game}/{entropy}/{'exact' if exact else 'sampled'}/{projection}"
                    out.append((name, solve(
                        SymmetricAdidasSolver, game, entropy=entropy, exact_gradients=exact,
                        projection=projection, initial_temperature=_temperature(entropy, projection), iterations=40, samples=5,
                        learning_rate=0.05, adi_threshold=0.05, exact_adi_every=10, seed=7,
                    )))

    for game in ("shapley", "covariant3x3", "covariant2x4", "elfarol4", "blotto", "elfarol4_dense"):
        for method in ("ftrl", "rm", "fp", "ed", "extragrad", "ped"):
            out.append((f"baseline/{game}/{method}", solve(
                BaselineSolver, game, method=method, iterations=40, learning_rate=0.1,
                exact_adi_every=10, seed=0,
            )))
    out.append(("baseline/covariant5x3/ped", solve(
        BaselineSolver, "covariant5x3", method="ped", iterations=40, learning_rate=0.1,
        exact_adi_every=10, seed=0,
    )))
    out.append(("baseline/covariant3x3/extragrad-inner", solve(
        BaselineSolver, "covariant3x3", method="extragrad", inner_step=0.2, iterations=40,
        learning_rate=0.1,
    )))
    for game in ("elfarol4", "blotto"):
        for method in ("ftrl", "rm", "fp"):
            out.append((f"baseline/{game}/{method}-shared", solve(
                BaselineSolver, game, method=method, symmetric=True, iterations=40,
                learning_rate=0.1, exact_adi_every=10,
            )))

    def warmup(game, **schedule):
        return lambda: strategy_bytes(warmup_anneal_descend(games[game](), **schedule))

    out.append(("warmup/elfarol4", warmup(
        "elfarol4", anneal_rounds=3, descent_steps=20, anneal_increment=10.0, learning_rate=1.0
    )))
    out.append(("warmup/shapley", warmup(
        "shapley", anneal_rounds=4, descent_steps=10, anneal_increment=0.5, learning_rate=0.05
    )))
    out.append(("warmup/covariant3x3", warmup(
        "covariant3x3", anneal_rounds=3, descent_steps=10, anneal_increment=1.0
    )))
    out.append(("warmup/covariant5x3", warmup(
        "covariant5x3", anneal_rounds=3, descent_steps=10, anneal_increment=1.0
    )))
    out.append(("warmup/shapley-tsallis", lambda: strategy_bytes(warmup_anneal_descend(
        gen.make_modified_shapley(0.5, offset=True), 3, 10, 1.0, entropy_family="tsallis"
    ))))

    shannon = [Entropy.none(), Entropy("shannon", 0.1), Entropy("shannon", 1.0)]
    tsallis = [Entropy("tsallis", 0.5), Entropy("tsallis", 1.0)]
    tables = [(game, "", shannon) for game in ("shapley", "covariant3x3", "elfarol4", "bernoulli")]
    tables += [(game, "/tsallis", tsallis) for game in ("shapley", "covariant3x3")]
    for game, suffix, kinds in tables:
        def bias(game=game, kinds=kinds):
            built = games[game]()
            x = [np.full(m, 1.0 / m) for m in built.action_counts]
            rows = measure_gradient_bias(built, x, kinds, [0, 1, 3], trials=5, seed=8)
            # the eight fields every tree's BiasRow has, in order
            return repr([dataclasses.astuple(row)[:8] for row in rows]).encode()

        out.append((f"bias/{game}{suffix}", bias))

    def fills():
        oracle = games["bernoulli"]()
        rng = new_rng(9)
        x = [np.array([0.2, 0.3, 0.5])] * oracle.players
        blocks = []
        for _ in range(20):
            matrices = estimate_pairwise_matrices(oracle, sample_joint_action(x, rng, 1))
            blocks += [matrices.matrix(*key) for key in matrices.pairs()]
        return strategy_bytes(blocks) + repr(oracle.queries).encode()

    out.append(("fill/bernoulli", fills))

    def stacked_fills():
        # 234 blocks in stacks of 1-7, each stack followed by a single query
        oracle = gen.make_bernoulli_metagame(gen.planted_winrates(4, 5, seed=1), seed=12)
        rng = new_rng(10)
        parts = []
        for stack in range(60):
            rests = rng.integers(0, 5, size=(1 + stack % 7, 2))
            parts.append(oracle.symmetric_pair_payoffs(rests))
            joint = tuple(int(a) for a in rng.integers(0, 5, size=4))
            parts.append(np.array([oracle.query(stack % 4, joint)]))
        return strategy_bytes(parts) + repr(oracle.queries).encode()

    out.append(("fill/bernoulli-stacked", stacked_fills))

    def bench_fills():
        # the benchmark's read: 50 rests of planted 7x5, three times
        oracle = gen.make_bernoulli_metagame(gen.planted_winrates(7, 5, seed=0), seed=3)
        rng = new_rng(11)
        parts = [oracle.symmetric_pair_payoffs(rng.integers(0, 5, size=(50, 5))) for _ in range(3)]
        return strategy_bytes(parts) + repr(oracle.queries).encode()

    out.append(("fill/bernoulli-bench", bench_fills))

    def wide_fills():
        # 441-entry blocks in stacks of 1-4, each stack followed by a single query
        oracle = gen.make_bernoulli_metagame(gen.planted_winrates(4, 21, seed=2), seed=5)
        rng = new_rng(12)
        parts = []
        for stack in range(8):
            parts.append(oracle.symmetric_pair_payoffs(rng.integers(0, 21, size=(1 + stack % 4, 2))))
            joint = tuple(int(a) for a in rng.integers(0, 21, size=4))
            parts.append(np.array([oracle.query(stack % 4, joint)]))
        return strategy_bytes(parts) + repr(oracle.queries).encode()

    out.append(("fill/bernoulli-wide", wide_fills))
    for game in ("blotto", "bernoulli"):
        out.append((f"uncached/symmetric/{game}/shannon/sampled/euclidean", uncached(solve(
            SymmetricAdidasSolver, game, entropy="shannon", iterations=40, samples=5,
            learning_rate=0.05, adi_threshold=0.05, exact_adi_every=10, seed=7,
        ))))
    out.append(("uncached/fill/bernoulli-stacked", uncached(stacked_fills)))
    out.append(("table/blotto10", lambda: gen.make_blotto(gen.BlottoSpec(10, 3, 4)).table.tobytes()))
    # the other two benchmark games built through from_batch_function
    out.append(("table/elfarol10", lambda: gen.make_el_farol().table.tobytes()))
    out.append(("table/planted7x5", lambda: gen.planted_winrates(7, 5, seed=0).table.tobytes()))
    out.append(("symmetric/elfarol70/shannon/sampled/euclidean", solve(
        SymmetricAdidasSolver, "elfarol70", entropy="shannon", iterations=40, samples=5,
        learning_rate=0.05, adi_threshold=0.05, exact_adi_every=10, seed=7,
    )))

    for game in ("shapley", "covariant3x3", "ragged234", "elfarol4_dense"):
        out.append((f"nfg/dumps/{game}", lambda game=game: nfg.dumps(games[game]()).encode()))

    def nfg_loads(text):
        def run():
            game, title, names = nfg.loads(text)
            return strategy_bytes([game.payoffs]) + repr((title, names)).encode()

        return run

    out.append(("nfg/loads/ragged", nfg_loads(RAGGED_NFG)))
    out.append(("nfg/loads/bad-payoff", nfg_loads(
        'NFG 1 R "bad" { "a" "b" } { 2 2 }\n\n1 -1 -1 1 x1 1 1 -1\n'
    )))
    out.append(("nfg/loads/unterminated-title", nfg_loads('NFG 1 R "open title { 2 2 }\n')))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(REPO_SRC), help="the src/ directory to import adinash from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    import adinash

    print(f"adinash from {pathlib.Path(adinash.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    for name, thunk in runs():
        try:
            payload = thunk()
        except Exception as err:  # an error is an outcome too; it must match
            payload = f"error {type(err).__name__}: {err}".encode()
            print(f"{name}: {payload.decode()}", file=sys.stderr)
        line = f"{hashlib.sha256(payload).hexdigest()}  {name}"
        print(line)
        total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    main()
