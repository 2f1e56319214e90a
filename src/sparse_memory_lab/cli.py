"""Command-line front end.

Subcommands: train, lshsim, route-bench, theorem2, gradcheck. Every run is
seeded and writes CSV artifacts that are byte-identical across repeats on
the same platform.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import gradcheck as gradcheck_mod
from .config import ExperimentConfig, config_keys, load_config, set_config_value
from .embedding_depth import run_separation_experiment
from .lshsim import FAMILIES, collision_grid
from .reporting import write_csv
from .train import DivergenceError, run_lookup_benchmark, train_model

LSHSIM_COLUMNS = ("family", "f", "n", "l", "d", "trials", "p_hat", "stderr", "rho_hat")


def _add_config_overrides(parser: argparse.ArgumentParser) -> None:
    for key, _typ in config_keys():
        parser.add_argument(f"--{key}", dest=f"cfg::{key}", metavar="VALUE")


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """A train or route-bench run's config, unvalidated: the --config file or
    the defaults, then each key flag, --seed and --out (as io.out_dir)."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    for name, value in vars(args).items():
        if name.startswith("cfg::") and value is not None:
            set_config_value(config, name.removeprefix("cfg::"), value)
    if args.seed is not None:
        config.training.seed = args.seed
    if args.out is not None:
        config.io.out_dir = args.out
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sml", description="sparse external-memory lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one toy LM config")
    p_train.add_argument("--config", type=str, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", type=str, default=None)
    _add_config_overrides(p_train)

    p_lsh = sub.add_parser("lshsim", help="collision-rate Monte Carlo grid")
    p_lsh.add_argument("--family", type=str, default="all",
                       help="one family or 'all'")
    p_lsh.add_argument("--f", type=str, default="0.25,0.5,0.75",
                       help="comma-separated overlap fractions")
    p_lsh.add_argument("--n", type=str, default="256",
                       help="comma-separated table sizes")
    p_lsh.add_argument("--l", type=int, default=32)
    p_lsh.add_argument("--d", type=int, default=64)
    p_lsh.add_argument("--trials", type=int, default=10000)
    p_lsh.add_argument("--seed", type=int, default=0)
    p_lsh.add_argument("--out", type=str, default="out")

    p_bench = sub.add_parser("route-bench", help="rank x buckets lookup sweep")
    p_bench.add_argument("--config", type=str, default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", type=str, default=None)
    p_bench.add_argument("--lookup", type=str, default="softmax")
    p_bench.add_argument("--ranks", type=str, default="0,4,16")
    p_bench.add_argument("--buckets", type=str, default="8,32,64")
    _add_config_overrides(p_bench)

    p_sep = sub.add_parser("theorem2",
                           help="input-only vs per-layer embedding separation")
    p_sep.add_argument("--d", type=int, default=16)
    p_sep.add_argument("--u-count", type=int, default=64)
    p_sep.add_argument("--depth", type=int, default=2)
    p_sep.add_argument("--steps", type=int, default=1500)
    p_sep.add_argument("--train-size", type=int, default=4096)
    p_sep.add_argument("--seeds", type=int, default=3)
    p_sep.add_argument("--seed", type=int, default=0)
    p_sep.add_argument("--out", type=str, default="out")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient battery")
    p_grad.add_argument("--epsilon", type=float, default=1e-5)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--out", type=str, default="out")

    return parser


def _parse_list(raw: str, typ, flag: str) -> list:
    """The comma-separated values of a list flag: at least one, none repeated."""
    values = []
    for tok in filter(str.strip, raw.split(",")):
        try:
            value = typ(tok)
        except ValueError:
            raise ValueError(f"{flag} takes comma-separated {typ.__name__} values, "
                             f"got {tok.strip()!r}") from None
        if value in values:
            raise ValueError(f"{flag} repeats the value {tok.strip()}")
        values.append(value)
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "train":
            config = _config(args)
            trainer = train_model(config)
            last = trainer.rows[-1]
            print(f"trained {config.training.steps} steps: "
                  f"eval loss {last['eval_loss']:.4f} nats/token "
                  f"(corpus entropy {trainer.entropy_rate:.4f}), "
                  f"accuracy {last['eval_accuracy']:.4f}")
            return 0

        if args.command == "lshsim":
            families = list(FAMILIES) if args.family == "all" else [args.family]
            f_grid = _parse_list(args.f, float, "--f")
            n_grid = _parse_list(args.n, int, "--n")
            t0 = time.perf_counter()
            rows = collision_grid(families, f_grid, n_grid, args.l, args.d,
                                  args.trials, args.seed)
            seconds = max(time.perf_counter() - t0, 1e-9)
            out = Path(args.out)
            write_csv(out / "lshsim.csv", LSHSIM_COLUMNS, rows)
            # wall-clock speed stays outside the deterministic CSV, as in `train`
            (out / "speed.txt").write_text(
                f"grid_seconds {seconds:.3f}\n"
                f"trials_per_sec {args.trials * len(rows) / seconds:.3f}\n")
            for r in rows:
                print(f"{r['family']:>10} f={r['f']:<5} n={r['n']:<6} "
                      f"p_hat={r['p_hat']:.5f} stderr={r['stderr']:.5f}")
            return 0

        if args.command == "route-bench":
            config = _config(args)
            grid = [(args.lookup, r, b)
                    for r in _parse_list(args.ranks, int, "--ranks")
                    for b in _parse_list(args.buckets, int, "--buckets")]
            rows = run_lookup_benchmark(grid, config)
            for r in rows:
                print(f"{r['lookup']} rank={r['rank']} buckets={r['buckets']} "
                      f"eval_loss={r['final_eval_loss']:.4f}")
            return 0

        if args.command == "theorem2":
            seeds = tuple(args.seed + i for i in range(args.seeds))
            rows = run_separation_experiment(
                d=args.d, u_count=args.u_count, depth=args.depth, seeds=seeds,
                steps=args.steps, train_size=args.train_size,
                out_path=Path(args.out) / "separation.csv")
            for r in rows:
                print(f"{r['architecture']:>10} width={r['width']:<4} seed={r['seed']} "
                      f"test_mse={r['test_mse']:.5f}")
            return 0

        if args.command == "gradcheck":
            rows = gradcheck_mod.run_gradcheck_battery(args.epsilon, args.tolerance)
            write_csv(Path(args.out) / "gradcheck.csv", gradcheck_mod.GRADCHECK_COLUMNS, rows)
            ok = True
            for r in rows:
                status = "pass" if r["passed"] else "FAIL"
                ok = ok and bool(r["passed"])
                print(f"{r['check']:>40}: max rel err {r['max_rel_error']:.3e} [{status}]")
            return 0 if ok else 1

    except (OSError, ValueError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    parser.error(f"unknown command {args.command!r}")
    return 2


def main() -> None:
    sys.exit(cli_main())
