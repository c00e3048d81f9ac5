"""Command-line entry points: gen-data, train, tune, eval, report.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .config import ConfigError, parse_config
from .data import IdxFormatError, generate_synthetic, load_idx, write_idx
from .runner import evaluate_model, run_experiment, tune_experiment
from .tensor import ContractError, NumericError, ShapeError
from .tpe import StudyError
from .training import CheckpointError, load_checkpoint


def _cmd_gen_data(args):
    dataset = generate_synthetic(args.n, args.classes, (args.size, args.size),
                                 args.noise, args.seed)
    write_idx(dataset, args.out + "-images.idx", args.out + "-labels.idx")
    print(f"wrote {args.n} samples to {args.out}-images.idx / {args.out}-labels.idx")
    return 0


def _cmd_train(args):
    cfg = parse_config(args.config)
    result = run_experiment(cfg, out_dir=args.out_dir)
    out = args.out_dir or cfg.output_dir
    if "accuracy" in result:
        print(f"run complete: test accuracy {result['accuracy']:.4f} ({out})")
    else:
        print(f"{len(result)} seeded runs complete ({out})")
    return 0


def _cmd_tune(args):
    cfg = parse_config(args.config)
    n_trials = cfg.hyperopt["n_trials"] if args.trials is None else args.trials
    best, trials = tune_experiment(cfg, n_trials, out_dir=args.out_dir)
    print(f"best trial {best.trial_index}: eta={best.params[0]:.3g} "
          f"alpha={best.params[1]:.4f} temp={best.params[2]:.3f} "
          f"objective={best.objective:.4f}")
    return 0


def _cmd_eval(args):
    model = load_checkpoint(args.checkpoint)
    dataset = load_idx(args.data[0], args.data[1])
    if not len(dataset):
        raise ContractError(f"{args.data[0]} holds no images")
    if dataset.num_classes > model.num_classes:
        raise ContractError(
            f"class-count mismatch: checkpoint has {model.num_classes} classes, "
            f"data has labels up to {dataset.num_classes - 1}"
        )
    json.dump(evaluate_model(model, dataset), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


@contextlib.contextmanager
def _shape_errors(path):
    """Report a run file that parses but has the wrong shape as a runtime
    error naming the file and the missing or bad key."""
    try:
        yield
    except KeyError as exc:
        raise RuntimeError(f"{path} lacks key {exc}") from None
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise RuntimeError(f"{path} has the wrong shape: {exc}") from None


def _render_run(path):
    payload = _read_json(path)
    with _shape_errors(path):
        print(f"{'stage':<6}{'train_acc':>11}{'test_acc':>10}{'train_loss':>12}{'test_loss':>11}")
        prev = None
        for row in payload["progression"]:
            delta = "" if prev is None else f"  ({row['test_acc'] - prev:+.4f})"
            print(f"{row['stage']:<6}{row['train_acc']:>11.4f}{row['test_acc']:>10.4f}"
                  f"{row['train_loss']:>12.4f}{row['test_loss']:>11.4f}{delta}")
            prev = row["test_acc"]
        theory = payload["theory"]
        print(f"risk hierarchy holds: {theory['hierarchy_holds']}  "
              f"risks: {['%.4f' % r for r in theory['risks']]}")
        kl = [f"KL(M{i + 1}||M{i})={theory[f'kl_m{i + 1}_m{i}']:.5f}  "
              for i in range(1, len(payload["progression"]))]
        print(f"{''.join(kl)}beta_hat={theory['beta_hat']}")


def _delta_rank(key):
    """Where `runner.deltas` puts "m<i>_to_m<j>": each stage over its
    predecessor in stage order, then the last over the first. Any other
    key, of any JSON type, raises ValueError."""
    i, j = map(int, str(key).removeprefix("m").split("_to_m"))
    return j != i + 1, i


def _read_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise RuntimeError(f"malformed JSON in {path}: {exc}") from None


def _cmd_report(args):
    summary_path = os.path.join(args.run_dir, "summary.json")
    if not os.path.exists(summary_path):
        _render_run(os.path.join(args.run_dir, "metrics.json"))
        return 0
    # a multi-seed run: each seed's chain, then the summary across seeds
    summary = _read_json(summary_path)
    with _shape_errors(summary_path):
        seeds = sorted(summary, key=int)
    for seed in seeds:
        print(f"seed {seed}")
        _render_run(os.path.join(args.run_dir, f"seed_{seed}", "metrics.json"))
        print()
    with _shape_errors(summary_path):
        columns = sorted(summary[seeds[0]]["deltas"], key=_delta_rank) if seeds else []
        print(f"{'seed':<6}{'accuracy':>10}" + "".join(f"{c:>10}" for c in columns))
        for seed in seeds:
            d = summary[seed]["deltas"]
            print(f"{seed:<6}{summary[seed]['accuracy']:>10.4f}"
                  + "".join(f"{d[c]:>+10.4f}" for c in columns))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="weckd",
                                     description="Chained knowledge-distillation training engine")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic IDX dataset pair")
    g.add_argument("--out", required=True, help="output path prefix")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--size", type=int, default=32)
    g.add_argument("--noise", type=float, default=0.15)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=_cmd_gen_data)

    t = sub.add_parser("train", help="run the full distillation chain")
    t.add_argument("--config", required=True)
    t.add_argument("--out-dir", default=None)
    t.set_defaults(fn=_cmd_train)

    u = sub.add_parser("tune", help="TPE hyperparameter search")
    u.add_argument("--config", required=True)
    u.add_argument("--trials", type=int, default=None,
                   help="number of TPE trials (default: the config's hyperopt.n_trials)")
    u.add_argument("--out-dir", default=None)
    u.set_defaults(fn=_cmd_tune)

    e = sub.add_parser("eval", help="evaluate a checkpoint on an IDX dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", nargs=2, required=True, metavar=("IMAGES", "LABELS"))
    e.set_defaults(fn=_cmd_eval)

    r = sub.add_parser("report", help="re-render the chain report from a run directory")
    r.add_argument("run_dir")
    r.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IdxFormatError, CheckpointError, NumericError, StudyError,
            OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
