"""Command-line entry point.

Subcommands cover the whole workflow: train a config, evaluate or fold
a checkpoint, probe effective receptive fields, and dump or generate
mask grids. Exit codes: 0 success, 1 runtime failure (diverged
training), 2 configuration or usage error, 3 data or file error
(malformed files; missing, unreadable or unwritable ones; data too large
to allocate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .checkpoint import checkpoint_from_model, load_checkpoint, restore_model, save_checkpoint
from .data import DATASET_IDS, DataError, DatasetSource
from .erf import dump_layer_masks, erf_radius, estimate_erf
from .masks import circular_mask, elliptic_mask, write_grid_csv, write_grid_pgm
from .train import ConfigError, evaluate, load_config, metrics_to_csv, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmconv",
        description="Train, evaluate, fold, and inspect Gaussian-masked conv nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a training config, print metrics CSV")
    t.add_argument("--config", required=True, help="JSON config file")
    t.add_argument("--out", default="", help="directory for metrics.csv and last.ckpt")
    t.add_argument("--seed", type=int, default=None, help="override the config seed")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="top-1 accuracy of a checkpoint on a split")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", default="", help="dataset root directory")
    e.add_argument("--dataset", default="cifar10-bin", choices=DATASET_IDS)
    e.add_argument("--split", default="test", choices=("train", "test"))
    e.add_argument("--subset", type=int, default=0,
                   help="first N records only (synthetic: sample count, 0 -> 1000)")
    e.add_argument("--mean", default="", help="comma-separated per-channel means")
    e.add_argument("--std", default="", help="comma-separated per-channel stds")
    e.add_argument("--seed", type=int, default=0, help="synthetic data seed")
    e.set_defaults(func=cmd_eval)

    f = sub.add_parser("fold", help="fold static masks into weights, write a new checkpoint")
    f.add_argument("--ckpt", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fold)

    r = sub.add_parser("erf", help="estimate an effective receptive field map")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--layer", type=int, required=True, help="module index to probe")
    r.add_argument("--samples", type=int, default=32)
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=cmd_erf)

    d = sub.add_parser("mask-dump", help="write every masked layer's current mask grid")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--out", required=True, help="output directory")
    d.set_defaults(func=cmd_mask_dump)

    g = sub.add_parser("mask-gen", help="generate a mask grid from sigma values")
    g.add_argument("--sigma", type=float, required=True)
    g.add_argument("--sigma2", type=float, default=None,
                   help="second axis width; makes the mask elliptic")
    g.add_argument("--k", type=int, required=True, help="kernel size")
    g.add_argument("--out", default="", help="output file (.csv or .pgm); default stdout CSV")
    g.set_defaults(func=cmd_mask_gen)

    return parser


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    history, ckpt = train(config, out_dir=args.out or None)
    sys.stdout.write(metrics_to_csv(history))
    if args.out:
        print(f"wrote {os.path.join(args.out, 'metrics.csv')} and last.ckpt", file=sys.stderr)
    return 0


def _parse_norm(mean_text: str, std_text: str):
    if bool(mean_text) != bool(std_text):
        raise ConfigError("--mean and --std must be given together")
    if not mean_text:
        return None
    mean = tuple(float(v) for v in mean_text.split(","))
    std = tuple(float(v) for v in std_text.split(","))
    return (mean, std)


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    norm = _parse_norm(args.mean, args.std)
    src = DatasetSource(
        args.dataset,
        root=args.data,
        split=args.split,
        normalization=norm,
        num_samples=args.subset,
        num_classes=ckpt.spec.num_classes,
        image_shape=ckpt.spec.input_shape,
        seed=args.seed,
    )
    acc = evaluate(ckpt, src)
    print("accuracy %.17g" % acc)
    return 0


def cmd_fold(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    model = restore_model(ckpt)
    folded = model.fold()
    out = checkpoint_from_model(model, epoch=ckpt.epoch, rng_state=ckpt.rng_state)
    save_checkpoint(out, args.out)
    print(f"folded {folded} static layers into plain convolutions -> {args.out}")
    return 0


def cmd_erf(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    ckpt = load_checkpoint(args.ckpt)
    model = restore_model(ckpt)
    erf = estimate_erf(model, args.layer, args.samples, rng=np.random.default_rng(args.seed))
    radius = erf_radius(erf)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"erf_layer{args.layer}")
    write_grid_csv(erf.values, stem + ".csv")
    write_grid_pgm(erf.values, stem + ".pgm")
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(
            {
                "layer_index": args.layer,
                "num_samples": args.samples,
                "radius": radius,
                "csv": os.path.basename(stem) + ".csv",
                "pgm": os.path.basename(stem) + ".pgm",
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print("erf_radius %.17g" % radius)
    return 0


def cmd_mask_dump(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    model = restore_model(ckpt)
    manifest = dump_layer_masks(model, args.out)
    print(f"wrote {len(manifest['layers'])} mask grids to {args.out}")
    return 0


def cmd_mask_gen(args) -> int:
    if args.sigma2 is None:
        mask = circular_mask(args.sigma, args.k)
    else:
        mask = elliptic_mask(args.sigma, args.sigma2, args.k)
    if not args.out:
        for row in mask.values:
            sys.stdout.write(",".join("%.17g" % v for v in row) + "\n")
        return 0
    write = write_grid_pgm if args.out.endswith(".pgm") else write_grid_csv
    write(mask.values, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except (DataError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except FloatingPointError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
