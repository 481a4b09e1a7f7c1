"""Command-line front end.

Subcommands:
  train      run the plain or pruning-only training mode
  transform  run the integrated prune+cluster training mode
  cluster    one-shot clustering of a saved checkpoint or a raw sparse matrix
  map        rebuild the crossbar mapping report from saved artifacts
  report     energy reports from a saved mapping report
  compare    run all four modes and emit the normalized summary CSV

Every subcommand takes --config (JSON); --seed/--out/--mode override the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .connectivity import ClusterFormatError, InputFormatError, cluster_sets_from_json, cluster_sets_to_json
from .connectivity import from_weights, load_sparse
from .experiment import compare, run_experiment, write_json
from .hardware import MappingFormatError, MappingReport, energy_document, map_to_mcas
from .mlp import load_checkpoint
from .sizecluster import size_constrained_cluster
from .transform import offline_cluster


def _load(args, forced_mode: str | None = None) -> "ExperimentConfig":
    overrides = {"seed": args.seed, "out_dir": args.out}
    if forced_mode is not None:
        overrides["mode"] = forced_mode
    elif getattr(args, "mode", None):
        overrides["mode"] = args.mode
    return load_config(args.config, overrides)


def _out_dir(cfg, args, default: str) -> Path:
    return Path(args.out or cfg.out_dir or default)


def cmd_train(args) -> int:
    cfg = _load(args)
    if cfg.mode not in ("original", "prune"):
        print(f"train runs modes original|prune; got {cfg.mode!r}", file=sys.stderr)
        return 2
    out = _out_dir(cfg, args, f"run_{cfg.mode}")
    summary = run_experiment(cfg, out)
    print(f"wrote {out}: accuracy={summary['accuracy']:.4f} sparsity={summary['sparsity']:.3f}")
    return 0


def cmd_transform(args) -> int:
    cfg = _load(args, forced_mode="transform")
    out = _out_dir(cfg, args, "run_transform")
    summary = run_experiment(cfg, out)
    print(
        f"wrote {out}: accuracy={summary['accuracy']:.4f} "
        f"num_mca={summary['num_mca']} total_E={summary['total_E']:.3e}"
    )
    return 0


def cmd_cluster(args) -> int:
    cfg = _load(args)
    out = Path(args.out or cfg.out_dir or "clusters.json")
    if args.matrix:
        sets = [size_constrained_cluster(load_sparse(args.matrix), cfg.scic, cfg.seed)]
    elif args.checkpoint:
        model, _ = load_checkpoint(args.checkpoint)
        sets = offline_cluster(model, cfg.scic, cfg.seed)
    else:
        print("cluster needs --matrix or --checkpoint", file=sys.stderr)
        return 2
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(cluster_sets_to_json(sets))
    total = sum(s.n_clusters for s in sets)
    residual = sum(s.residual.nnz for s in sets)
    print(f"wrote {out}: {total} clusters, {residual} residual synapses")
    return 0


def cmd_map(args) -> int:
    cfg = _load(args)
    model, _ = load_checkpoint(args.checkpoint)
    live = [from_weights(layer.weights) for layer in model.layers]
    crossbar = (cfg.tech.crossbar_rows, cfg.tech.crossbar_cols)
    try:
        text = Path(args.clusters).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ClusterFormatError(f"{args.clusters}: not UTF-8 text ({exc})") from None
    sets = cluster_sets_from_json(text, live, crossbar)
    report = map_to_mcas(sets, cfg.tech)
    out = Path(args.out or cfg.out_dir or "mapping.json")
    write_json(out, report.to_dict())
    print(f"wrote {out}: num_mca={report.num_mca} num_core={report.num_core}")
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    try:
        data = json.loads(Path(args.mapping).read_text())
    except ValueError as exc:
        raise MappingFormatError(f"mapping document: {type(exc).__name__}: {exc}") from None
    report = MappingReport.from_dict(data)
    doc = energy_document(report, cfg.tech, cfg.cmos, cfg.evals_per_inference, args.storage)
    out = Path(args.out or cfg.out_dir or "energy.json")
    write_json(out, doc)
    print(f"wrote {out}: total_E={doc['total_j']:.3e} cmos_E={doc['cmos']['total_j']:.3e}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg, args, "compare")
    rows = compare(cfg, out)
    for row in rows:
        print(
            f"{row['mode']:>16}: acc={row['accuracy']:.4f} num_mca={row['num_mca']:>5} "
            f"norm_num_mca={row['norm_num_mca']:.3f} norm_total_E={row['norm_total_E']:.3f}"
        )
    print(f"wrote {out / 'summary.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xbarnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode_flag=True):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory or file")
        if mode_flag:
            p.add_argument("--mode", default=None, help="override the config mode")

    p = sub.add_parser("train", help="plain or pruning-only training")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transform", help="integrated prune+cluster training")
    common(p, mode_flag=False)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("cluster", help="one-shot clustering of a model or matrix")
    common(p)
    p.add_argument("--checkpoint", default=None, help="checkpoint path (without suffix)")
    p.add_argument("--matrix", default=None, help="sparse coordinate matrix file")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("map", help="crossbar mapping report from saved artifacts")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--clusters", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("report", help="energy reports from a mapping report")
    common(p)
    p.add_argument("--mapping", required=True)
    p.add_argument("--storage", choices=("auto", "dense", "clustered"), default="auto")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="run all four modes and normalize")
    common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputFormatError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"{exc.filename}: is a directory, not a file", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
