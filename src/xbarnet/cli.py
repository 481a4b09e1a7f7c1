"""Command-line front end.

Subcommands:
  train      run one mode: original, prune, offline_cluster or transform
  cluster    one-shot clustering of a saved checkpoint
  map        rebuild the crossbar mapping report from saved artifacts
  report     energy reports from a saved mapping report
  compare    run all four modes and emit the normalized summary CSV

Every subcommand takes --config (JSON); --seed/--out (and train's --mode) override the file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MODES, ConfigError, load_config
from .connectivity import ClusterFormatError, InputFormatError, cluster_sets_from_json, cluster_sets_to_json
from .connectivity import from_weights
from .experiment import compare, run_experiment, write_json
from .hardware import energy_document, map_to_mcas, mapping_from_json
from .mlp import load_checkpoint
from .transform import offline_cluster


def _load(args, mode: str | None = None) -> "ExperimentConfig":
    return load_config(args.config, {"seed": args.seed, "out_dir": args.out, "mode": mode})


def _out_dir(cfg, args, default: str) -> Path:
    return Path(args.out or cfg.out_dir or default)


def _out_file(cfg, args, name: str) -> Path:
    """``--out`` is the output file itself; a config's ``out_dir`` is the directory that gets ``name``."""
    return Path(args.out) if args.out else Path(cfg.out_dir or "") / name


def cmd_train(args) -> int:
    cfg = _load(args, args.mode)
    out = _out_dir(cfg, args, f"run_{cfg.mode}")
    summary = run_experiment(cfg, out)
    print(
        f"wrote {out}: accuracy={summary['accuracy']:.4f} sparsity={summary['sparsity']:.3f} "
        f"num_mca={summary['num_mca']} total_E={summary['total_E']:.3e}"
    )
    return 0


def cmd_cluster(args) -> int:
    cfg = _load(args)
    out = _out_file(cfg, args, "clusters.json")
    model, _ = load_checkpoint(args.checkpoint)
    sets = offline_cluster(model, cfg.scic, cfg.seed)
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
    mapping = map_to_mcas(sets, cfg.tech)
    out = _out_file(cfg, args, "mapping.json")
    write_json(out, mapping)
    print(f"wrote {out}: num_mca={mapping['num_mca']} num_core={mapping['num_core']}")
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    mapping = mapping_from_json(Path(args.mapping).read_bytes())
    doc = energy_document(mapping, cfg.tech, args.storage)
    out = _out_file(cfg, args, "energy.json")
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

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory or file")

    p = sub.add_parser("train", help="run one mode end to end")
    common(p)
    p.add_argument("--mode", default=None, help=f"override the config mode: one of {', '.join(MODES)}")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cluster", help="one-shot clustering of a saved checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint path (without suffix)")
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
        message = str(exc)
    except FileNotFoundError as exc:
        message = f"missing input: {exc}"
    except IsADirectoryError as exc:
        message = f"{exc.filename}: is a directory, not a file"
    except (NotADirectoryError, FileExistsError) as exc:
        message = f"{exc.filename}: a file stands where the path needs a directory"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
