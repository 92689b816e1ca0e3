"""Command line front end.

Each subcommand reads flags, optionally merges a JSON config file, runs
the corresponding library routine, and emits a machine-readable report
of key<TAB>value lines behind a ``#version`` header on stdout, with a
one-line human summary on stderr. Exit codes: 0 on success, 2 on
configuration or input problems, 3 on runtime failures.

Each subcommand imports the layers it runs in its own body, so a call
loads only those. ``load_edge_list`` and ``load_embedding`` stay names
of this module, looked up when a command runs, so that a tool can wrap
them here to time the loads, as ``perfbench/tracecli.py`` does.

An option's value comes from the first of: its flag, in any form
argparse accepts (``--epochs 3``, ``--epochs=3``, ``--epoch 3``); the
``--config`` file, keyed by option name (``walk-length`` or
``walk_length``); for ``--seed`` the ``GREMBED_SEED`` environment
variable, then 42. An option set by neither flag nor file is not passed
on, so the library routine's own default applies (``ShallowConfig``,
``AutoencoderConfig``, ``WalkConfig``, ``struc2vec_embed``,
``multiscale.OHMNET_CONFIG``, ``subgraph.classify_subgraphs`` and the
``harness`` evaluations, and ``structural.default_t_grid`` and
``graphwave_signature`` for ``roles``); reports read the values back
from the library.
"""

import argparse
import dataclasses
import inspect
import json
import os
import sys
import time

from . import walks
from .errors import (
    ConfigError,
    ContractError,
    EdgeListParseError,
    GrembedError,
    ValidationError,
)
from .graph import load_edge_list, load_labels
from .report import EvalReport
from .table import load_embedding
from .walks import WalkConfig

WALK_KINDS = ("uniform", "node2vec", "metapath")


def _ints(value):
    """Comma-separated string or JSON list -> tuple of ints."""
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = list(value)
    try:
        return tuple(int(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a comma-separated int list, got {value!r}")


def _need(args, name):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise ConfigError(f"--{name} is required")
    return value


def _open_input(path):
    """Fail early with the offending path when an input is missing."""
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    if os.path.isdir(path):
        raise ConfigError(f"input path is a directory: {path}")
    return path


_SHALLOW_OPTIONS = ("dim", "epochs", "lr", "batch_size", "walk_length",
                    "walks_per_node", "window", "p", "q", "negatives",
                    "power_max", "offsets")
_INT_LISTS = ("hidden", "offsets")


def _given(args, *names):
    """The named options that a flag or the config file set."""
    values = {name: getattr(args, name) for name in names}
    return {name: _ints(v) if name in _INT_LISTS else v
            for name, v in values.items() if v is not None}


def _shallow_config(args, base=None):
    from .shallow import ShallowConfig
    return dataclasses.replace(base or ShallowConfig(), seed=args.seed,
                               **_given(args, *_SHALLOW_OPTIONS))


def _keyword_defaults(fn):
    """The keyword defaults of a library routine, by parameter name."""
    return {name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def _eval_seeds(args):
    """The ``seeds`` keyword for an ``--eval-seeds`` count, if one was set."""
    if args.eval_seeds is None:
        return {}
    return {"seeds": range(args.eval_seeds)}


# ---------------------------------------------------------------------
# subcommand bodies; each returns an EvalReport
# ---------------------------------------------------------------------


def _cmd_embed(args):
    from . import shallow
    g = load_edge_list(_open_input(_need(args, "input")),
                       directed=args.directed)
    method = args.method
    if method in shallow.METHODS:
        cfg = _shallow_config(args)
        table = shallow.train_shallow(g, method, cfg)
    elif method in ("sdne", "dngr"):
        from . import autoenc
        cfg = autoenc.AutoencoderConfig(
            seed=args.seed, **_given(args, "dim", "hidden", "epochs", "lr"))
        table, _ = autoenc.train_autoencoder(g, method, cfg)
    else:
        raise ConfigError(
            f"unknown method {method!r}; "
            f"choose one of {shallow.METHODS + ('sdne', 'dngr')}")
    table.save(_need(args, "out"))
    return EvalReport(
        task="embed",
        metrics={"node_count": g.node_count, "edge_count": g.edge_count,
                 "dim": cfg.dim},
        config={"method": method, "seed": args.seed,
                "input": args.input, "out": args.out})


def _cmd_walk(args):
    g = load_edge_list(_open_input(_need(args, "input")),
                       directed=args.directed)
    kind = args.kind
    metapath = None
    if kind == "metapath":
        types_path = _need(args, "types")
        node_types, _ = load_labels(_open_input(types_path), g)
        g = g.with_types(node_types=node_types)
        metapath = _ints(_need(args, "metapath"))
    cfg = WalkConfig(metapath=metapath, seed=args.seed,
                     **_given(args, "length", "walks_per_node", "p", "q"))
    if kind == "uniform":
        corpus = walks.sample_uniform_walks(g, cfg)
    elif kind == "node2vec":
        corpus = walks.sample_node2vec_walks(g, cfg)
    elif kind == "metapath":
        corpus = walks.sample_metapath_walks(g, cfg)
    else:
        raise ConfigError(f"unknown walk kind {kind!r}")
    corpus.dump(_need(args, "out"))
    return EvalReport(
        task="walk",
        metrics={"walk_count": len(corpus),
                 "skipped_starts": corpus.skipped_starts,
                 "node_count": g.node_count},
        config={"kind": kind, "length": cfg.length,
                "walks_per_node": cfg.walks_per_node, "p": cfg.p,
                "q": cfg.q, "seed": args.seed, "input": args.input,
                "out": args.out})


def _cmd_roles(args):
    from . import structural
    g = load_edge_list(_open_input(_need(args, "input")),
                       directed=args.directed)
    out = _need(args, "out")
    if args.mode == "graphwave":
        grid_kw = _given(args, "t_max", "t_points")
        scale_kw = {} if args.scale is None else {"s": args.scale}
        grid = structural.default_t_grid(**grid_kw)
        sigs = structural.graphwave_signature(g, t_grid=grid, **scale_kw)
        structural.export_signatures(out, sigs, list(g.node_ids),
                                     include_psi=args.include_psi)
        width = sigs[0].char_samples.size
        if args.include_psi:
            width += sigs[0].psi.size
        used = {**_keyword_defaults(structural.default_t_grid), **grid_kw,
                **_keyword_defaults(structural.graphwave_signature),
                **scale_kw}
        return EvalReport(
            task="roles",
            metrics={"node_count": g.node_count, "signature_dim": width},
            config={"mode": "graphwave", "scale": used["s"],
                    "t_points": used["t_points"], "t_max": used["t_max"],
                    "input": args.input, "out": out})
    if args.mode == "struc2vec":
        table = structural.struc2vec_embed(
            g, seed=args.seed, **_given(args, "k_max", "dim", "walk_length",
                                        "walks_per_node", "window", "epochs"))
        table.save(out)
        return EvalReport(
            task="roles",
            metrics={"node_count": g.node_count, "dim": table.dim},
            config={"mode": "struc2vec", "k_max": table.metadata["k_max"],
                    "seed": args.seed, "input": args.input, "out": out})
    raise ConfigError(f"unknown roles mode {args.mode!r}")


def _cmd_subgraph(args):
    from . import subgraph
    specs = subgraph.parse_multigraph_file(_open_input(_need(args, "dataset")))
    model, acc = subgraph.classify_subgraphs(
        specs, seed=args.seed, target_acc=args.target_acc,
        **_given(args, "rounds", "edge_dim", "out_dim", "epochs", "lr"))
    if args.out is not None:
        picked = model.predict(specs)
        with open(args.out, "w") as fh:
            fh.write("graph_id\tpredicted\tlabel\n")
            for spec, p in zip(specs, picked):
                fh.write(f"{spec.name}\t{p}\t{spec.label}\n")
    return EvalReport(
        task="subgraph",
        metrics={"train_accuracy": acc, "graph_count": len(specs),
                 "epochs_run": len(model.history)},
        config={"rounds": model.params.rounds,
                "edge_dim": model.params.edge_dim,
                "out_dim": model.params.out_dim, "seed": args.seed,
                "dataset": args.dataset})


def _cmd_eval_nodes(args):
    from . import harness
    table = load_embedding(_open_input(_need(args, "embedding")))
    labels, _ = load_labels(_open_input(_need(args, "labels")), table)
    report = harness.node_classification_eval(
        table.vectors, labels, **_eval_seeds(args),
        **_given(args, "train_fraction", "epochs", "lr"))
    report.config.update({"embedding": args.embedding, "labels": args.labels})
    return report


def _cmd_eval_links(args):
    from . import harness, shallow
    g = load_edge_list(_open_input(_need(args, "input")),
                       directed=args.directed)
    base_cfg = _shallow_config(args)
    method = args.method

    def embed_fn(residual, seed):
        cfg = dataclasses.replace(base_cfg, seed=args.seed + 7919 * seed)
        return shallow.train_shallow(residual, method, cfg)

    options = _eval_seeds(args)
    if args.holdout is not None:
        options["holdout_fraction"] = args.holdout
    report = harness.link_prediction_eval(g, embed_fn, **options)
    report.config.update({"method": method,
                          "holdout": report.config["holdout_fraction"],
                          "seed": args.seed, "input": args.input})
    return report


def _cmd_eval_cluster(args):
    from . import harness
    table = load_embedding(_open_input(_need(args, "embedding")))
    labels, names = load_labels(_open_input(_need(args, "labels")), table)
    k = args.k if args.k is not None else len(names)
    report = harness.clustering_eval(table.vectors, labels, k,
                                     seed=args.seed,
                                     **_given(args, "restarts"))
    report.config.update({"embedding": args.embedding, "labels": args.labels,
                          "seed": args.seed})
    return report


def _cmd_project(args):
    from . import harness
    table = load_embedding(_open_input(_need(args, "embedding")))
    out = _need(args, "out")
    coords = harness.export_projection(out, table.vectors, table.node_ids,
                                       **_given(args, "dims"))
    return EvalReport(
        task="project",
        metrics={"node_count": len(table.vectors), "dims": coords.shape[1]},
        config={"embedding": args.embedding, "out": out})


def _cmd_harp(args):
    from . import multiscale
    g = load_edge_list(_open_input(_need(args, "input")),
                       directed=args.directed)
    cfg = _shallow_config(args)
    table = multiscale.harp_train(g, args.base, args.levels, cfg)
    table.save(_need(args, "out"))
    return EvalReport(
        task="harp",
        metrics={"node_count": g.node_count, "dim": cfg.dim,
                 "levels": args.levels},
        config={"base": args.base, "seed": args.seed,
                "input": args.input, "out": args.out})


def _cmd_ohmnet(args):
    from . import multiscale
    if not args.layer:
        raise ConfigError("at least one --layer NAME=PATH is required")
    layer_files = {}
    order = []
    for spec in args.layer:
        if "=" not in spec:
            raise ConfigError(f"--layer expects NAME=PATH, got {spec!r}")
        name, path = spec.split("=", 1)
        if name in layer_files:
            raise ConfigError(f"duplicate layer name {name!r}")
        layer_files[name] = _open_input(path)
        order.append(name)

    tied = None
    if args.hierarchy is not None:
        hier = multiscale.load_hierarchy(_open_input(args.hierarchy),
                                         layer_files)
        order = hier.names
        graphs = [hier.layers[n] for n in order]
        tied = hier.tied_index_pairs()
    else:
        graphs = [load_edge_list(layer_files[n]) for n in order]

    cfg = _shallow_config(args, multiscale.OHMNET_CONFIG)
    tables = multiscale.ohmnet_train(graphs, config=cfg, hierarchy_edges=tied,
                                     squared=not args.unsquared,
                                     **_given(args, "lam"))
    prefix = _need(args, "out_prefix")
    for name, table in zip(order, tables):
        table.save(f"{prefix}{name}.tsv")

    gap = multiscale.inter_layer_gap(tables, tied)
    return EvalReport(
        task="ohmnet",
        metrics={"layer_count": len(graphs), "inter_layer_gap": gap,
                 "dim": cfg.dim},
        config={"lam": tables[0].metadata["lam"], "seed": args.seed,
                "layers": ",".join(order), "out_prefix": prefix})


_COMMANDS = {
    "embed": _cmd_embed,
    "walk": _cmd_walk,
    "roles": _cmd_roles,
    "subgraph": _cmd_subgraph,
    "eval-nodes": _cmd_eval_nodes,
    "eval-links": _cmd_eval_links,
    "eval-cluster": _cmd_eval_cluster,
    "project": _cmd_project,
    "harp": _cmd_harp,
    "ohmnet": _cmd_ohmnet,
}


# ---------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", default=None,
                    help="JSON file of option defaults; flags win")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--report", default=None,
                    help="also write the report lines to this file")


def _add_shallow_flags(sp, with_method=True):
    if with_method:
        sp.add_argument("--method", default="deepwalk")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--walk-length", type=int, default=None)
    sp.add_argument("--walks-per-node", type=int, default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--negatives", type=int, default=None)
    sp.add_argument("--power-max", type=int, default=None)
    sp.add_argument("--offsets", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grembed", description="Graph embedding toolkit.")
    subs = parser.add_subparsers(dest="command_name", required=True)
    built = {}

    sp = subs.add_parser("embed", help="train node embeddings")
    sp.add_argument("--input", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--directed", action="store_true")
    sp.add_argument("--hidden", default=None,
                    help="autoencoder hidden widths, comma-separated")
    _add_shallow_flags(sp)
    _add_common(sp)
    built["embed"] = sp

    sp = subs.add_parser("walk", help="sample random walks")
    sp.add_argument("--input", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--directed", action="store_true")
    sp.add_argument("--kind", default="uniform", choices=WALK_KINDS)
    sp.add_argument("--length", type=int, default=None)
    sp.add_argument("--walks-per-node", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--types", default=None,
                    help="id<TAB>type file for metapath walks")
    sp.add_argument("--metapath", default=None,
                    help="comma-separated type indices")
    _add_common(sp)
    built["walk"] = sp

    sp = subs.add_parser("roles", help="structural role signatures")
    sp.add_argument("--input", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--directed", action="store_true")
    sp.add_argument("--mode", default="graphwave",
                    choices=("graphwave", "struc2vec"))
    sp.add_argument("--scale", type=float, default=None)
    sp.add_argument("--t-points", type=int, default=None)
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument("--include-psi", action="store_true")
    sp.add_argument("--k-max", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--walk-length", type=int, default=None)
    sp.add_argument("--walks-per-node", type=int, default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    _add_common(sp)
    built["roles"] = sp

    sp = subs.add_parser("subgraph", help="whole-graph classification")
    sp.add_argument("--dataset", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--edge-dim", type=int, default=None)
    sp.add_argument("--out-dim", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--target-acc", type=float, default=None)
    _add_common(sp)
    built["subgraph"] = sp

    sp = subs.add_parser("eval-nodes", help="node classification quality")
    sp.add_argument("--embedding", default=None)
    sp.add_argument("--labels", default=None)
    sp.add_argument("--train-fraction", type=float, default=None)
    sp.add_argument("--eval-seeds", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    _add_common(sp)
    built["eval-nodes"] = sp

    sp = subs.add_parser("eval-links", help="link prediction quality")
    sp.add_argument("--input", default=None)
    sp.add_argument("--directed", action="store_true")
    sp.add_argument("--holdout", type=float, default=None)
    sp.add_argument("--eval-seeds", type=int, default=None)
    _add_shallow_flags(sp)
    _add_common(sp)
    built["eval-links"] = sp

    sp = subs.add_parser("eval-cluster", help="clustering quality")
    sp.add_argument("--embedding", default=None)
    sp.add_argument("--labels", default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=None)
    _add_common(sp)
    built["eval-cluster"] = sp

    sp = subs.add_parser("project", help="2-d PCA projection")
    sp.add_argument("--embedding", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--dims", type=int, default=None)
    _add_common(sp)
    built["project"] = sp

    sp = subs.add_parser("harp", help="coarsen-then-train embeddings")
    sp.add_argument("--input", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--directed", action="store_true")
    sp.add_argument("--base", default="deepwalk")
    sp.add_argument("--levels", type=int, default=2)
    _add_shallow_flags(sp, with_method=False)
    _add_common(sp)
    built["harp"] = sp

    sp = subs.add_parser("ohmnet", help="multilayer tied embeddings")
    sp.add_argument("--layer", action="append", default=None,
                    metavar="NAME=PATH")
    sp.add_argument("--hierarchy", default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--unsquared", action="store_true")
    sp.add_argument("--out-prefix", default=None)
    _add_shallow_flags(sp, with_method=False)
    _add_common(sp)
    built["ohmnet"] = sp

    return parser, built


def _load_config_file(path, sub):
    """The config file's options, keyed by the subcommand's dests."""
    with open(_open_input(path)) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    dests = {a.dest for a in sub._actions}
    options = {}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in dests:
            raise ConfigError(f"unknown config key {key!r}")
        options[dest] = value
    return options


def parse_args(argv):
    parser, built = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # the file's options become defaults for a second pass over the
        # same argv, so a flag wins however it is spelled; argparse type
        # conversion applies to a string from the file as to a flag
        sub = built[args.command_name]
        sub.set_defaults(**_load_config_file(args.config, sub))
        flags, args = args, parser.parse_args(argv)
        if getattr(flags, "layer", None) is not None:
            args.layer = flags.layer  # not appended to the file's list
    if args.seed is None:
        env_seed = os.environ.get("GREMBED_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ConfigError(
                    f"GREMBED_SEED is not an integer: {env_seed!r}")
    if args.seed is None:
        args.seed = 42
    return args


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    try:
        args = parse_args(argv)
        report = _COMMANDS[args.command_name](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, ContractError, ValidationError,
            EdgeListParseError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    report.wall_clock = time.perf_counter() - started
    text = "\n".join(report.lines()) + "\n"
    sys.stdout.write(text)
    if args.report is not None:
        with open(args.report, "w") as fh:
            fh.write(text)
    print(report.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
