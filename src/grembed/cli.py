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
``graphwave_signature``, ``multiscale.OHMNET_CONFIG``,
``subgraph.classify_subgraphs`` and the ``harness`` evaluations);
reports read the values back from the library. A walk length counts
steps wherever it is taken (``--walk-length``, including ``roles --mode
struc2vec``, and ``walk --length``): a walk of length T holds T + 1
node ids.

``_FLAGS`` declares each flag once, ``_SUBCOMMANDS`` the flags each
subcommand reads whatever it runs, and ``_CHOICES`` the options that
each ``--method``, ``--kind``, ``--mode`` or ``--base`` reads. A choice
refuses an option that only other choices read, however it was set
(``error: uniform reads no --p``); a lookup-table row also refuses
those that ``shallow.unread_settings`` names.
"""

import argparse
import dataclasses
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


_INT_LISTS = ("hidden", "offsets")


def _given(args, *names):
    """The named options that a flag or the config file set."""
    values = {name: getattr(args, name) for name in names}
    return {name: _ints(v) if name in _INT_LISTS else v
            for name, v in values.items() if v is not None}


def _options(args, unread=(), how=""):
    """The options that the subcommand's choice reads (``_CHOICES``, less
    ``unread``) and a flag or the config file set, by dest. One that it
    does not read but another choice does is refused if set, whatever
    its value; ``how`` qualifies the choice in the message."""
    dest, rows = _CHOICES[args.command_name]
    choice = dest and getattr(args, dest)
    if choice not in rows and "*" not in rows:
        raise ConfigError(f"{dest} {choice!r} is not one of {tuple(rows)}")
    reads = [f for f in rows.get(choice, rows.get("*")) if f not in unread]
    refused = [f"--{f}" for f in dict.fromkeys(sum(rows.values(), ()))
               if f not in reads
               and getattr(args, f.replace("-", "_")) is not None]
    if refused:
        raise ConfigError(f"{choice}{how} reads no {', '.join(refused)}")
    return _given(args, *(f.replace("-", "_") for f in reads))


def _shallow_config(args, base=None):
    """``base`` with the seed and the options that ``_options`` gives,
    where the lookup-table row that ``--method`` or ``--base`` names
    also refuses those that ``shallow.unread_settings`` names."""
    from .shallow import ShallowConfig, unread_settings
    method = getattr(args, "method", None) or getattr(args, "base", None)
    unread = [name.replace("_", "-") for name in unread_settings(method)]
    # a method that reads no epochs trains nothing
    how = " is solved exactly and" if "epochs" in unread else ""
    return dataclasses.replace(base or ShallowConfig(), seed=args.seed,
                               **_options(args, unread, how))


def _metapath(value, names):
    """``--metapath``'s type names, as the types file writes them, as
    the indices that ``load_labels`` numbered ``names`` by."""
    parts = value.split(",") if isinstance(value, str) else value
    path = [str(p).strip() for p in parts if str(p).strip()]
    unknown = [p for p in path if p not in names]
    if unknown:
        raise ConfigError(f"--metapath names types {unknown} that the "
                          "types file does not have")
    return tuple(names.index(p) for p in path)


def _input_graph(args):
    return load_edge_list(_open_input(_need(args, "input")),
                          directed=args.directed)


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
    method = args.method
    if method in shallow.METHODS:
        cfg = _shallow_config(args)
        train = shallow.train_shallow
    elif method in ("sdne", "dngr"):
        from . import autoenc
        cfg = autoenc.AutoencoderConfig(seed=args.seed, **_options(args))
        # train_autoencoder returns (table, params)
        train = lambda *a: autoenc.train_autoencoder(*a)[0]
    else:
        raise ConfigError(
            f"unknown method {method!r}; "
            f"choose one of {shallow.METHODS + ('sdne', 'dngr')}")
    g = _input_graph(args)
    table = train(g, method, cfg)
    table.save(_need(args, "out"))
    return EvalReport(
        task="embed",
        metrics={"node_count": g.node_count, "edge_count": g.edge_count,
                 "dim": cfg.dim},
        config={"method": method, "seed": args.seed,
                "input": args.input, "out": args.out})


def _cmd_walk(args):
    options = _options(args)
    options.pop("types", None)  # a file path, not a WalkConfig field
    g = _input_graph(args)
    kind = args.kind
    if kind == "metapath":
        node_types, names = load_labels(_open_input(_need(args, "types")), g)
        g = g.with_types(node_types=node_types)
        options["metapath"] = _metapath(_need(args, "metapath"), names)
    cfg = WalkConfig(seed=args.seed, **options)
    # sample_uniform_walks, sample_node2vec_walks or sample_metapath_walks
    corpus = getattr(walks, f"sample_{kind}_walks")(g, cfg)
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
    options = _options(args)
    g = _input_graph(args)
    out = _need(args, "out")
    if args.mode == "struc2vec":
        table = structural.struc2vec_embed(g, seed=args.seed, **options)
        dim_key = "dim"
        config = {"k_max": table.metadata["k_max"], "seed": args.seed}
    else:
        if "scale" in options:
            options["s"] = options.pop("scale")
        table = structural.graphwave_signature(g, **options)
        dim_key, config = "signature_dim", table.metadata
    table.save(out)
    return EvalReport(
        task="roles",
        metrics={"node_count": g.node_count, dim_key: table.dim},
        config={"mode": args.mode, **config, "input": args.input,
                "out": out})


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
    base_cfg = _shallow_config(args)
    g = _input_graph(args)
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
    cfg = _shallow_config(args)
    g = _input_graph(args)
    table = multiscale.harp_train(g, args.base, args.levels, cfg)
    table.save(_need(args, "out"))
    return EvalReport(
        task="harp",
        metrics={"node_count": g.node_count, "dim": cfg.dim,
                 "levels": table.metadata["levels"]},
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


# ---------------------------------------------------------------------
# parser tables
# ---------------------------------------------------------------------

_INT = {"type": int}
_FLOAT = {"type": float}
_SWITCH = {"action": "store_true"}
_PATH = {"type": str}  # a file; a config file must give it as a string

# every flag once, with its argparse keywords; a flag without a default
# reads None when unset, so the library routine's own default applies
_FLAGS = {
    "input": _PATH, "out": _PATH, "directed": _SWITCH,
    "hidden": {"help": "autoencoder hidden widths, comma-separated"},
    "method": {"default": "deepwalk"},
    "dim": _INT, "epochs": _INT, "lr": _FLOAT, "batch-size": _INT,
    "walk-length": _INT, "walks-per-node": _INT, "window": _INT,
    "p": _FLOAT, "q": _FLOAT, "negatives": _INT, "power-max": _INT,
    "offsets": {},
    "kind": {"default": "uniform"}, "length": _INT,
    "types": {**_PATH, "help": "id<TAB>type file for metapath walks"},
    "metapath": {"help": "comma-separated type names, as in --types"},
    "mode": {"default": "graphwave"},
    "scale": _FLOAT, "t-points": _INT, "t-max": _FLOAT,
    # unset reads None, so that struc2vec can refuse it however it is set
    "include-psi": {**_SWITCH, "default": None}, "k-max": _INT,
    "dataset": _PATH, "rounds": _INT, "edge-dim": _INT, "out-dim": _INT,
    "target-acc": _FLOAT,
    "embedding": _PATH, "labels": _PATH, "train-fraction": _FLOAT,
    "eval-seeds": _INT, "holdout": _FLOAT, "k": _INT, "restarts": _INT,
    "dims": _INT,
    "base": {"default": "deepwalk"}, "levels": {"type": int, "default": 2},
    "layer": {"action": "append", "metavar": "NAME=PATH"},
    "hierarchy": _PATH, "lam": _FLOAT, "unsquared": _SWITCH,
    "out-prefix": _PATH,
    "config": {"help": "JSON file of option defaults; flags win"},
    "seed": _INT,
    "report": {**_PATH, "help": "also write the report lines to this file"},
}

_COMMON = ("config", "seed", "report")
# ShallowConfig flags: those of every skip-gram walk trainer (which
# also reads --negatives), then all that train_shallow's methods read
_SKIPGRAM = ("dim", "epochs", "lr", "batch-size", "walk-length",
             "walks-per-node", "window")
_SHALLOW = (*_SKIPGRAM, "p", "q", "negatives", "power-max", "offsets")
_AUTOENC = ("dim", "hidden", "epochs", "lr")
_WALK = ("length", "walks-per-node")

# each subcommand: its routine, its help line and the flags it reads
# whatever its choice, in --help order (its _CHOICES, _COMMON follow)
_SUBCOMMANDS = {
    "embed": (_cmd_embed, "train node embeddings",
              ("input", "out", "directed", "method")),
    "walk": (_cmd_walk, "sample random walks",
             ("input", "out", "directed", "kind")),
    "roles": (_cmd_roles, "structural role signatures",
              ("input", "out", "directed", "mode")),
    "subgraph": (_cmd_subgraph, "whole-graph classification",
                 ("dataset", "out", "rounds", "edge-dim", "out-dim",
                  "epochs", "lr", "target-acc")),
    "eval-nodes": (_cmd_eval_nodes, "node classification quality",
                   ("embedding", "labels", "train-fraction", "eval-seeds",
                    "epochs", "lr")),
    "eval-links": (_cmd_eval_links, "link prediction quality",
                   ("input", "directed", "holdout", "eval-seeds", "method")),
    "eval-cluster": (_cmd_eval_cluster, "clustering quality",
                     ("embedding", "labels", "k", "restarts")),
    "project": (_cmd_project, "2-d PCA projection",
                ("embedding", "out", "dims")),
    "harp": (_cmd_harp, "coarsen-then-train embeddings",
             ("input", "out", "directed", "base", "levels")),
    "ohmnet": (_cmd_ohmnet, "multilayer tied embeddings",
               ("layer", "hierarchy", "lam", "unsquared", "out-prefix")),
}

# each subcommand that _options reads: the flag that names its choice,
# then the options that each choice reads ("*": any choice not listed,
# which its routine checks); ohmnet has no choice, so one row
_CHOICES = {
    "embed": ("method", {"sdne": _AUTOENC, "dngr": _AUTOENC, "*": _SHALLOW}),
    "eval-links": ("method", {"*": _SHALLOW}),
    "harp": ("base", {"*": (*_SKIPGRAM, "p", "q", "negatives")}),
    "ohmnet": (None, {"*": (*_SKIPGRAM, "negatives")}),
    "walk": ("kind", {"uniform": _WALK, "node2vec": (*_WALK, "p", "q"),
                      "metapath": (*_WALK, "types", "metapath")}),
    "roles": ("mode", {
        "graphwave": ("scale", "t-points", "t-max", "include-psi"),
        "struc2vec": ("k-max", "dim", "walk-length", "walks-per-node",
                      "window", "epochs")}),
}


def build_parser():
    """The parser and its subparsers by name, built from the tables."""
    parser = argparse.ArgumentParser(
        prog="grembed", description="Graph embedding toolkit.")
    subs = parser.add_subparsers(dest="command_name", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        dest, rows = _CHOICES.get(name, (None, {}))
        for flag in (*flags, *dict.fromkeys(sum(rows.values(), ())),
                     *_COMMON):
            listed = flag == dest and "*" not in rows
            sp.add_argument("--" + flag, **_FLAGS[flag],
                            **({"choices": tuple(rows)} if listed else {}))
    return parser, subs.choices


def _load_config_file(path, sub):
    """The config file's options, keyed by the subcommand's dests."""
    with open(_open_input(path)) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    options = {}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        options[dest] = _config_value(key, value, actions[dest])
    return options


# the JSON values other than a string that a switch, a path and an int
# or a float flag take from the config file, and how to name them
_CONFIG_TYPES = {bool: ((bool,), "true or false"), str: ((), "a string"),
                 int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_value(key, value, action):
    """A config file's ``value`` as its flag would give it."""
    switch = action.nargs == 0
    if not switch and (action.type not in _CONFIG_TYPES
                       or isinstance(value, str)):
        return value  # argparse converts a string as it would the flag's
    types, what = _CONFIG_TYPES[bool if switch else action.type]
    # true and false are JSON integers too, but only a switch takes them
    if isinstance(value, types) and isinstance(value, bool) == switch:
        return action.type(value) if action.type else value
    raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")


def parse_args(argv):
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # the file's options become defaults for a second pass over the
        # same argv, so a flag wins however it is spelled; argparse type
        # conversion applies to a string from the file as to a flag
        sub = subs[args.command_name]
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
        report = _SUBCOMMANDS[args.command_name][0](args)
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
