import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grembed
from grembed import cli, harness, multiscale, shallow, structural, subgraph
from grembed.fixtures import cycles_and_paths, karate_club, two_layer_graphs
from grembed.graph import export_edge_list, load_edge_list, load_labels
from grembed.table import load_embedding


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    g, labels = karate_club()
    export_edge_list(g, str(root / "karate.edges"))
    with open(root / "karate.labels", "w") as fh:
        for i, nid in enumerate(g.node_ids):
            fh.write(f"{nid}\t{labels[i]}\n")
    with open(root / "toy.graphs", "w") as fh:
        for i, (sg, lab) in enumerate(cycles_and_paths(10, 5, 7, seed=0)):
            fh.write(f"#graph g{i} {lab}\n")
            for (u, v) in sg.edge_pairs:
                fh.write(f"{sg.node_ids[int(u)]}\t{sg.node_ids[int(v)]}\n")
            fh.write("\n")
    a, b = two_layer_graphs(n=10, seed=1)
    export_edge_list(a, str(root / "la.edges"))
    export_edge_list(b, str(root / "lb.edges"))
    return root


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(text):
    lines = text.strip().splitlines()
    assert lines[0] == "#version 1"
    out = {}
    for line in lines[1:]:
        key, _, value = line.partition("\t")
        out[key] = value
    return out


def test_embed_writes_table_and_report(data_dir, tmp_path, capsys):
    out = tmp_path / "z.tsv"
    code, stdout, _ = run_cli(
        capsys, "embed", "--method", "deepwalk",
        "--input", str(data_dir / "karate.edges"),
        "--dim", "16", "--seed", "7", "--epochs", "1", "--out", str(out))
    assert code == 0
    rep = report_dict(stdout)
    assert rep["task"] == "embed"
    assert rep["dim"] == "16"
    assert rep["node_count"] == "34"
    header = out.read_text().splitlines()[0]
    assert header == "node_id\t16"


def test_embed_rerun_is_byte_identical(data_dir, tmp_path, capsys):
    outs = []
    reports = []
    for name in ("a.tsv", "b.tsv"):
        path = tmp_path / name
        code, stdout, _ = run_cli(
            capsys, "embed", "--method", "deepwalk",
            "--input", str(data_dir / "karate.edges"),
            "--dim", "8", "--seed", "7", "--epochs", "2",
            "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
        reports.append(stdout.replace(name, "OUT"))
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]


def test_unknown_flag_exits_2(data_dir, capsys):
    code, _, err = run_cli(capsys, "embed", "--bogus-flag", "1")
    assert code == 2
    assert "usage" in err


def test_missing_input_exits_2_with_path(tmp_path, capsys):
    code, _, err = run_cli(capsys, "embed", "--input",
                           str(tmp_path / "nope.edges"), "--out", "x.tsv")
    assert code == 2
    assert "nope.edges" in err


def test_unknown_method_exits_2(data_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "embed", "--method", "word2vec",
        "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z.tsv"))
    assert code == 2
    assert "word2vec" in err


def test_embed_rejects_nonpositive_batch_size(data_dir, tmp_path, capsys):
    out = tmp_path / "z.tsv"
    for size in ("-1", "0"):
        code, stdout, err = run_cli(
            capsys, "embed", "--method", "deepwalk",
            "--input", str(data_dir / "karate.edges"),
            "--batch-size", size, "--out", str(out))
        assert code == 2
        assert "batch_size must be >= 1" in err
        assert stdout == "" and not out.exists()


def test_embed_laplacian_eigenmaps_refuses_epochs(data_dir, tmp_path,
                                                 capsys):
    # an exact eigendecomposition has no epochs to run, so even the
    # default count is refused once it is asked for
    out = tmp_path / "z.tsv"
    code, stdout, err = run_cli(
        capsys, "embed", "--method", "laplacian_eigenmaps",
        "--input", str(data_dir / "karate.edges"), "--dim", "4",
        "--epochs", "5", "--out", str(out))
    assert code == 2
    assert err == ("error: laplacian_eigenmaps is solved exactly and reads "
                   "no --epochs\n")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("method, flag, reads_no", [
    ("sdne", "walk-length", "reads no --walk-length"),
    ("dngr", "window", "reads no --window"),
    ("deepwalk", "hidden", "reads no --hidden"),
    ("laplacian_eigenmaps", "epochs", "is solved exactly and reads no --epochs")])
def test_embed_refuses_an_unread_flag_before_reading_the_input(
        tmp_path, capsys, method, flag, reads_no):
    # the input is no edge list, so a refusal can only come before it
    # is parsed
    bad = tmp_path / "notes.txt"
    bad.write_text("not an edge list\nthis line has far too many fields\n")
    out = tmp_path / "z.tsv"
    code, stdout, err = run_cli(
        capsys, "embed", "--method", method, f"--{flag}", "3",
        "--input", str(bad), "--out", str(out))
    assert code == 2
    assert err == f"error: {method} {reads_no}\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command, method, flag, value, reads_no", [
    ("embed", "graph_factorization", "window", "3", "reads no --window"),
    ("embed", "hope", "walk-length", "4", "reads no --walk-length"),
    ("embed", "grarep", "offsets", "1,2", "reads no --offsets"),
    ("embed", "graph_factorization", "negatives", "2",
     "reads no --negatives"),
    ("embed", "laplacian_eigenmaps", "power-max", "2",
     "is solved exactly and reads no --power-max"),
    ("eval-links", "hope", "p", "0.5", "reads no --p"),
    ("eval-links", "graph_factorization", "walks-per-node", "2",
     "reads no --walks-per-node"),
    ("eval-links", "laplacian_eigenmaps", "q", "2",
     "is solved exactly and reads no --q")])
def test_sampling_flag_a_spectral_or_gram_row_ignores_exits_2(
        data_dir, tmp_path, capsys, command, method, flag, value, reads_no):
    # the walk and skip-gram flags shape only the rows that sample; a
    # spectral or Gram row refuses them by name, from a flag or the
    # config file, and writes nothing
    out = tmp_path / "z.tsv"
    argv = [command, "--method", method, "--input",
            str(data_dir / "karate.edges"), "--dim", "4"]
    if command == "embed":
        argv += ["--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv, f"--{flag}", value)
    assert code == 2
    assert err == f"error: {method} {reads_no}\n"
    assert stdout == "" and not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    code, stdout, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert err == f"error: {method} {reads_no}\n"


@pytest.mark.parametrize("command, method, flag, value", [
    ("embed", "deepwalk", "p", "0.5"), ("embed", "deepwalk", "q", "2"),
    ("embed", "deepwalk", "offsets", "3"),
    ("embed", "deepwalk", "power-max", "2"),
    ("embed", "deepwalk", "negatives", "2"),
    ("embed", "walklets", "window", "3"),
    ("eval-links", "line1", "walk-length", "4"),
    ("harp", "deepwalk", "negatives", "2"), ("harp", "line2", "p", "0.5")])
def test_flag_a_skipgram_row_never_reads_exits_2(
        data_dir, tmp_path, capsys, command, method, flag, value):
    # a skip-gram row at its default loss (deepwalk's is hsoftmax, which
    # draws no negatives) refuses the sampling flags it never reads;
    # harp's row is its --base
    out = tmp_path / "z.tsv"
    argv = [command, "--base" if command == "harp" else "--method", method,
            "--input", str(data_dir / "karate.edges"), "--dim", "4",
            f"--{flag}", value]
    if command != "eval-links":
        argv += ["--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {method} reads no --{flag}\n"
    assert stdout == "" and not out.exists()


def test_a_row_takes_the_sampling_flags_its_source_reads(data_dir, tmp_path,
                                                          capsys):
    # grarep reads --power-max and node2vec every walk flag; the library
    # itself refuses only laplacian_eigenmaps' training fields
    code, _, _ = run_cli(capsys, "embed", "--method", "grarep",
                         "--input", str(data_dir / "karate.edges"),
                         "--dim", "4", "--epochs", "2", "--power-max", "2",
                         "--out", str(tmp_path / "g.tsv"))
    assert code == 0
    code, _, _ = run_cli(capsys, "embed", "--method", "node2vec",
                         "--input", str(data_dir / "karate.edges"),
                         "--dim", "4", "--epochs", "1", "--p", "0.5",
                         "--q", "2", "--walk-length", "4",
                         "--walks-per-node", "1", "--window", "2",
                         "--negatives", "2", "--out", str(tmp_path / "n.tsv"))
    assert code == 0
    g = karate_club()[0]
    table = shallow.train_shallow(g, "graph_factorization", shallow.ShallowConfig(
        dim=4, epochs=2, window=3, p=0.5, negatives=2))
    assert table.vectors.shape == (g.node_count, 4)
    assert shallow.unread_settings("deepwalk") == (
        "p", "q", "negatives", "power_max", "offsets")
    assert shallow.unread_settings("grarep") == (
        "batch_size", "walk_length", "walks_per_node", "window", "p", "q",
        "negatives", "offsets")


# the options each choice reads, written out here: (subcommand, choice)
# -> flags; every other option flag of the subcommand is refused
_SKIPGRAM_READS = ("dim", "epochs", "lr", "batch-size", "walk-length",
                   "walks-per-node", "window")
_ROW_READS = {
    "laplacian_eigenmaps": ("dim",),
    "graph_factorization": ("dim", "epochs", "lr"),
    "grarep": ("dim", "epochs", "lr", "power-max"),
    "hope": ("dim", "epochs", "lr"),
    "deepwalk": _SKIPGRAM_READS,
    "node2vec": (*_SKIPGRAM_READS, "p", "q", "negatives"),
    "walklets": ("dim", "epochs", "lr", "batch-size", "walk-length",
                 "walks-per-node", "negatives", "offsets"),
    "line1": ("dim", "epochs", "lr", "batch-size", "negatives"),
    "line2": ("dim", "epochs", "lr", "batch-size", "negatives"),
}
_CHOICE_READS = {
    **{("embed", row): reads for row, reads in _ROW_READS.items()},
    ("embed", "sdne"): ("dim", "hidden", "epochs", "lr"),
    ("embed", "dngr"): ("dim", "hidden", "epochs", "lr"),
    **{("eval-links", row): reads for row, reads in _ROW_READS.items()},
    **{("harp", row): _ROW_READS[row]
       for row in ("deepwalk", "node2vec", "line1", "line2")},
    ("walk", "uniform"): ("length", "walks-per-node"),
    ("walk", "node2vec"): ("length", "walks-per-node", "p", "q"),
    ("walk", "metapath"): ("length", "walks-per-node", "types", "metapath"),
    ("roles", "graphwave"): ("scale", "t-points", "t-max", "include-psi"),
    ("roles", "struc2vec"): ("k-max", "dim", "walk-length",
                             "walks-per-node", "window", "epochs"),
}
_CHOICE_FLAG = {"embed": "method", "eval-links": "method", "harp": "base",
                "walk": "kind", "roles": "mode"}
# the flags every choice of a subcommand reads
_SHARED_FLAGS = {"help", "input", "out", "directed", "levels", "holdout",
                 "eval-seeds", "config", "seed", "report",
                 *_CHOICE_FLAG.values()}
# a small value each option can run with (True: a switch); --types is
# the labels file, whose types are "0" and "1"
_FLAG_VALUES = {
    "dim": "2", "epochs": "1", "lr": "0.5", "batch-size": "64",
    "walk-length": "4", "walks-per-node": "1", "window": "2", "p": "0.5",
    "q": "2", "negatives": "2", "power-max": "2", "offsets": "1,2",
    "hidden": "3", "length": "3", "types": "karate.labels",
    "metapath": "1,0", "scale": "1.0", "t-points": "4", "t-max": "10",
    "include-psi": True, "k-max": "1"}


def _choice_argv(data_dir, tmp_path, command, choice):
    argv = [command, f"--{_CHOICE_FLAG[command]}", choice,
            "--input", str(data_dir / "karate.edges")]
    return argv + ([] if command == "eval-links"
                   else ["--out", str(tmp_path / "out.txt")])


def _flag_argv(data_dir, flag):
    value = _FLAG_VALUES[flag]
    if flag == "types":
        value = str(data_dir / value)
    return [f"--{flag}"] if value is True else [f"--{flag}", value]


def _unread_flags():
    subs = cli.build_parser()[1]
    for (command, choice), reads in _CHOICE_READS.items():
        flags = {o[2:] for a in subs[command]._actions
                 for o in a.option_strings if o.startswith("--")}
        for flag in sorted(flags - _SHARED_FLAGS - set(reads)):
            yield command, choice, flag


@pytest.mark.parametrize("command, choice, flag", list(_unread_flags()))
def test_a_choice_refuses_each_flag_it_does_not_read(
        data_dir, tmp_path, capsys, command, choice, flag):
    # from a flag or a config key, whatever its value; nothing is written
    argv = _choice_argv(data_dir, tmp_path, command, choice)
    how = " is solved exactly and" if choice == "laplacian_eigenmaps" else ""
    refused = (2, "", f"error: {choice}{how} reads no --{flag}\n")
    assert run_cli(capsys, *argv, *_flag_argv(data_dir, flag)) == refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: _FLAG_VALUES[flag]}))
    assert run_cli(capsys, *argv, "--config", str(cfg)) == refused
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("command, choice", list(_CHOICE_READS))
def test_a_choice_takes_every_flag_it_reads(data_dir, tmp_path, capsys,
                                           command, choice):
    argv = _choice_argv(data_dir, tmp_path, command, choice)
    if command == "eval-links":
        argv += ["--eval-seeds", "1"]
    for flag in _CHOICE_READS[command, choice]:
        argv += _flag_argv(data_dir, flag)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_no_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_config_file_fills_defaults_flags_win(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 6, "epochs": 1}))
    code, stdout, _ = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z1.tsv"), "--config", str(cfg))
    assert code == 0
    assert report_dict(stdout)["dim"] == "6"

    code, stdout, _ = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z2.tsv"), "--config", str(cfg),
        "--dim", "4")
    assert code == 0
    assert report_dict(stdout)["dim"] == "4"


def _embed_bytes(capsys, data_dir, path, *flags):
    code, _, err = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(path), "--dim", "4", "--walk-length", "6",
        "--walks-per-node", "1", *flags)
    assert code == 0, err
    return path.read_bytes()


def test_config_file_given_with_equals_sign(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 6, "epochs": 1}))
    code, stdout, _ = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z.tsv"), f"--config={cfg}")
    assert code == 0
    assert report_dict(stdout)["dim"] == "6"


def test_abbreviated_flag_beats_config_file(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1}))
    abbreviated = _embed_bytes(capsys, data_dir, tmp_path / "a.tsv",
                               "--config", str(cfg), "--epoch", "3")
    spelled_out = _embed_bytes(capsys, data_dir, tmp_path / "b.tsv",
                               "--epochs", "3")
    from_file = _embed_bytes(capsys, data_dir, tmp_path / "c.tsv",
                             "--config", str(cfg))
    assert abbreviated == spelled_out
    assert abbreviated != from_file


_OPTION_VALUES = {
    "dim": st.integers(1, 64), "epochs": st.integers(1, 9),
    "lr": st.floats(1e-3, 1e3), "batch_size": st.integers(1, 4096),
    "walk_length": st.integers(2, 80), "walks_per_node": st.integers(1, 20),
    "window": st.integers(1, 10), "p": st.floats(1e-2, 1e2),
    "q": st.floats(1e-2, 1e2), "negatives": st.integers(1, 10),
    "power_max": st.integers(1, 6),
    "offsets": st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
}


def _shortest_abbreviation(sub, flag):
    """The shortest prefix of flag that names no other long option."""
    longs = [o for a in sub._actions for o in a.option_strings
             if o.startswith("--")]
    for end in range(3, len(flag)):
        if [o for o in longs if o.startswith(flag[:end])] == [flag]:
            return flag[:end]
    return flag


# the subcommands that build a ShallowConfig, each over its base config
_SHALLOW_BASES = {"embed": shallow.ShallowConfig(),
                  "eval-links": shallow.ShallowConfig(),
                  "harp": shallow.ShallowConfig(),
                  "ohmnet": multiscale.OHMNET_CONFIG}


def _shallow_options(sub, base):
    """The ShallowConfig options that a subparser has flags for."""
    fields = {f.name for f in dataclasses.fields(base)} - {"seed"}
    return sorted(fields & {a.dest for a in sub._actions})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shallow_option_precedence_flag_then_file_then_library(data):
    command = data.draw(st.sampled_from(sorted(_SHALLOW_BASES)))
    base = _SHALLOW_BASES[command]
    sub = cli.build_parser()[1][command]
    # --method and harp's --base default to deepwalk, which refuses the
    # flags it never reads; ohmnet has no method
    unread = () if command == "ohmnet" else shallow.unread_settings("deepwalk")
    names = [n for n in _shallow_options(sub, base) if n not in unread]
    draw_values = st.sets(st.sampled_from(names)).map(sorted).flatmap(
        lambda chosen: st.fixed_dictionaries(
            {n: _OPTION_VALUES[n] for n in chosen}))
    from_file, from_flags = data.draw(draw_values), data.draw(draw_values)
    argv = [command, "--input", "g.edges"] if command != "ohmnet" \
        else [command]
    for name, value in from_flags.items():
        flag = "--" + name.replace("_", "-")
        flag = data.draw(st.sampled_from(
            [flag, _shortest_abbreviation(sub, flag)]))
        text = ",".join(map(str, value)) if name == "offsets" else repr(value)
        argv += data.draw(st.sampled_from([[flag, text], [f"{flag}={text}"]]))
    keyed = {}
    for name, value in from_file.items():
        key = data.draw(st.sampled_from([name, name.replace("_", "-")]))
        if name == "offsets":
            value = data.draw(st.sampled_from(
                [list(value), ",".join(map(str, value))]))
        keyed[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(keyed, fh)
        config = cli._shallow_config(
            cli.parse_args(argv + ["--config", path]), base)
    for name in names:
        expected = from_flags.get(name, from_file.get(
            name, getattr(base, name)))
        assert getattr(config, name) == expected, name


def test_shallow_flags_are_those_each_trainer_reads():
    skipgram = {"dim", "epochs", "lr", "batch_size", "walk_length",
                "walks_per_node", "window", "negatives"}
    subs = cli.build_parser()[1]
    declared = {command: set(_shallow_options(subs[command], base))
                for command, base in _SHALLOW_BASES.items()}
    assert declared == {"embed": set(_OPTION_VALUES),
                        "eval-links": set(_OPTION_VALUES),
                        "harp": skipgram | {"p", "q"},
                        "ohmnet": skipgram}


@pytest.mark.parametrize("command, flag, value", [
    ("harp", "power-max", "3"), ("harp", "offsets", "1,2"),
    ("ohmnet", "p", "0.5"), ("ohmnet", "q", "2"),
    ("ohmnet", "power-max", "3"), ("ohmnet", "offsets", "1,2")])
def test_flag_its_trainer_ignores_is_unknown(data_dir, tmp_path, capsys,
                                            command, flag, value):
    if command == "harp":
        argv = [command, "--input", str(data_dir / "karate.edges"),
                "--out", str(tmp_path / "z.tsv")]
    else:
        argv = [command, "--layer", f"A={data_dir / 'la.edges'}",
                "--out-prefix", str(tmp_path / "z_")]
    code, stdout, err = run_cli(capsys, *argv, "--epochs", "1",
                                f"--{flag}", value)
    assert code == 2
    assert "unrecognized arguments" in err and f"--{flag}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    code, stdout, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert f"unknown config key {flag!r}" in err
    assert stdout == "" and list(tmp_path.glob("z*")) == []


@pytest.mark.parametrize("command, key", [("walk", "kind"), ("roles", "mode")])
def test_config_file_choice_is_checked(data_dir, tmp_path, capsys, command,
                                       key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli(
        capsys, command, "--input", str(data_dir / "karate.edges"),
        "--out", str(out), "--config", str(cfg))
    assert code == 2
    assert "'bogus'" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", sorted(cli.build_parser()[1]))
def test_every_subcommand_has_help(capsys, command):
    code, stdout, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert stdout.startswith(f"usage: grembed {command} ")


def test_config_file_string_value_is_converted(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": "4", "epochs": "1"}))
    code, stdout, err = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z.tsv"), "--config", str(cfg))
    assert code == 0, err
    assert report_dict(stdout)["dim"] == "4"
    assert (tmp_path / "z.tsv").read_text().splitlines()[0] == "node_id\t4"

    cfg.write_text(json.dumps({"dim": "four"}))
    code, _, err = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z.tsv"), "--config", str(cfg))
    assert code == 2
    assert "--dim" in err


@pytest.mark.parametrize("command,key,value,what", [
    ("embed", "dim", 4.5, "an integer"),
    ("embed", "dim", True, "an integer"),
    ("embed", "lr", [0.1], "a number"),
    ("roles", "t_points", 7.5, "an integer"),
    ("walk", "directed", "no", "true or false"),
    ("walk", "directed", 1, "true or false"),
])
def test_config_file_value_of_another_type_exits_2(data_dir, tmp_path, capsys,
                                                   command, key, value, what):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    code, _, err = run_cli(
        capsys, command, "--input", str(data_dir / "karate.edges"),
        "--out", str(out), "--config", str(cfg))
    assert code == 2
    assert f"config key {key!r} must be {what}, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("input", 0), ("input", 5), ("input", None), ("input", ["a.edges"]),
    ("out", 1), ("report", False), ("out-prefix", 2.5),
])
def test_config_file_path_that_is_not_a_string_exits_2(tmp_path, capsys,
                                                        key, value):
    # 0 would read the edges from standard input and 5 from descriptor 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    command = "ohmnet" if key == "out-prefix" else "walk"
    code, stdout, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and stdout == ""
    assert f"config key {key!r} must be a string, got {value!r}" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command,options,flags", [
    ("embed", {"dim": 4, "epochs": 1, "lr": 1},
     ["--dim", "4", "--epochs", "1", "--lr", "1"]),
    ("embed", {"method": "walklets", "dim": 4, "epochs": 1,
               "offsets": [1, 3]},
     ["--method", "walklets", "--dim", "4", "--epochs", "1",
      "--offsets", "1,3"]),
    ("walk", {"directed": True}, ["--directed"]),
    ("walk", {"directed": False}, []),
])
def test_config_file_json_values_act_as_their_flags(data_dir, tmp_path, capsys,
                                                    command, options, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options))
    runs = []
    for name, extra in (("file", ["--config", str(cfg)]), ("flags", flags)):
        out = tmp_path / name
        code, stdout, err = run_cli(
            capsys, command, "--input", str(data_dir / "karate.edges"),
            "--out", str(out), *extra)
        assert code == 0, err
        rep = report_dict(stdout)
        rep.pop("config.out")
        runs.append((out.read_bytes(), rep))
    assert runs[0] == runs[1]


def test_embed_without_options_runs_library_defaults(data_dir, tmp_path,
                                                    capsys, monkeypatch):
    monkeypatch.delenv("GREMBED_SEED", raising=False)
    out = tmp_path / "z.tsv"
    code, stdout, _ = run_cli(capsys, "embed", "--input",
                              str(data_dir / "karate.edges"), "--out", str(out))
    assert code == 0
    defaults = shallow.ShallowConfig()
    rep = report_dict(stdout)
    assert rep["dim"] == str(defaults.dim)
    assert rep["config.method"] == "deepwalk"
    assert rep["config.seed"] == str(defaults.seed)
    ref = tmp_path / "ref.tsv"
    shallow.train_shallow(load_edge_list(str(data_dir / "karate.edges")),
                          "deepwalk", defaults).save(str(ref))
    assert out.read_bytes() == ref.read_bytes()


def test_ohmnet_without_options_runs_library_defaults(data_dir, tmp_path,
                                                     capsys, monkeypatch):
    monkeypatch.delenv("GREMBED_SEED", raising=False)
    prefix = str(tmp_path / "oh_")
    code, stdout, _ = run_cli(
        capsys, "ohmnet", "--layer", f"A={data_dir / 'la.edges'}",
        "--layer", f"B={data_dir / 'lb.edges'}", "--out-prefix", prefix)
    assert code == 0
    rep = report_dict(stdout)
    assert rep["dim"] == str(multiscale.OHMNET_CONFIG.dim)
    tables = multiscale.ohmnet_train(
        [load_edge_list(str(data_dir / f"{n}.edges")) for n in ("la", "lb")])
    assert rep["config.lam"] == str(tables[0].metadata["lam"])
    for name, table in zip("AB", tables):
        table.save(str(tmp_path / f"ref_{name}.tsv"))
        assert (tmp_path / f"oh_{name}.tsv").read_bytes() == \
            (tmp_path / f"ref_{name}.tsv").read_bytes()


@pytest.fixture(scope="module")
def spectral_z(data_dir):
    path = data_dir / "spectral.tsv"
    shallow.train_shallow(load_edge_list(str(data_dir / "karate.edges")),
                          "laplacian_eigenmaps",
                          shallow.ShallowConfig(dim=4)).save(str(path))
    return path


def assert_report_has(stdout, report):
    rep = report_dict(stdout)
    for line in report.lines()[1:]:
        key, _, value = line.partition("\t")
        assert rep[key] == value, key


def test_eval_nodes_without_options_runs_library_defaults(
        data_dir, spectral_z, capsys):
    code, stdout, _ = run_cli(capsys, "eval-nodes", "--embedding",
                              str(spectral_z), "--labels",
                              str(data_dir / "karate.labels"))
    assert code == 0
    table = load_embedding(str(spectral_z))
    labels, _ = load_labels(str(data_dir / "karate.labels"), table)
    assert_report_has(stdout,
                      harness.node_classification_eval(table.vectors, labels))


def test_eval_cluster_without_options_runs_library_defaults(
        data_dir, spectral_z, capsys, monkeypatch):
    monkeypatch.delenv("GREMBED_SEED", raising=False)
    code, stdout, _ = run_cli(capsys, "eval-cluster", "--embedding",
                              str(spectral_z), "--labels",
                              str(data_dir / "karate.labels"))
    assert code == 0
    table = load_embedding(str(spectral_z))
    labels, names = load_labels(str(data_dir / "karate.labels"), table)
    assert_report_has(stdout, harness.clustering_eval(
        table.vectors, labels, len(names), seed=42))


def test_eval_links_without_options_runs_library_defaults(data_dir, capsys):
    code, stdout, _ = run_cli(
        capsys, "eval-links", "--input", str(data_dir / "karate.edges"),
        "--method", "line1", "--epochs", "1")
    assert code == 0
    rep = report_dict(stdout)
    params = inspect.signature(harness.link_prediction_eval).parameters
    holdout = str(params["holdout_fraction"].default)
    assert rep["config.holdout"] == rep["config.holdout_fraction"] == holdout
    assert rep["per_seed.seed"] == ",".join(
        str(s) for s in params["seeds"].default)


def test_eval_links_reports_the_holdout_it_was_given(data_dir, capsys):
    code, stdout, err = run_cli(
        capsys, "eval-links", "--input", str(data_dir / "karate.edges"),
        "--method", "line1", "--epochs", "1", "--eval-seeds", "1",
        "--holdout", "0.3")
    assert code == 0, err
    rep = report_dict(stdout)
    assert rep["config.holdout"] == rep["config.holdout_fraction"] == "0.3"


def test_project_without_options_runs_library_defaults(spectral_z, tmp_path,
                                                       capsys):
    out = tmp_path / "proj.tsv"
    code, stdout, _ = run_cli(capsys, "project", "--embedding",
                              str(spectral_z), "--out", str(out))
    assert code == 0
    table = load_embedding(str(spectral_z))
    ref = tmp_path / "ref.tsv"
    coords = harness.export_projection(str(ref), table.vectors, table.node_ids)
    assert report_dict(stdout)["dims"] == str(coords.shape[1])
    assert out.read_bytes() == ref.read_bytes()


def test_subgraph_without_options_runs_library_defaults(
        data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GREMBED_SEED", raising=False)
    out = tmp_path / "preds.tsv"
    dataset = str(data_dir / "toy.graphs")
    code, stdout, _ = run_cli(capsys, "subgraph", "--dataset", dataset,
                              "--out", str(out))
    assert code == 0
    specs = subgraph.parse_multigraph_file(dataset)
    model, acc = subgraph.classify_subgraphs(specs, seed=42)
    rep = report_dict(stdout)
    assert float(rep["train_accuracy"]) == acc
    assert rep["epochs_run"] == str(len(model.history))
    assert (rep["config.rounds"], rep["config.edge_dim"],
            rep["config.out_dim"]) == tuple(str(v) for v in (
                model.params.rounds, model.params.edge_dim,
                model.params.out_dim))
    rows = [f"{s.name}\t{p}\t{s.label}"
            for s, p in zip(specs, model.predict(specs))]
    assert out.read_text().splitlines()[1:] == rows


def test_config_file_unknown_key_exits_2(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimme": 6}))
    code, _, err = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z.tsv"), "--config", str(cfg))
    assert code == 2
    assert "dimme" in err


def test_env_seed_fallback_and_priority(data_dir, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.setenv("GREMBED_SEED", "99")
    code, stdout, _ = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--epochs", "1", "--out", str(tmp_path / "z.tsv"))
    assert code == 0
    assert report_dict(stdout)["config.seed"] == "99"

    code, stdout, _ = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--epochs", "1", "--seed", "3", "--out", str(tmp_path / "z2.tsv"))
    assert code == 0
    assert report_dict(stdout)["config.seed"] == "3"


def test_env_seed_garbage_exits_2(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GREMBED_SEED", "oops")
    code, _, err = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z.tsv"))
    assert code == 2
    assert "GREMBED_SEED" in err


def test_negative_seed_is_read_modulo_2_to_the_64(data_dir, tmp_path,
                                                 capsys, monkeypatch):
    top = _embed_bytes(capsys, data_dir, tmp_path / "top.tsv",
                       "--seed", str(2 ** 64 - 1))
    assert _embed_bytes(capsys, data_dir, tmp_path / "flag.tsv",
                        "--seed", "-1") == top
    monkeypatch.setenv("GREMBED_SEED", "-1")
    assert _embed_bytes(capsys, data_dir, tmp_path / "env.tsv") == top


def test_workers_and_deterministic_flags_are_unknown(data_dir, tmp_path,
                                                     capsys):
    for flag in (["--workers", "4"], ["--no-deterministic"]):
        code, stdout, err = run_cli(
            capsys, "embed", "--input", str(data_dir / "karate.edges"),
            "--out", str(tmp_path / "z.tsv"), *flag)
        assert code == 2
        assert "unrecognized arguments" in err and flag[0] in err
        assert stdout == "" and not (tmp_path / "z.tsv").exists()


def test_walk_dumps_corpus(data_dir, tmp_path, capsys):
    out = tmp_path / "walks.txt"
    code, stdout, _ = run_cli(
        capsys, "walk", "--input", str(data_dir / "karate.edges"),
        "--kind", "node2vec", "--q", "0.5", "--length", "8",
        "--walks-per-node", "2", "--seed", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 34 * 2
    assert report_dict(stdout)["walk_count"] == str(34 * 2)
    # a length-8 walk takes 8 steps, so each line lists 9 node ids
    assert all(len(line.split()) == 9 for line in lines)


def test_walk_metapath_needs_types(data_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "walk", "--input", str(data_dir / "karate.edges"),
        "--kind", "metapath", "--out", str(tmp_path / "w.txt"))
    assert code == 2
    assert "types" in err


def test_walk_metapath_names_types_as_the_types_file_writes_them(
        tmp_path, capsys):
    # on a path whose node i has type "i", "10" and "11" sort before "2"
    with open(tmp_path / "path.edges", "w") as fh:
        fh.writelines(f"{i}\t{i + 1}\n" for i in range(11))
    with open(tmp_path / "path.types", "w") as fh:
        fh.writelines(f"{i}\t{i}\n" for i in range(12))
    out = tmp_path / "w.txt"
    argv = ["walk", "--input", str(tmp_path / "path.edges"), "--kind",
            "metapath", "--types", str(tmp_path / "path.types"), "--length",
            "2", "--walks-per-node", "1", "--out", str(out)]
    code, _, err = run_cli(capsys, *argv, "--metapath", "2,3")
    assert code == 0, err
    assert out.read_text() == "2 3 2\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metapath": [10, 11]}))
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0, err
    assert out.read_text() == "10 11 10\n"
    out.unlink()
    code, stdout, err = run_cli(capsys, *argv, "--metapath", "2,12,x")
    assert code == 2
    assert "['12', 'x']" in err
    assert stdout == "" and not out.exists()


def test_roles_graphwave_writes_signatures(data_dir, tmp_path, capsys):
    out = tmp_path / "sigs.tsv"
    code, stdout, _ = run_cli(
        capsys, "roles", "--input", str(data_dir / "karate.edges"),
        "--mode", "graphwave", "--t-points", "10", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node_id\t20"  # the embedding table header
    assert len(lines) == 1 + 34
    assert all(len(line.split("\t")[1].split()) == 20 for line in lines[1:])
    assert report_dict(stdout)["signature_dim"] == "20"


def test_roles_without_options_runs_library_defaults(data_dir, tmp_path,
                                                    capsys):
    out = tmp_path / "sigs.tsv"
    code, stdout, _ = run_cli(capsys, "roles", "--input",
                              str(data_dir / "karate.edges"), "--out", str(out))
    assert code == 0
    g = load_edge_list(str(data_dir / "karate.edges"))
    ref = tmp_path / "ref.tsv"
    structural.graphwave_signature(g).save(str(ref))
    assert out.read_bytes() == ref.read_bytes()
    rep = report_dict(stdout)
    params = inspect.signature(structural.graphwave_signature).parameters
    assert rep["config.scale"] == str(params["s"].default)
    assert rep["config.t_points"] == str(params["t_points"].default)
    assert rep["config.t_max"] == str(params["t_max"].default)


def test_roles_graphwave_output_feeds_every_embedding_reader(
        data_dir, tmp_path, capsys):
    sigs = tmp_path / "sigs.tsv"
    code, _, _ = run_cli(
        capsys, "roles", "--input", str(data_dir / "karate.edges"),
        "--mode", "graphwave", "--t-points", "10", "--include-psi",
        "--out", str(sigs))
    assert code == 0
    g = load_edge_list(str(data_dir / "karate.edges"))
    table = load_embedding(str(sigs))
    assert table.node_ids == g.node_ids
    want = structural.graphwave_signature(g, t_points=10, include_psi=True)
    np.testing.assert_array_equal(table.vectors, want.vectors)
    labels = str(data_dir / "karate.labels")
    for argv in (["eval-cluster", "--labels", labels],
                 ["eval-nodes", "--labels", labels],
                 ["project", "--out", str(tmp_path / "proj.tsv")]):
        code, stdout, err = run_cli(capsys, *argv, "--embedding", str(sigs))
        assert code == 0, err
        assert report_dict(stdout)["task"]


@pytest.mark.parametrize("points", ["0", "-1"])
def test_roles_rejects_empty_t_grid(data_dir, tmp_path, capsys, points):
    code, _, err = run_cli(
        capsys, "roles", "--input", str(data_dir / "karate.edges"),
        "--t-points", points, "--out", str(tmp_path / "sigs.tsv"))
    assert code == 2
    assert f"t_points must be >= 1, got {points}" in err


def test_roles_struc2vec_writes_embedding(data_dir, tmp_path, capsys):
    out = tmp_path / "sv.tsv"
    code, _, _ = run_cli(
        capsys, "roles", "--input", str(data_dir / "karate.edges"),
        "--mode", "struc2vec", "--dim", "4", "--epochs", "1",
        "--walks-per-node", "2", "--k-max", "2", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[0] == "node_id\t4"


def test_roles_struc2vec_exits_3_above_the_node_cap(data_dir, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.setattr(structural, "STRUC2VEC_NODE_CAP", 20)
    out = tmp_path / "sv.tsv"
    code, stdout, err = run_cli(
        capsys, "roles", "--input", str(data_dir / "karate.edges"),
        "--mode", "struc2vec", "--out", str(out))
    assert code == 3 and stdout == "" and not out.exists()
    assert err == "error: struc2vec distances on 34 nodes exceed cap 20\n"


@pytest.mark.parametrize("argv", [
    ("roles", "--mode", "graphwave"),
    ("embed", "--method", "laplacian_eigenmaps")])
def test_dense_row_exits_3_above_the_dense_node_cap(tmp_path, capsys, argv):
    from grembed import graph
    from grembed.fixtures import path_graph
    n = graph.DENSE_NODE_CAP + 1
    edges = tmp_path / "path.edges"
    export_edge_list(path_graph(n), edges)
    out = tmp_path / "z.tsv"
    code, stdout, err = run_cli(capsys, *argv, "--input", str(edges),
                                "--out", str(out))
    assert code == 3 and stdout == "" and not out.exists()
    assert err == (f"error: a dense matrix on {n} nodes exceeds "
                   f"DENSE_NODE_CAP = {graph.DENSE_NODE_CAP}\n")


def test_roles_struc2vec_exits_2_on_a_ring_node_of_out_degree_0(
        tmp_path, capsys):
    edges = tmp_path / "sink.edges"
    edges.write_text("0\t1\n1\t2\n0\t3\n4\t0\n")
    out = tmp_path / "sv.tsv"
    code, stdout, err = run_cli(
        capsys, "roles", "--input", str(edges), "--directed",
        "--mode", "struc2vec", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == ("error: struc2vec ring degrees must be >= 1: node '2' "
                   "has an in-arc but out-degree 0\n")


def test_subgraph_reports_accuracy(data_dir, tmp_path, capsys):
    preds = tmp_path / "preds.tsv"
    code, stdout, _ = run_cli(
        capsys, "subgraph", "--dataset", str(data_dir / "toy.graphs"),
        "--epochs", "30", "--seed", "1", "--out", str(preds))
    assert code == 0
    rep = report_dict(stdout)
    assert float(rep["train_accuracy"]) > 0.5
    rows = preds.read_text().strip().splitlines()
    assert rows[0] == "graph_id\tpredicted\tlabel"
    assert len(rows) == 11


def test_eval_nodes_per_seed_mean_matches(data_dir, tmp_path, capsys):
    z = tmp_path / "z.tsv"
    code, _, _ = run_cli(
        capsys, "embed", "--method", "deepwalk",
        "--input", str(data_dir / "karate.edges"),
        "--dim", "8", "--seed", "7", "--epochs", "2", "--out", str(z))
    assert code == 0
    code, stdout, _ = run_cli(
        capsys, "eval-nodes", "--embedding", str(z),
        "--labels", str(data_dir / "karate.labels"),
        "--eval-seeds", "3", "--epochs", "60")
    assert code == 0
    rep = report_dict(stdout)
    per_seed = [float(v) for v in rep["per_seed.accuracy"].split(",")]
    assert len(per_seed) == 3
    assert np.isclose(np.mean(per_seed), float(rep["accuracy_mean"]))


def test_eval_nodes_rejects_duplicate_label_with_line(data_dir, tmp_path,
                                                      capsys):
    z = tmp_path / "z.tsv"
    code, _, _ = run_cli(capsys, "embed", "--method", "laplacian_eigenmaps",
                         "--input", str(data_dir / "karate.edges"),
                         "--dim", "4", "--seed", "0", "--out", str(z))
    assert code == 0
    lines = (data_dir / "karate.labels").read_text().splitlines()
    first_id = lines[0].split("\t")[0]
    dup = tmp_path / "dup.labels"
    dup.write_text("\n".join(lines + [f"{first_id}\t9"]) + "\n")
    code, stdout, stderr = run_cli(capsys, "eval-nodes", "--embedding", str(z),
                                   "--labels", str(dup))
    assert code == 2
    assert stdout == ""
    assert f"line {len(lines) + 1}" in stderr
    assert "duplicate" in stderr


@pytest.mark.parametrize("fault, message", [
    ("value", "could not convert string to float: 'x'"),
    ("width", "expected 4 values, got 3"),
    ("duplicate", "duplicate node id")])
def test_eval_nodes_rejects_bad_embedding_line(data_dir, tmp_path, capsys,
                                               fault, message):
    z = tmp_path / "z.tsv"
    code, _, _ = run_cli(capsys, "embed", "--method", "laplacian_eigenmaps",
                         "--input", str(data_dir / "karate.edges"),
                         "--dim", "4", "--seed", "0", "--out", str(z))
    assert code == 0
    lines = z.read_text().splitlines()
    # line 3 of the file: a value that is not a number, one value short,
    # or a copy of line 2
    if fault == "value":
        lines[2] = lines[2].split("\t")[0] + "\t0 x 0 0"
    elif fault == "width":
        lines[2] = lines[2].rsplit(" ", 1)[0]
    else:
        lines.insert(2, lines[1])
    z.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run_cli(capsys, "eval-nodes", "--embedding", str(z),
                                   "--labels", str(data_dir / "karate.labels"))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: line 3: ") and message in stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["eval-nodes", "eval-cluster", "project"])
def test_nonfinite_embedding_value_exits_2_with_its_line(
        data_dir, spectral_z, tmp_path, capsys, command, value):
    # line 4 of the file: its node's second value made non-finite
    lines = spectral_z.read_text().splitlines()
    nid, vals = lines[3].split("\t")
    vals = vals.split()
    vals[1] = value
    lines[3] = nid + "\t" + " ".join(vals)
    z = tmp_path / "z.tsv"
    z.write_text("\n".join(lines) + "\n")
    out = tmp_path / "proj.tsv"
    given = (["--out", str(out)] if command == "project" else
             ["--labels", str(data_dir / "karate.labels")])
    code, stdout, stderr = run_cli(capsys, command, "--embedding", str(z),
                                   *given)
    assert code == 2
    assert stderr == f"error: line 4: non-finite value {value!r}\n"
    assert stdout == "" and not out.exists()


def test_eval_links_reports_auc(data_dir, capsys):
    code, stdout, _ = run_cli(
        capsys, "eval-links", "--input", str(data_dir / "karate.edges"),
        "--method", "line1", "--epochs", "1", "--eval-seeds", "2",
        "--seed", "0")
    assert code == 0
    rep = report_dict(stdout)
    assert 0.0 <= float(rep["auc_mean"]) <= 1.0
    assert len(rep["per_seed.auc"].split(",")) == 2


def test_eval_cluster_reports_nmi(data_dir, tmp_path, capsys):
    z = tmp_path / "z.tsv"
    run_cli(capsys, "embed", "--method", "laplacian_eigenmaps",
            "--input", str(data_dir / "karate.edges"),
            "--dim", "4", "--seed", "0", "--out", str(z))
    code, stdout, _ = run_cli(
        capsys, "eval-cluster", "--embedding", str(z),
        "--labels", str(data_dir / "karate.labels"), "--k", "2")
    assert code == 0
    assert "nmi" in report_dict(stdout)


def test_project_writes_components(data_dir, tmp_path, capsys):
    z = tmp_path / "z.tsv"
    run_cli(capsys, "embed", "--method", "hope",
            "--input", str(data_dir / "karate.edges"),
            "--dim", "6", "--seed", "0", "--out", str(z))
    out = tmp_path / "proj.tsv"
    code, _, _ = run_cli(capsys, "project", "--embedding", str(z),
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id\tpc1\tpc2"
    assert len(lines) == 35


@pytest.mark.parametrize("argv, name", [
    (["eval-cluster", "--restarts", "0"], "restarts"),
    (["eval-nodes", "--eval-seeds", "0"], "seeds"),
    (["eval-links", "--eval-seeds", "0"], "seeds"),
    (["project", "--dims", "0"], "dims")])
def test_zero_count_exits_2_with_its_name(data_dir, spectral_z, tmp_path,
                                          capsys, argv, name):
    inputs = {"eval-links": ["--input", str(data_dir / "karate.edges")],
              "project": ["--embedding", str(spectral_z),
                          "--out", str(tmp_path / "proj.tsv")]}
    given = inputs.get(argv[0], ["--embedding", str(spectral_z),
                                 "--labels", str(data_dir / "karate.labels")])
    code, stdout, err = run_cli(capsys, *argv, *given)
    assert code == 2
    assert err.startswith(f"error: {name} must")
    assert stdout == "" and not (tmp_path / "proj.tsv").exists()


def test_harp_runs(data_dir, tmp_path, capsys):
    out = tmp_path / "zh.tsv"
    code, stdout, _ = run_cli(
        capsys, "harp", "--input", str(data_dir / "karate.edges"),
        "--base", "deepwalk", "--levels", "1", "--epochs", "1",
        "--seed", "0", "--out", str(out))
    assert code == 0
    assert report_dict(stdout)["levels"] == "1"
    assert out.exists()


def test_harp_reports_the_levels_it_used(data_dir, tmp_path, capsys):
    # karate coarsens 34 -> 23 -> 18 -> 15; 15 nodes cannot hold dim 16
    out = tmp_path / "zh.tsv"
    code, stdout, err = run_cli(
        capsys, "harp", "--input", str(data_dir / "karate.edges"),
        "--levels", "3", "--epochs", "1", "--out", str(out))
    assert code == 0, err
    assert report_dict(stdout)["levels"] == "2"
    assert out.read_text().splitlines()[0] == "node_id\t16"


def test_ohmnet_writes_layer_tables(data_dir, tmp_path, capsys):
    prefix = str(tmp_path / "oh_")
    code, stdout, _ = run_cli(
        capsys, "ohmnet",
        "--layer", f"A={data_dir / 'la.edges'}",
        "--layer", f"B={data_dir / 'lb.edges'}",
        "--lam", "0.5", "--epochs", "1", "--seed", "0",
        "--out-prefix", prefix)
    assert code == 0
    rep = report_dict(stdout)
    assert rep["layer_count"] == "2"
    assert float(rep["inter_layer_gap"]) >= 0
    assert (tmp_path / "oh_A.tsv").exists()
    assert (tmp_path / "oh_B.tsv").exists()


def test_ohmnet_with_hierarchy_file(data_dir, tmp_path, capsys):
    hier = tmp_path / "layers.hier"
    hier.write_text("A\t-\nB\tA\n")
    layers = ["--layer", f"A={data_dir / 'la.edges'}",
              "--layer", f"B={data_dir / 'lb.edges'}"]
    code, stdout, err = run_cli(
        capsys, "ohmnet", *layers, "--hierarchy", str(hier), "--lam", "0.5",
        "--epochs", "1", "--seed", "0", "--out-prefix", str(tmp_path / "h_"))
    assert code == 0, err
    rep = report_dict(stdout)
    assert rep["config.layers"] == "A,B"
    assert float(rep["inter_layer_gap"]) >= 0
    assert (tmp_path / "h_A.tsv").exists() and (tmp_path / "h_B.tsv").exists()


def test_ohmnet_hierarchy_must_name_every_layer(data_dir, tmp_path, capsys):
    hier = tmp_path / "a_only.hier"
    hier.write_text("A\t-\n")
    code, stdout, err = run_cli(
        capsys, "ohmnet", "--layer", f"A={data_dir / 'la.edges'}",
        "--layer", f"B={data_dir / 'lb.edges'}", "--hierarchy", str(hier),
        "--epochs", "1", "--out-prefix", str(tmp_path / "h_"))
    assert code == 2
    assert stdout == ""
    assert "'B'" in err
    assert not (tmp_path / "h_A.tsv").exists()


def test_ohmnet_hierarchy_error_names_its_line(data_dir, tmp_path, capsys):
    hier = tmp_path / "spaced.hier"
    hier.write_text("A\t-\nB A\n")
    code, stdout, err = run_cli(
        capsys, "ohmnet", "--layer", f"A={data_dir / 'la.edges'}",
        "--layer", f"B={data_dir / 'lb.edges'}", "--hierarchy", str(hier),
        "--epochs", "1", "--out-prefix", str(tmp_path / "h_"))
    assert code == 2
    assert stdout == ""
    assert "line 2: hierarchy line needs 2 tab-separated fields" in err


def test_ohmnet_layer_flags_replace_config_layers(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layer": [f"C={data_dir / 'la.edges'}"],
                               "epochs": 1}))
    code, stdout, err = run_cli(
        capsys, "ohmnet", "--config", str(cfg),
        "--layer", f"A={data_dir / 'la.edges'}",
        "--layer", f"B={data_dir / 'lb.edges'}",
        "--out-prefix", str(tmp_path / "oh_"))
    assert code == 0, err
    assert report_dict(stdout)["config.layers"] == "A,B"


def test_ohmnet_rejects_bad_layer_spec(data_dir, capsys):
    code, _, err = run_cli(capsys, "ohmnet", "--layer", "nopath",
                           "--out-prefix", "x")
    assert code == 2
    assert "NAME=PATH" in err

    code, _, err = run_cli(
        capsys, "ohmnet",
        "--layer", f"A={data_dir / 'la.edges'}",
        "--layer", f"A={data_dir / 'lb.edges'}",
        "--out-prefix", "x")
    assert code == 2
    assert "duplicate" in err


def test_report_file_matches_stdout(data_dir, tmp_path, capsys):
    rep_file = tmp_path / "report.txt"
    code, stdout, _ = run_cli(
        capsys, "embed", "--input", str(data_dir / "karate.edges"),
        "--epochs", "1", "--seed", "1", "--out", str(tmp_path / "z.tsv"),
        "--report", str(rep_file))
    assert code == 0
    assert rep_file.read_text() == stdout


# child interpreters import the same grembed as this one, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(grembed.__file__)),
    os.environ.get("PYTHONPATH")]))}


def test_console_entry_byte_identical(data_dir, tmp_path):
    cmd = [sys.executable, "-m", "grembed.cli", "embed",
           "--method", "deepwalk", "--input", str(data_dir / "karate.edges"),
           "--dim", "8", "--seed", "7", "--epochs", "1"]
    r1 = subprocess.run(cmd + ["--out", str(tmp_path / "z1.tsv")],
                        capture_output=True, text=True, env=CHILD_ENV)
    r2 = subprocess.run(cmd + ["--out", str(tmp_path / "z2.tsv")],
                        capture_output=True, text=True, env=CHILD_ENV)
    assert r1.returncode == 0 and r2.returncode == 0
    assert (tmp_path / "z1.tsv").read_bytes() == \
        (tmp_path / "z2.tsv").read_bytes()


def test_console_entry_error_codes(tmp_path):
    r = subprocess.run([sys.executable, "-m", "grembed.cli"],
                       capture_output=True, text=True, env=CHILD_ENV)
    assert r.returncode == 2
    r = subprocess.run(
        [sys.executable, "-m", "grembed.cli", "embed", "--input",
         str(tmp_path / "ghost.edges"), "--out", str(tmp_path / "z.tsv")],
        capture_output=True, text=True, env=CHILD_ENV)
    assert r.returncode == 2
    assert "ghost.edges" in r.stderr


def test_repeated_walklets_offset_exits_2(data_dir, tmp_path, capsys):
    code, stdout, err = run_cli(
        capsys, "embed", "--method", "walklets", "--offsets", "1,1",
        "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "z.tsv"))
    assert code == 2
    assert stdout == ""
    assert "offsets repeat [1]" in err


# layers that neither importing the CLI nor a `walk` call needs
NOT_FOR_WALKS = ("shallow", "autodiff", "similarity", "harness", "aggenc",
                 "autoenc", "gnn", "multiscale", "structural", "subgraph")


def _layers_loaded_by(*argv):
    """The grembed modules loaded after importing the CLI, then after
    running ``argv`` (which must exit 0), in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('grembed.'))\n"
        "import grembed.cli as cli\n"
        "after_import = loaded()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, after_import, loaded()]), file=sys.stderr)\n")
    r = subprocess.run([sys.executable, "-c", script, *argv],
                       capture_output=True, text=True, env=CHILD_ENV)
    code, after_import, after_call = json.loads(r.stderr.splitlines()[-1])
    assert code == 0, r.stderr
    return after_import, after_call


def test_import_and_walk_call_load_only_their_own_layers(data_dir, tmp_path):
    after_import, after_walk = _layers_loaded_by(
        "walk", "--kind", "node2vec", "--q", "0.5", "--length", "5",
        "--input", str(data_dir / "karate.edges"),
        "--out", str(tmp_path / "w.txt"))
    assert "grembed.walks" in after_import
    for name in NOT_FOR_WALKS:
        assert f"grembed.{name}" not in after_import, name
        assert f"grembed.{name}" not in after_walk, name


def test_eval_nodes_call_loads_neither_trainers_nor_encoders(data_dir,
                                                             spectral_z):
    _, after_eval = _layers_loaded_by(
        "eval-nodes", "--embedding", str(spectral_z),
        "--labels", str(data_dir / "karate.labels"), "--eval-seeds", "2")
    assert "grembed.harness" in after_eval
    for name in ("aggenc", "shallow", "similarity", "autoenc", "gnn",
                 "multiscale", "structural", "subgraph"):
        assert f"grembed.{name}" not in after_eval, name


def test_cli_calls_never_load_numpy_random(data_dir, tmp_path):
    # training and eval streams are grembed.rng's; only fixtures use numpy's
    edges, emb = str(data_dir / "karate.edges"), str(tmp_path / "z.tsv")
    small = ["--dim", "4", "--epochs", "1", "--walk-length", "5",
             "--walks-per-node", "2", "--window", "2"]
    calls = {
        "embed deepwalk": ["embed", "--method", "deepwalk", "--input", edges,
                           "--out", emb, *small],
        "embed node2vec": ["embed", "--method", "node2vec", "--q", "0.5",
                           "--input", edges, "--out",
                           str(tmp_path / "z2.tsv"), *small],
        "eval-nodes": ["eval-nodes", "--embedding", emb, "--labels",
                       str(data_dir / "karate.labels"), "--eval-seeds", "2"],
        "eval-links": ["eval-links", "--input", edges, "--method",
                       "node2vec", "--eval-seeds", "2", *small],
        "walk": ["walk", "--input", edges, "--length", "5",
                 "--out", str(tmp_path / "w.txt")],
    }
    script = ("import sys, grembed.cli as cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(code, 'numpy.random' in sys.modules, file=sys.stderr)\n")
    for name, argv in calls.items():
        r = subprocess.run([sys.executable, "-c", script, *argv],
                           capture_output=True, text=True, env=CHILD_ENV)
        assert r.stderr.splitlines()[-1] == "0 False", (name, r.stderr)


TRACECLI = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "tracecli.py")


def test_trace_tool_spans_every_layer_and_keeps_stdout(data_dir, tmp_path):
    emb = str(tmp_path / "z.tsv")
    calls = [
        ["walk", "--input", str(data_dir / "karate.edges"), "--length", "5",
         "--out", str(tmp_path / "w.txt")],
        ["embed", "--input", str(data_dir / "karate.edges"), "--dim", "4",
         "--epochs", "1", "--walk-length", "5", "--window", "2",
         "--walks-per-node", "2", "--out", emb],
        ["eval-nodes", "--embedding", emb,
         "--labels", str(data_dir / "karate.labels"), "--eval-seeds", "2"],
    ]
    names = set()
    for i, argv in enumerate(calls):
        plain = subprocess.run([sys.executable, "-m", "grembed.cli"] + argv,
                               capture_output=True, text=True, env=CHILD_ENV)
        assert plain.returncode == 0, plain.stderr
        spans = tmp_path / f"spans{i}.json"
        traced = subprocess.run(
            [sys.executable, TRACECLI, str(spans), "--"] + argv,
            capture_output=True, text=True, env=CHILD_ENV)
        assert traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        names |= {span[0] for span in json.loads(spans.read_text())}
    assert {"graph.load", "walks.sample", "walks.dump", "shallow.train",
            "shallow.save", "shallow.load"} <= names
