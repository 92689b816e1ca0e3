"""End-to-end benchmark of the grembed command line.

    python3 perfbench/run.py --workload deepwalk-nodes --seed 1 --seconds 40 --trace 0

Run from the root of a grembed source tree (it needs ``src/grembed``;
the package does not have to be installed). Each workload generates its
input graph from ``--seed`` with ``grembed.fixtures.stochastic_block_model``
(untimed) and then runs the CLI as a user would: one child process per
call that runs ``grembed.cli`` as ``python -m`` does (under ``CLI_CHILD``,
which records the child's peak memory), with the workload seed as the
CLI ``--seed``. Calls are repeated until ``--seconds`` have passed (at least
twice, so that same-seed byte determinism is checked on every run).

``--trace 0`` reports the end-to-end metrics of the untraced children:

- ``cli_s``: time of the workload's calls, summed, median over
  repetitions;
- ``setup_s``: time of a fresh child that only imports ``grembed.cli``
  and loads the workload's edge list, median over ``SETUP_PER_REP`` such
  children before each repetition;
- ``peak_rss_mb``: the largest peak resident set (``VmHWM``) among one
  repetition's children, median over repetitions;
- ``quality``: macro-F1 of ``eval-nodes``, mean AUC of ``eval-links``,
  or, for the walk-only workload, the share of walk steps that stay in
  the planted block of the graph.

Times are read at a fixed host speed. On a shared 2-vCPU Xeon VM the
speed of a CPU drifts by up to a fifth either way within seconds, and a
child's CPU time drifts with it, so wall clock alone spreads by about a
quarter between runs of the same code. The benchmark therefore pins itself and
its children to one CPU, and while a child runs a probe thread times a
fixed slice of work (``probe_unit``) on that CPU every ``PROBE_GAP_S``.
A child's time is its own CPU time (user + sys, from ``os.wait4``)
times ``NOMINAL_PROBE_S`` over the harmonic mean of the probe times
during its life: the seconds it would take on a host where the probe
takes ``NOMINAL_PROBE_S``. (Work done is CPU time times speed averaged
over time, and speed is one over a probe time, so the mean that fits is
the harmonic one.) The raw wall and CPU times are printed on the info
line.

``--trace 1`` runs the calls untraced and then once more under
``perfbench/tracecli.py``, which records spans around the public
functions of each layer, and reports per-layer self times and counts.

Every child is checked: exit code 0, the expected report keys, the
workload's output files, a quality floor well above chance, and
byte-identical stdout and output files for the same seed. Failed
children over attempted ones is printed as ``failed_frac`` on the info
line; it is 0 on a correct run, so it is carried by ``attempted`` and
``failed`` rather than reported as a metric. The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACECLI = Path(__file__).resolve().parent / "tracecli.py"

# Set-up children are spread over the whole run instead of being timed
# in one burst.
SETUP_PER_REP = 4
# The speed probe: one probe_unit every PROBE_GAP_S while a child runs
# (about a tenth of the CPU), and about its median time on a 2-vCPU Xeon
# VM (Python 3.11, numpy 2.4).
PROBE_GAP_S = 0.1
NOMINAL_PROBE_S = 0.012
# Children still running this long after the benchmark started are
# killed, so that a run always ends within 180 s.
HARD_LIMIT_S = 165.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

# Training runs at lr 1.0 (DeepWalk) and 25 (node2vec), not the CLI
# default 0.025. At 0.025 (seed 1) deepwalk-nodes scores macro-F1 0.24,
# chance for 4 blocks, and n2v-links scores AUC 0.50, so `quality` would
# guard nothing. The likely cause is that shallow._skipgram_train
# divides the lr by the batch size (256); that is a finding for the
# library, left unfixed here.
DIM = 16
DEEPWALK_LR = "1.0"
NODE2VEC_LR = "25"
WALK_LENGTH = 40
WALKS_PER_NODE = 2
LINK_EVAL_SEEDS = 4
F1_FLOOR = 0.6      # chance is 0.25 with 4 balanced blocks
AUC_FLOOR = 0.65    # chance is 0.5
IN_BLOCK_FLOOR = 0.5

END_TO_END = {"cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "quality": "score"}
# Per-layer metrics: ``*_s`` is self time (span time minus nested spans),
# summed over calls; the other names are counts taken from return values.
# What each should move, on which workload:
#   graph.load_*          setup_s everywhere, most on n2v-walks
#   graph.from_edges_*    cli_s on n2v-links (one residual graph per seed)
#   walks.sample_*, walks.steps_per_s
#                         cli_s on n2v-walks and n2v-links, little on
#                         deepwalk-nodes
#   walks.distinct_transitions
#                         bounds the node2vec (prev, cur) table cache, so
#                         peak_rss_mb on n2v-walks
#   walks.pairs_*         cli_s on deepwalk-nodes and n2v-links
#   walks.dump_s          cli_s on n2v-walks
#   shallow.*, autodiff.* cli_s on deepwalk-nodes (most) and n2v-links;
#                         nothing on n2v-walks, which runs no training
#   harness.*             cli_s on deepwalk-nodes (eval-nodes) and n2v-links
#   cli.*, trace.*        checks on the trace itself: cli.other_s is traced
#                         wall minus the top-level spans, trace.coverage
#                         their share of it, trace.overhead_s traced wall
#                         minus the untraced median wall (the traced run
#                         takes no speed probe, so all of these are raw
#                         wall clock)
PER_LAYER = {
    "graph.load_s": "s", "graph.edges": "count",
    "graph.from_edges_s": "s", "graph.from_edges_calls": "count",
    "walks.sample_s": "s", "walks.walks": "count", "walks.steps": "count",
    "walks.skipped_starts": "count", "walks.steps_per_s": "1/s",
    "walks.distinct_transitions": "count",
    "walks.pairs_s": "s", "walks.pairs": "count", "walks.dump_s": "s",
    "shallow.train_s": "s", "shallow.batches": "count",
    "shallow.pairs_per_s": "1/s", "shallow.save_s": "s",
    "shallow.load_s": "s",
    "autodiff.backward_s": "s", "autodiff.backward_calls": "count",
    "autodiff.step_s": "s", "autodiff.step_calls": "count",
    "harness.eval_s": "s", "harness.logistic_s": "s",
    "harness.logistic_fits": "count", "harness.non_edges_s": "s",
    "harness.holdout_s": "s",
    "cli.import_s": "s", "cli.main_s": "s", "cli.other_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}


# ---------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------


@dataclass
class Inputs:
    edges: str            # edge-list path, relative to ROOT
    labels: str           # id<TAB>block path, relative to ROOT
    nodes: int            # nodes with at least one edge
    edge_count: int
    weighted: bool
    block: dict           # node id -> planted block
    edge_set: set = field(default=None, repr=False)

    def describe(self):
        return {"nodes": self.nodes, "edges": self.edge_count,
                "weighted": self.weighted}


def make_sbm(work, seed, sizes, p_in, p_out, weighted):
    """Write a planted-partition graph (and its blocks) under ``work``."""
    import numpy as np
    from grembed.fixtures import stochastic_block_model

    g, labels = stochastic_block_model(sizes, p_in, p_out, seed=seed)
    ids = g.node_ids
    pairs = [(ids[a], ids[b]) for a, b in g.edge_pairs.tolist()]
    if weighted:
        weights = np.random.default_rng(seed).integers(1, 6, size=len(pairs))
        lines = [f"{u}\t{v}\t{w}\n" for (u, v), w in zip(pairs, weights)]
    else:
        lines = [f"{u}\t{v}\n" for u, v in pairs]
    tag = f"sbm{sum(sizes)}"
    edges, labels_path = work / f"{tag}.edges", work / f"{tag}.labels"
    edges.write_text("".join(lines))
    block = {nid: int(b) for nid, b in zip(ids, labels)}
    labels_path.write_text("".join(f"{k}\t{v}\n" for k, v in block.items()))
    edge_set = set(pairs) | {(v, u) for u, v in pairs}
    return Inputs(str(edges.relative_to(ROOT)),
                  str(labels_path.relative_to(ROOT)),
                  len({u for u, _ in edge_set}), len(pairs), weighted,
                  block, edge_set)


# ---------------------------------------------------------------------
# output checks; each returns (failures, quality or None)
# ---------------------------------------------------------------------


def parse_report(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#version "):
        return {}
    return dict(line.split("\t", 1) for line in lines[1:] if "\t" in line)


def _missing(report, keys):
    gone = [k for k in keys if k not in report]
    return [f"report lacks {', '.join(gone)}"] if gone else []


def check_embed(report, inp, out_path):
    bad = _missing(report, ("task", "node_count", "edge_count", "dim"))
    if bad:
        return bad, None
    if (int(report["node_count"]), int(report["edge_count"]),
            int(report["dim"])) != (inp.nodes, inp.edge_count, DIM):
        bad.append("embed report sizes differ from the input")
    with open(out_path) as fh:
        header = fh.readline().rstrip("\n")
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    if header != f"node_id\t{DIM}":
        bad.append(f"embedding header is {header!r}")
    if len(rows) != inp.nodes or {r[0] for r in rows} != {
            nid for nid, _ in inp.edge_set}:
        bad.append("embedding rows do not match the graph's nodes")
    for row in rows:
        vals = row[1].split() if len(row) == 2 else []
        if len(vals) != DIM or not all(math.isfinite(float(x)) for x in vals):
            bad.append(f"embedding row for {row[0]!r} is not {DIM} finite values")
            break
    return bad, None


def check_eval_nodes(report, inp, out_path):
    bad = _missing(report, ("accuracy_mean", "macro_f1_mean",
                            "per_seed.macro_f1"))
    if bad:
        return bad, None
    f1 = float(report["macro_f1_mean"])
    if not f1 >= F1_FLOOR:
        bad.append(f"macro-F1 {f1} is below {F1_FLOOR}")
    return bad, f1


def check_walks(report, inp, out_path):
    bad = _missing(report, ("walk_count", "skipped_starts", "node_count"))
    if bad:
        return bad, None
    with open(out_path) as fh:
        walks = [line.split() for line in fh if line.strip()]
    expected = inp.nodes * WALKS_PER_NODE - int(report["skipped_starts"])
    if len(walks) != expected or int(report["walk_count"]) != expected:
        bad.append(f"{len(walks)} walks, report says {report['walk_count']},"
                   f" expected {expected}")
    steps = same_block = 0
    for walk in walks:
        if not 2 <= len(walk) <= WALK_LENGTH + 1:
            bad.append(f"walk of {len(walk)} nodes")
            break
        for u, v in zip(walk, walk[1:]):
            if (u, v) not in inp.edge_set:
                bad.append(f"walk step {u}->{v} is not an edge")
                return bad, None
            same_block += inp.block[u] == inp.block[v]
        steps += len(walk) - 1
    share = same_block / steps if steps else 0.0
    if not share >= IN_BLOCK_FLOOR:
        bad.append(f"in-block step share {share} is below {IN_BLOCK_FLOOR}")
    return bad, share


def check_eval_links(report, inp, out_path):
    bad = _missing(report, ("auc_mean", "auc_std", "per_seed.auc"))
    if bad:
        return bad, None
    if len(report["per_seed.auc"].split(",")) != LINK_EVAL_SEEDS:
        bad.append("eval-links did not report one AUC per eval seed")
    auc = float(report["auc_mean"])
    if not auc >= AUC_FLOOR:
        bad.append(f"AUC {auc} is below {AUC_FLOOR}")
    return bad, auc


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------


@dataclass
class Call:
    argv: list
    check: object
    out: str = None       # output file compared across repetitions


@dataclass
class Workload:
    why: str
    graph: tuple          # (sizes, p_in, p_out, weighted)
    calls: object         # (inputs, work dir) -> [Call]


def _deepwalk_nodes(inp, work):
    emb = str((work / "z.tsv").relative_to(ROOT))
    return [
        Call(["embed", "--input", inp.edges, "--out", emb,
              "--method", "deepwalk", "--dim", str(DIM), "--walk-length", "20",
              "--walks-per-node", "2", "--window", "5", "--epochs", "3",
              "--lr", DEEPWALK_LR], check_embed, emb),
        Call(["eval-nodes", "--embedding", emb, "--labels", inp.labels],
             check_eval_nodes),
    ]


def _n2v_walks(inp, work):
    out = str((work / "walks.txt").relative_to(ROOT))
    return [Call(["walk", "--input", inp.edges, "--out", out,
                  "--kind", "node2vec", "--q", "0.5",
                  "--length", str(WALK_LENGTH),
                  "--walks-per-node", str(WALKS_PER_NODE)], check_walks, out)]


def _n2v_links(inp, work):
    return [Call(["eval-links", "--input", inp.edges, "--method", "node2vec",
                  "--q", "0.5", "--lr", NODE2VEC_LR, "--walk-length", "20",
                  "--walks-per-node", "1", "--window", "5", "--epochs", "1",
                  "--eval-seeds", str(LINK_EVAL_SEEDS)], check_eval_links)]


SBM_1K = ((250,) * 4, 0.05, 0.002, False)
WORKLOADS = {
    "deepwalk-nodes": Workload(
        "training-bound: hsoftmax skip-gram on uniform walks, then "
        "eval-nodes; moves with autodiff/shallow kernels, barely with walks",
        SBM_1K, _deepwalk_nodes),
    "n2v-walks": Workload(
        "weighted node2vec walks only: alias tables and the (prev, cur) "
        "cache, no autodiff; moves with the walk engine alone",
        ((500,) * 4, 0.03, 0.001, True), _n2v_walks),
    "n2v-links": Workload(
        "eval-links: residual graph rebuilds, node2vec walks and "
        "negative-sampling training per eval seed; mixes the layers",
        SBM_1K, _n2v_links),
}


# ---------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------


# Untraced CLI children run under this, which writes the child's own peak
# RSS to the file named by its first argument. ru_maxrss from wait4 would
# not do: exec keeps the high-water mark of the process image it replaces,
# so it would never read below the benchmark's own RSS.
CLI_CHILD = """
import runpy, sys
hwm_path = sys.argv.pop(1)
try:
    runpy.run_module("grembed.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(hwm_path, "w") as fh:
        fh.write(kb)
"""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    stdout: bytes
    probes: list          # probe_unit times taken while the child ran


_PROBE_DATA = None


def probe_unit():
    """A fixed slice of work like the library's: small numpy calls and dict
    updates in a Python loop, as in the walk samplers, then gathers,
    small matrix products and scatter-adds on a table of rows, as in
    skip-gram training. Either half alone tracked the children's CPU time
    less closely than both."""
    import numpy as np

    global _PROBE_DATA
    if _PROBE_DATA is None:
        rng = np.random.default_rng(0)
        _PROBE_DATA = (rng.integers(0, 1 << 20, 1 << 20),
                       rng.standard_normal((100_000, 16)),
                       rng.standard_normal((16, 16)))
    ids, table, proj = _PROBE_DATA
    rng = np.random.default_rng(0)
    seen = {}
    for i in range(120):
        idx = rng.integers(0, ids.size, size=256)
        for v in np.unique(ids[idx] % 4096)[:16].tolist():
            seen[v] = seen.get(v, 0) + i
    for _ in range(40):
        rows = rng.integers(0, len(table), size=256)
        out = 1.0 / (1.0 + np.exp(-(table[rows] @ proj)))
        np.add.at(table, rows, -1e-9 * ((out - 0.5) @ proj.T))
    return len(seen)


class Probe:
    """Times probe_unit at once and then every PROBE_GAP_S, on this
    thread's CPU, until stopped."""

    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            start = time.thread_time()
            probe_unit()
            self.times.append(time.thread_time() - start)
            if self._stop.wait(PROBE_GAP_S):
                return

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.times


def scaled(cpu, probes):
    """CPU seconds at the nominal host speed, given the probe times."""
    return cpu * NOMINAL_PROBE_S / statistics.harmonic_mean(probes)


def child_env():
    env = dict(os.environ)
    env.pop("GREMBED_SEED", None)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn(argv, work, deadline, probe=False):
    """Run one child; time it spawn to exit and take its own rusage.

    With ``probe`` the host's speed is sampled while the child runs.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        sampler = Probe() if probe else None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            probes = sampler.stop() if sampler else []
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        print(f"child exited {proc.returncode}:\n  " + "\n  ".join(tail),
              file=sys.stderr)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 out_path.read_bytes(), probes)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------


class Run:
    """Repetitions of one workload, with their checks and failure counts."""

    def __init__(self, workload, inp, work, seed, deadline):
        self.calls = workload.calls(inp, work)
        self.inp, self.work, self.seed = inp, work, seed
        self.deadline = deadline
        self.attempted = self.failed = 0
        self.failures = []
        self.first = None         # [(stdout, out digest)] of the first rep
        self.quality = None

    def _record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def setup(self):
        """Times of fresh children that only import the CLI and load the
        graph, at the nominal host speed; the probes of all of them are
        pooled, as each child is too short for many."""
        code = ("import sys, grembed.cli as cli; "
                "g = cli.load_edge_list(sys.argv[1]); "
                "print(g.node_count, g.edge_count)")
        expected = f"{self.inp.nodes} {self.inp.edge_count}\n".encode()
        cpus, probes = [], []
        for _ in range(SETUP_PER_REP):
            child = spawn([sys.executable, "-c", code, self.inp.edges],
                          self.work, self.deadline, probe=True)
            ok = child.code == 0 and child.stdout == expected
            self._record([] if ok else ["set-up child failed"])
            cpus.append(child.cpu)
            probes += child.probes
        return [scaled(cpu, probes) for cpu in cpus]

    def rep(self, probe, traced=False):
        """Every call of the workload once; returns (wall, cpu, rss, spans,
        time at nominal host speed, 0 without ``probe``)."""
        wall = cpu = rss = nominal = 0.0
        spans = []
        seen = []
        clean = True
        for i, call in enumerate(self.calls):
            if call.out and os.path.exists(ROOT / call.out):
                os.remove(ROOT / call.out)
            hwm_path = self.work / "hwm.txt"
            argv = [sys.executable, "-c", CLI_CHILD, str(hwm_path)]
            spans_path = self.work / f"spans{i}.json"
            if traced:
                argv = [sys.executable, str(TRACECLI), str(spans_path), "--"]
            child = spawn(argv + call.argv + ["--seed", str(self.seed)],
                          self.work, self.deadline, probe)
            wall += child.wall
            cpu += child.cpu
            if probe:
                nominal += scaled(child.cpu, child.probes)
            problems = []
            if child.code != 0:
                problems.append(f"{call.argv[0]} exited {child.code}")
            else:
                if not traced:
                    rss = max(rss, int(hwm_path.read_text()) / 1024.0)
                out = digest(ROOT / call.out) if call.out else None
                seen.append((child.stdout, out))
                problems += self._check(i, call, child.stdout, out)
                if traced:
                    spans.append(json.loads(spans_path.read_text()))
            self._record(problems)
            clean = clean and not problems
        if self.first is None and clean:
            self.first = seen
        return wall, cpu, rss, spans, nominal

    def _check(self, i, call, stdout, out):
        if self.first is not None:
            if self.first[i] == (stdout, out):
                return []      # same bytes as a checked run
            return [f"{call.argv[0]}: output differs from an earlier run "
                    "with the same seed"]
        try:
            bad, quality = call.check(parse_report(stdout.decode()), self.inp,
                                      ROOT / call.out if call.out else None)
        except (ValueError, OSError) as exc:
            bad, quality = [f"unreadable output: {exc}"], None
        if quality is not None:
            self.quality = quality
        return [f"{call.argv[0]}: {b}" for b in bad]


def layer_metrics(traced_calls, traced_wall, untraced_wall):
    """Per-layer self times and counts from the spans of traced calls."""
    self_s = defaultdict(float)
    calls = Counter()
    counts = Counter()
    top = loop_s = 0.0
    batches = 0
    for spans in traced_calls:
        dur = [end - start for _, start, end, _, _ in spans]
        inner = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                inner[parent] += dur[i]
            else:
                top += dur[i]
        for i, (name, _, _, parent, got) in enumerate(spans):
            self_s[name] += dur[i] - inner[i]
            calls[name] += 1
            counts.update(got or {})
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "shallow.train":
                loop_s += dur[i]
            elif parent_name == "shallow.train" and name.startswith("walks."):
                loop_s -= dur[i]
            if name == "autodiff.step" and _under(spans, i, "shallow.train"):
                batches += 1
    sample_s = self_s["walks.sample"]
    values = {
        "graph.load_s": self_s["graph.load"],
        "graph.edges": counts["edges"],
        "graph.from_edges_s": self_s["graph.from_edges"],
        "graph.from_edges_calls": calls["graph.from_edges"],
        "walks.sample_s": sample_s,
        "walks.walks": counts["walks"],
        "walks.steps": counts["steps"],
        "walks.skipped_starts": counts["skipped_starts"],
        "walks.steps_per_s": counts["steps"] / sample_s if sample_s else 0.0,
        "walks.distinct_transitions": counts["distinct_transitions"],
        "walks.pairs_s": self_s["walks.pairs"],
        "walks.pairs": counts["pairs"],
        "walks.dump_s": self_s["walks.dump"],
        "shallow.train_s": self_s["shallow.train"],
        "shallow.batches": batches,
        "shallow.pairs_per_s": (counts["trained_pairs"] / loop_s
                                if loop_s else 0.0),
        "shallow.save_s": self_s["shallow.save"],
        "shallow.load_s": self_s["shallow.load"],
        "autodiff.backward_s": self_s["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "autodiff.step_s": self_s["autodiff.step"],
        "autodiff.step_calls": calls["autodiff.step"],
        "harness.eval_s": self_s["harness.eval"],
        "harness.logistic_s": self_s["harness.logistic"],
        "harness.logistic_fits": calls["harness.logistic"],
        "harness.non_edges_s": self_s["harness.non_edges"],
        "harness.holdout_s": self_s["harness.holdout"],
        "cli.import_s": self_s["cli.import"],
        "cli.main_s": self_s["cli.main"],
        "cli.other_s": traced_wall - top,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": top / traced_wall,
    }
    return values


def _under(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "pinned": PINNED}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grembed" / "cli.py").is_file():
        print(f"error: no grembed source tree under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    # children inherit this, so a child and its speed probe share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe_unit()                # warm-up: builds the probe's data
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inp = make_sbm(work, args.seed, *workload.graph)
        run = Run(workload, inp, work, args.seed, deadline)
        start = time.monotonic()
        reps, setup_times = [], []
        while True:
            began = time.monotonic()
            if not args.trace:
                setup_times += run.setup()
            reps.append(run.rep(not args.trace))
            now = time.monotonic()
            # the traced repetition needs about one more untraced one
            need = (2 if args.trace else 1) * (now - began)
            if (len(reps) >= (1 if args.trace else 2)
                    and now - start + need > args.seconds) or now > deadline:
                break
        if args.trace:
            traced_wall, _, _, spans, _ = run.rep(False, traced=True)
            values = layer_metrics(spans, traced_wall,
                                   statistics.median(r[0] for r in reps))
            units = PER_LAYER
        else:
            values = {"cli_s": statistics.median(r[4] for r in reps),
                      "setup_s": statistics.median(setup_times),
                      "peak_rss_mb": statistics.median(r[2] for r in reps),
                      "quality": run.quality}
            units = END_TO_END
        info = {"workload": args.workload, "why": workload.why,
                "seed": args.seed, "input": inp.describe(),
                "repetitions": len(reps),
                "rep_wall_s": [r[0] for r in reps],
                "rep_cpu_s": [r[1] for r in reps],
                "rep_cli_s": [r[4] for r in reps],
                "rep_slowdown": [r[1] / r[4] if r[4] else None for r in reps],
                "setup_samples": len(setup_times),
                "failed_frac": {"value": run.failed / max(1, run.attempted),
                                "unit": "ratio"},
                "failures": run.failures[:5], "env": environment()}
        print(json.dumps(info))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = run.failed
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:       # no measurement: the run cannot be correct
            failed, value = max(failed, 1), 0.0
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
