"""Run one grembed CLI call with spans recorded around each layer.

    PYTHONPATH=src python3 perfbench/tracecli.py SPANS.json -- embed --input g.edges ...

The program itself carries no tracer, so this script wraps the public
functions of each layer where the callers look them up, runs
``grembed.cli.main`` on the given arguments, and writes every span to
SPANS.json as ``[name, start, end, parent, counts]`` (parent is the
index of the enclosing span, -1 at top level). Counts are taken from
return values after the call has ended, so counting adds no time to
any span. Stdout, stderr and the exit code are the CLI's own, so a
traced call can be compared byte for byte with an untraced one.
"""

import functools
import json
import sys
import time


class Recorder:
    """Nested spans in memory; written out once the call has ended."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._pending = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        return self.spans[-1]

    def end(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                self._pending.append((span, count, out))
            return out

        return traced

    def settle_counts(self):
        for span, count, out in self._pending:
            span[4] = count(out)
        self._pending.clear()


def _corpus_counts(corpus):
    import numpy as np

    steps = 0
    states = []
    n = corpus.node_count
    for walk in corpus.walks:
        steps += len(walk) - 1
        states.append(walk[:-1] * n + walk[1:])
    distinct = int(np.unique(np.concatenate(states)).size) if states else 0
    return {"walks": len(corpus), "steps": steps,
            "skipped_starts": int(corpus.skipped_starts),
            "distinct_transitions": distinct}


def _trained_pairs(table):
    meta = table.metadata
    return {"trained_pairs": int(meta.get("pair_count", 0)) * int(meta["epochs"])}


def instrument(rec):
    """Wrap each layer's public functions where their callers find them."""
    import grembed.cli as cli
    from grembed import autodiff, graph, harness, shallow, walks

    cli.load_edge_list = rec.wrap(
        "graph.load", cli.load_edge_list, lambda g: {"edges": g.edge_count})
    cli.load_embedding = rec.wrap("shallow.load", cli.load_embedding)
    from_edges = graph.Graph.from_edges.__func__
    graph.Graph.from_edges = classmethod(
        rec.wrap("graph.from_edges", from_edges))

    for attr in ("sample_uniform_walks", "sample_node2vec_walks"):
        traced = rec.wrap("walks.sample", getattr(walks, attr), _corpus_counts)
        setattr(walks, attr, traced)
        setattr(shallow, attr, traced)
    shallow.extract_pairs = rec.wrap(
        "walks.pairs", shallow.extract_pairs, lambda p: {"pairs": len(p)})
    walks.WalkCorpus.dump = rec.wrap("walks.dump", walks.WalkCorpus.dump)

    shallow.train_shallow = rec.wrap(
        "shallow.train", shallow.train_shallow, _trained_pairs)
    shallow.EmbeddingTable.save = rec.wrap(
        "shallow.save", shallow.EmbeddingTable.save)

    autodiff.backward = rec.wrap("autodiff.backward", autodiff.backward)
    for opt in (autodiff.Sgd, autodiff.Adam):
        opt.step = rec.wrap("autodiff.step", opt.step)

    for attr in ("node_classification_eval", "link_prediction_eval"):
        setattr(harness, attr, rec.wrap("harness.eval", getattr(harness, attr)))
    harness.train_logistic = rec.wrap("harness.logistic",
                                      harness.train_logistic)
    harness.holdout_edges = rec.wrap("harness.holdout", harness.holdout_edges)
    harness.sample_non_edges = rec.wrap("harness.non_edges",
                                        harness.sample_non_edges)
    return cli


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracecli.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    rec = Recorder()
    span = rec.begin("cli.import")
    import grembed.cli  # noqa: F401  (the import is what this span times)
    rec.end(span)
    cli = instrument(rec)
    span = rec.begin("cli.main")
    try:
        code = cli.main(cli_argv)
    finally:
        rec.end(span)
    sys.stdout.flush()
    rec.settle_counts()
    with open(spans_path, "w") as fh:
        json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
