"""Digest every criterion-12 CLI call as run from a given source tree.

    python3 tools/digests.py [TREE]

TREE is a grembed source tree (default: this one); its ``src`` goes on
the child's PYTHONPATH. The calls and their input files come from
``tests/test_acceptance.py`` (``criterion_12_commands`` and
``_cli_fixture_files``) of this tree, so two trees run the same calls on
the same bytes. Each call runs once, in order, in a fresh interpreter,
in a temporary directory. Per call, one line gives its name and the first
16 hex digits of sha256 over its stdout (the temporary directory written
as ``T``) followed by each output file. Then one line per fixture graph,
built in one more child from TREE, gives the same digest over every
array the Graph exposes: the edge list with its weights and types, the
CSR arrays, ``csr_sources``, ``edge_count`` and the reverse-arc slots
``arc_slots(csr_targets, csr_sources)``. Compare a parent and a change with

    diff <(python3 tools/digests.py PARENT_TREE) <(python3 tools/digests.py)
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import _cli_fixture_files, criterion_12_commands  # noqa: E402


def digests(tree):
    """(name, digest) per criterion-12 call run from ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        root = Path(tmp)
        _cli_fixture_files(root)
        for name, (argv, outputs) in criterion_12_commands(root).items():
            proc = subprocess.run(
                [sys.executable, "-m", "grembed.cli", *argv], cwd=tmp,
                env=env, capture_output=True, check=True)
            h = hashlib.sha256(proc.stdout.replace(tmp.encode(), b"T"))
            for out_name in outputs:
                h.update((root / out_name).read_bytes())
            yield name, h.hexdigest()[:16]


# run in a child from the tree under test; prints "graph <name>\t<digest>"
GRAPH_DIGESTS = """
import hashlib
from grembed import fixtures
from grembed.graph import Graph

er = fixtures.erdos_renyi(60, 0.1, seed=1)
graphs = {
    "karate": fixtures.karate_club()[0],
    "sbm-4x500": fixtures.stochastic_block_model(
        (500,) * 4, 0.03, 0.001, seed=7)[0],
    "er-60-directed": Graph(er.node_ids, er.edge_pairs, directed=True),
}
for name, g in graphs.items():
    h = hashlib.sha256(repr(
        (g.node_ids, g.directed, g.weighted, g.edge_count)).encode())
    for a in (g.edge_pairs, g.pair_weights, g.pair_types, g.csr_offsets,
              g.csr_targets, g.csr_weights, g.csr_types, g.node_attributes,
              g.node_types, g.csr_sources,
              g.arc_slots(g.csr_targets, g.csr_sources)):
        h.update(b"None" if a is None
                 else repr((a.dtype.str, a.shape)).encode() + a.tobytes())
    print(f"graph {name}\t{h.hexdigest()[:16]}")
"""


def graph_digests(tree):
    """The fixture graphs' lines, built from ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    return subprocess.run([sys.executable, "-c", GRAPH_DIGESTS], env=env,
                          capture_output=True, text=True, check=True).stdout


def main(argv):
    tree = argv[0] if argv else ROOT
    for name, digest in digests(tree):
        print(f"{name}\t{digest}", flush=True)
    print(graph_digests(tree), end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
