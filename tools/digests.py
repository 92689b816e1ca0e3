"""Digest every criterion-12 CLI call as run from a given source tree.

    python3 tools/digests.py [TREE]

TREE is a grembed source tree (default: this one); its ``src`` goes on
the child's PYTHONPATH. The calls and their input files come from
``tests/test_acceptance.py`` (``criterion_12_commands`` and
``_cli_fixture_files``) of this tree, so two trees run the same calls on
the same bytes. Each call runs once, in order, in a fresh interpreter,
in a temporary directory. Per call, one line gives its name and the first
16 hex digits of sha256 over its stdout (the temporary directory written
as ``T``) followed by each output file. Compare a parent and a change with

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


def main(argv):
    for name, digest in digests(argv[0] if argv else ROOT):
        print(f"{name}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
