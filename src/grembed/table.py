"""The node embedding table and its text file format; kept out of
``shallow`` so that reading a saved table does not load the trainers."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, EdgeListParseError
from .graph import _open_text


@dataclass
class EmbeddingTable:
    """(n, d) float64 lookup table; row v is node v's embedding."""

    vectors: np.ndarray
    node_ids: list
    method: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ContractError("embedding table must be 2-D")
        if self.node_ids is not None and len(self.node_ids) != len(self.vectors):
            raise ContractError("node_ids length != vector count")

    @property
    def dim(self):
        return self.vectors.shape[1]

    @property
    def node_count(self):
        return self.vectors.shape[0]

    def save(self, target):
        with _open_text(target, "w") as fh:
            fh.write(f"node_id\t{self.dim}\n")
            ids = self.node_ids or [str(i) for i in range(self.node_count)]
            for nid, row in zip(ids, self.vectors):
                fh.write(nid + "\t" + " ".join("%.17g" % x for x in row) + "\n")


def load_embedding(source):
    with _open_text(source) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 2 or header[0] != "node_id":
            raise EdgeListParseError("bad embedding header", 1)
        try:
            d = int(header[1])
        except ValueError:
            raise EdgeListParseError("bad dimension in header", 1)
        first, rows = {}, []  # node id -> the line it is on
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            nid, _, rest = line.partition("\t")
            vals = rest.split()
            if len(vals) != d:
                raise EdgeListParseError(
                    f"expected {d} values, got {len(vals)}", lineno)
            if first.setdefault(nid, lineno) != lineno:
                raise EdgeListParseError(
                    f"duplicate node id {nid!r} (first on line {first[nid]})",
                    lineno)
            try:
                row = [float(x) for x in vals]
            except ValueError as e:
                raise EdgeListParseError(str(e), lineno)
            bad = [x for x, v in zip(vals, row) if not math.isfinite(v)]
            if bad:
                raise EdgeListParseError(f"non-finite value {bad[0]!r}",
                                         lineno)
            rows.append(row)
    return EmbeddingTable(np.array(rows, dtype=np.float64), list(first))


