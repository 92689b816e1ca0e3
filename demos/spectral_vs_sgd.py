"""Closed-form factorization against gradient descent.

For the squared reconstruction objective on a symmetric similarity
matrix the truncated eigendecomposition is the exact rank-d optimum,
so stochastic training can at best tie it. Here we watch SGD close
the gap on a few random graphs.
"""

import numpy as np

from grembed.fixtures import erdos_renyi
from grembed.shallow import ShallowConfig, closed_form_factorization, train_shallow
from grembed.similarity import SimilaritySpec, build_similarity


def residual(z, s):
    return float(((z @ z.T - s) ** 2).sum())


print("graph          closed-form      sgd     ratio")
for i in range(6):
    g = erdos_renyi(9 + i, 0.35, seed=50 + i)
    s = build_similarity(g, SimilaritySpec(kind="adjacency"))
    rc = residual(closed_form_factorization(s, 3).vectors, s)
    table = train_shallow(g, "graph_factorization",
                          ShallowConfig(dim=3, epochs=400, lr=0.05, seed=i))
    rs = residual(table.vectors, s)
    print(f"n={g.node_count:<3} m={g.edge_count:<4}  {rc:12.5f} {rs:12.5f}"
          f" {rs / rc:9.4f}")

print("\nratio 1.0 means gradient descent found the spectral optimum")
