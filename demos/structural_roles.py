"""Role discovery on a barbell: nodes grouped by what they look like,
not where they sit."""

import numpy as np

from grembed.fixtures import barbell_graph
from grembed.structural import (
    degree_refinement_classes,
    graphwave_signature,
    struc2vec_embed,
)


def main():
    g = barbell_graph(5, 3)
    n = g.node_count

    # heat-kernel signatures: equivalent nodes get identical rows
    mat = graphwave_signature(g).vectors
    classes = degree_refinement_classes(g)
    print("degree-refinement classes vs wavelet signatures")
    for cls in sorted(set(classes)):
        members = [v for v in range(n) if classes[v] == cls]
        spread = float(np.abs(mat[members] - mat[members[0]]).max())
        print(f"  class {cls}: nodes {members}, signature spread {spread:.2e}")

    # role embeddings: clique members should look alike even though the
    # two cliques are far apart
    table = struc2vec_embed(g, seed=0, lr=0.25)
    z = table.vectors
    z = z / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    cos = z @ z.T
    clique = list(range(5)) + list(range(n - 5, n))
    path = [v for v in range(n) if v not in clique]
    intra = np.mean([cos[i, j] for grp in (clique, path)
                     for i in grp for j in grp if i != j])
    inter = np.mean([cos[i, j] for i in clique for j in path])
    print(f"\nrole embedding cosine: same role {intra:.3f}, "
          f"across roles {inter:.3f}")
    far_pair = cos[0, n - 1]
    print(f"opposite clique corners (hop distance "
          f"{int(g.bfs_distances(0)[n - 1])}): cosine {far_pair:.3f}")


if __name__ == "__main__":
    main()
