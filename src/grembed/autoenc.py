"""Autoencoder embeddings of similarity-matrix rows.

Each node's input is its row s_v of a dense similarity matrix; an MLP
encoder compresses it to z_v and a mirrored decoder reconstructs it.
The objective is squared reconstruction error, optionally plus a
weighted-distance coupling term sum_ij s_ij ||z_i - z_j||^2 that pulls
connected nodes together in embedding space. Presets: "sdne" works on
adjacency rows with the coupling term on, "dngr" on PPMI rows of
random-walk co-occurrence with it off.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .rng import derived_rng
from .shallow import EmbeddingTable, weighted_distance_loss
from .similarity import SimilaritySpec, build_similarity


@dataclass(frozen=True)
class AutoencoderConfig:
    dim: int = 16
    hidden: tuple = (32,)
    activation: str = "tanh"
    epochs: int = 100
    lr: float = 0.01
    le_weight: float = 0.0
    similarity: SimilaritySpec = None
    seed: int = 42

    def __post_init__(self):
        if self.dim < 1:
            raise ContractError("dim must be >= 1")
        if self.activation not in ad.ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")
        if self.le_weight < 0:
            raise ContractError("le_weight must be >= 0")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


class AutoencoderParams:
    """Encoder/decoder weight stacks; decoder mirrors the encoder dims."""

    def __init__(self, input_dim, config):
        dims = [input_dim, *config.hidden, config.dim]
        rng = derived_rng(config.seed, "autoenc_init")
        self.enc = _init_stack(dims, rng)
        self.dec = _init_stack(list(reversed(dims)), rng)
        self.activation = config.activation
        self.dims = dims

    def tensors(self):
        out = []
        for w, b in self.enc + self.dec:
            out.extend([w, b])
        return out

    def encode(self, rows):
        """Bottleneck representation of raw similarity rows (numpy in/out)."""
        return _run_stack(ad.constant(np.atleast_2d(rows)), self.enc,
                          self.activation).data

    def reconstruct(self, rows):
        z = _run_stack(ad.constant(np.atleast_2d(rows)), self.enc,
                       self.activation)
        return _run_stack(z, self.dec, self.activation, last_linear=True).data


def _init_stack(dims, rng):
    stack = []
    for din, dout in zip(dims[:-1], dims[1:]):
        w = ad.parameter(rng.normal(0.0, 1.0 / np.sqrt(din), size=(din, dout)))
        b = ad.parameter(np.zeros((1, dout)))
        stack.append((w, b))
    return stack


def _run_stack(x, stack, activation, last_linear=False):
    act = ad.ACTIVATIONS[activation]
    for i, (w, b) in enumerate(stack):
        x = ad.add(ad.matmul(x, w), b)
        if not (last_linear and i == len(stack) - 1):
            x = act(x)
    return x


def train_autoencoder(g, method="sdne", config=None):
    """Train row-autoencoder embeddings; returns (table, params).

    The table's metadata records the loss history and the similarity
    kind whose rows were encoded.
    """
    config = config or AutoencoderConfig()
    if method == "sdne":
        spec = config.similarity or SimilaritySpec(kind="adjacency")
        le_weight = config.le_weight if config.le_weight > 0 else 1e-2
    elif method == "dngr":
        spec = config.similarity or SimilaritySpec(
            kind="rw_pmi", walk_length=5, walks_per_node=10, window=4,
            seed=config.seed)
        le_weight = config.le_weight
    elif method == "custom":
        if config.similarity is None:
            raise ContractError("custom autoencoder needs config.similarity")
        spec = config.similarity
        le_weight = config.le_weight
    else:
        raise ContractError(f"unknown autoencoder method {method!r}")

    s = build_similarity(g, spec)
    n = g.node_count
    if config.dim >= n:
        raise ContractError(f"dim {config.dim} must be < node count {n}")
    params = AutoencoderParams(n, config)
    rows = ad.constant(s)
    pairs = np.argwhere(s > 0)
    pair_w = s[pairs[:, 0], pairs[:, 1]]
    opt = ad.Adam(params.tensors(), lr=config.lr)
    history = []

    def total_loss():
        z = _run_stack(rows, params.enc, config.activation)
        recon = _run_stack(z, params.dec, config.activation, last_linear=True)
        diff = ad.sub(recon, s)
        loss = ad.reduce_sum(ad.mul(diff, diff))
        if le_weight > 0 and len(pairs):
            loss = ad.add(loss, ad.scale(
                weighted_distance_loss(z, pairs, pair_w), le_weight))
        return loss

    for epoch in range(config.epochs):
        opt.zero_grad()
        with ad.Tape():
            loss = total_loss()
            history.append(loss.item())
            ad.backward(loss)
        opt.step(f"autoencoder {method}, epoch {epoch}")
    with ad.Tape():
        history.append(total_loss().item())

    z = params.encode(s)
    meta = {"loss_history": history, "similarity_kind": spec.kind,
            "le_weight": le_weight, "seed": config.seed}
    table = EmbeddingTable(z, list(g.node_ids), f"autoenc_{method}", meta)
    return table, params
