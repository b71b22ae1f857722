"""Graph neural network layers: GCN and edge-feature GAT (RelGAT).

``RelGATConv`` implements the paper's RelGAT building block: graph attention
(Velickovic et al.) extended with an edge-feature term so the FEM-inspired
spatial relationship embedding of Fig. 2 participates in both the attention
logits and the messages. ``GCNConv`` is the standard Kipf–Welling layer used
by the cell-characterization model (Sec. II-C).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .graph import add_self_loops
from .layers import Linear, Module
from .tensor import Tensor

__all__ = ["GCNConv", "RelGATConv", "gcn_norm", "global_mean_pool",
           "global_sum_pool", "global_max_pool", "max_pool_mask"]


class GCNConv(Module):
    """Graph convolution ``X' = D^-1/2 (A + I) D^-1/2 X W + b``.

    Edges are treated as directed as given; callers wanting symmetric
    aggregation should pass an undirected edge list (both directions).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.lin = Linear(in_features, out_features, bias=bias, rng=rng)

    def forward(self, x: Tensor, edge_index: np.ndarray,
                num_nodes: int | None = None) -> Tensor:
        n = num_nodes if num_nodes is not None else x.shape[0]
        src, dst, norm = gcn_norm(edge_index, n)
        h = self.lin(x)
        messages = h.gather_rows(src) * Tensor(norm)
        return F.scatter_sum(messages, dst, n)


def gcn_norm(edge_index: np.ndarray, num_nodes: int):
    """``(src, dst, norm)`` of the self-looped edges, ``norm`` the
    ``(E, 1)`` symmetric ``D^-1/2 (A + I) D^-1/2`` edge weights.

    Depends only on graph structure, so one batch can share it across
    every :class:`GCNConv` layer.
    """
    ei, _ = add_self_loops(edge_index, num_nodes)
    src, dst = ei[0], ei[1]
    deg = np.bincount(dst, minlength=num_nodes).astype(np.float64)
    deg_src = np.bincount(src, minlength=num_nodes).astype(np.float64)
    norm = 1.0 / np.sqrt(np.maximum(deg_src[src], 1.0) *
                         np.maximum(deg[dst], 1.0))
    return src, dst, norm[:, None]


class RelGATConv(Module):
    """Graph attention layer with relative-position edge features.

    For edge ``(s -> t)`` with transformed features ``h_s, h_t`` and edge
    embedding ``w_e``::

        logit_e = LeakyReLU(a_src . h_s + a_dst . h_t + a_edge . w_e)
        alpha_e = softmax over incoming edges of t
        out_t   = sum_e alpha_e * (h_s + w_e)

    Multi-head outputs are concatenated (``concat=True``) or averaged.
    Self loops are added so every node attends to itself (with a zero edge
    embedding), matching common GAT practice.

    Parameters
    ----------
    in_features, out_features:
        Node feature sizes (``out_features`` is per head).
    edge_features:
        Dimensionality of raw edge attributes (0 disables the edge term).
    heads:
        Number of attention heads.
    concat:
        Concatenate head outputs (output size ``heads * out_features``)
        instead of averaging them.
    negative_slope:
        LeakyReLU slope for attention logits.
    residual:
        Add a (projected) skip connection from the layer input.
    """

    def __init__(self, in_features: int, out_features: int,
                 edge_features: int = 0, heads: int = 1, concat: bool = True,
                 negative_slope: float = 0.2, residual: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.edge_features = edge_features
        self.heads = heads
        self.concat = concat
        self.negative_slope = negative_slope
        self.lin = Linear(in_features, heads * out_features, bias=False, rng=rng)
        if edge_features > 0:
            self.lin_edge = Linear(edge_features, heads * out_features,
                                   bias=False, rng=rng)
        else:
            self.lin_edge = None
        from .tensor import Parameter
        scale = np.sqrt(2.0 / (out_features + 1))
        self.att_src = Parameter(rng.uniform(-scale, scale,
                                             size=(heads, out_features)))
        self.att_dst = Parameter(rng.uniform(-scale, scale,
                                             size=(heads, out_features)))
        if edge_features > 0:
            self.att_edge = Parameter(rng.uniform(-scale, scale,
                                                  size=(heads, out_features)))
        else:
            self.att_edge = None
        out_dim = heads * out_features if concat else out_features
        if residual and in_features != out_dim:
            self.lin_res = Linear(in_features, out_dim, bias=False, rng=rng)
        else:
            self.lin_res = None
        self.residual = residual
        from .tensor import Parameter as _P
        self.bias = _P(np.zeros(out_dim))

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_attr: np.ndarray | Tensor | None = None,
                num_nodes: int | None = None) -> Tensor:
        n = num_nodes if num_nodes is not None else x.shape[0]
        h_heads, ei = self._transform(x, edge_index, edge_attr, n)
        return self._finish(x, h_heads, ei, n)

    # -- internals -----------------------------------------------------------
    def _transform(self, x, edge_index, edge_attr, n):
        H, Fo = self.heads, self.out_features
        if self.edge_features > 0:
            if edge_attr is None:
                raise ValueError("layer was built with edge features; "
                                 "edge_attr is required")
            ea = edge_attr.data if isinstance(edge_attr, Tensor) else \
                np.asarray(edge_attr, dtype=np.float64)
            ei, ea = add_self_loops(edge_index, n, ea, fill_value=0.0)
        else:
            ei, ea = add_self_loops(edge_index, n)
        src, dst = ei[0], ei[1]
        h = self.lin(x).reshape(-1, H, Fo)                     # (N, H, Fo)
        # Per-node attention contributions, (N, H).
        alpha_src = (h * self.att_src).sum(axis=-1)
        alpha_dst = (h * self.att_dst).sum(axis=-1)
        logits = alpha_src.gather_rows(src) + alpha_dst.gather_rows(dst)
        if self.lin_edge is not None:
            w_e = self.lin_edge(Tensor(ea)).reshape(-1, H, Fo)  # (E, H, Fo)
            logits = logits + (w_e * self.att_edge).sum(axis=-1)
        else:
            w_e = None
        logits = logits.leaky_relu(self.negative_slope)         # (E, H)
        alpha = F.segment_softmax(logits, dst, n)               # (E, H)
        messages = h.gather_rows(src)                           # (E, H, Fo)
        if w_e is not None:
            messages = messages + w_e
        weighted = messages * alpha.reshape(-1, H, 1)
        out = F.scatter_sum(weighted, dst, n)                   # (N, H, Fo)
        return out, ei

    def _finish(self, x, out, ei, n):
        H, Fo = self.heads, self.out_features
        if self.concat:
            out = out.reshape(n, H * Fo)
        else:
            out = out.mean(axis=1)
        if self.residual:
            res = self.lin_res(x) if self.lin_res is not None else x
            out = out + res
        return out + self.bias


def global_mean_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Average node features per graph → ``(num_graphs, F)``."""
    return F.scatter_mean(x, batch, num_graphs)


def global_sum_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Sum node features per graph → ``(num_graphs, F)``."""
    return F.scatter_sum(x, batch, num_graphs)


def global_max_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Per-graph feature-wise max pooling (gradient flows to the argmax)."""
    masked = x * Tensor(max_pool_mask(x.data, batch, num_graphs))
    return F.scatter_sum(masked, batch, num_graphs)


def max_pool_mask(data: np.ndarray, batch: np.ndarray,
                  num_graphs: int) -> np.ndarray:
    """Weights that select each graph's feature-wise max node value;
    summing ``data * mask`` per graph is :func:`global_max_pool`."""
    out = np.full((num_graphs,) + data.shape[1:], -np.inf)
    np.maximum.at(out, batch, data)
    # Build a selection mask: 1 where the node value equals its graph max.
    mask = (data == out[batch]).astype(np.float64)
    # Normalise ties so the gradient is split.
    denom = np.zeros_like(out)
    np.add.at(denom, batch, mask)
    mask /= np.maximum(denom[batch], 1.0)
    return mask
