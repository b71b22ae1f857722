"""GNN cell-characterization model: 3-layer GCN + 2-layer MLP per metric.

"we adopted a 3-layer graph convolutional network (GCN) to establish our
framework. To enhance the accuracy of predictions, an additional 2-layer
MLP was added after the GCN layers for each metric." — one shared GCN
trunk over the Table III cell graphs, with one small MLP head per metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..encoding.cell_encoding import NUM_CELL_FEATURES
from ..nn import (Adam, GCNConv, Linear, MLP, Module, ModuleList, Tensor,
                  batch_graphs, clip_grad_norm, mape, mse_loss)
from ..nn.functional import concat, segment_bins, segment_sum_np
from ..nn.gnn import (gcn_norm, global_max_pool, global_mean_pool,
                      max_pool_mask)
from .dataset import CharDataset, METRICS

__all__ = ["CellCharGCNConfig", "CellCharGCN", "CharTrainConfig",
           "train_char_model", "evaluate_char_model"]


@dataclass
class CellCharGCNConfig:
    """Architecture hyperparameters."""

    in_features: int = NUM_CELL_FEATURES
    hidden: int = 48
    num_layers: int = 3
    head_hidden: int = 48
    metrics: tuple = METRICS
    seed: int = 0


class CellCharGCN(Module):
    """Shared GCN trunk + per-metric 2-layer MLP heads."""

    def __init__(self, config: CellCharGCNConfig | None = None):
        super().__init__()
        self.config = config if config is not None else CellCharGCNConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.embed = Linear(cfg.in_features, cfg.hidden, rng=rng)
        self.convs = ModuleList([
            GCNConv(cfg.hidden, cfg.hidden, rng=rng)
            for _ in range(cfg.num_layers)])
        self.heads = {}
        for metric in cfg.metrics:
            self.heads[metric] = MLP([2 * cfg.hidden, cfg.head_hidden, 1],
                                     activation="relu", rng=rng)

    def trunk(self, batch) -> Tensor:
        h = self.embed(Tensor(batch.x)).relu()
        for conv in self.convs:
            h = conv(h, batch.edge_index).relu()
        mean = global_mean_pool(h, batch.batch, batch.num_graphs)
        mx = global_max_pool(h, batch.batch, batch.num_graphs)
        return concat([mean, mx], axis=1)

    def forward_metric(self, batch, metric: str) -> Tensor:
        """Normalised prediction for one metric, shape (B, 1)."""
        if metric not in self.heads:
            raise KeyError(f"no head for metric {metric!r}")
        return self.heads[metric](self.trunk(batch))

    # -- inference: plain arrays, off the autograd graph -------------------
    def embed_graphs(self, graphs) -> np.ndarray:
        """The metric-independent trunk over ``graphs``, shape
        ``(len(graphs), 2 * hidden)``.

        The operations of :meth:`trunk` in the same order on plain
        arrays, so the output is the same bits; it never builds a
        :class:`Tensor`, reads the grad mode or touches ``training``.
        """
        batch = batch_graphs(list(graphs))
        n, g, width = batch.num_nodes, batch.num_graphs, self.config.hidden
        # Self loops, normalisation and scatter bins depend only on graph
        # structure: once per batch, not once per layer.
        src, dst, norm = gcn_norm(batch.edge_index, n)
        edge_bins = segment_bins(dst, width)
        node_bins = segment_bins(batch.batch, width)
        h = _relu(_linear(self.embed, batch.x))
        for conv in self.convs:
            messages = _linear(conv.lin, h)[src] * norm
            h = _relu(segment_sum_np(messages, edge_bins, n))
        counts = np.bincount(batch.batch, minlength=g).astype(np.float64)
        counts = np.maximum(counts, 1.0)
        mean = (segment_sum_np(h, node_bins, g)
                * (1.0 / counts.reshape(g, 1)))
        mx = segment_sum_np(h * max_pool_mask(h, batch.batch, g),
                            node_bins, g)
        return np.concatenate([mean, mx], axis=1)

    def head(self, z: np.ndarray, metric: str) -> np.ndarray:
        """Normalised predictions of ``metric``'s MLP head on trunk
        output ``z`` (from :meth:`embed_graphs`), shape ``(B,)``."""
        if metric not in self.heads:
            raise KeyError(f"no head for metric {metric!r}")
        for layer in self.heads[metric].net:
            # A head is Linear, relu, Linear (see __init__).
            z = _linear(layer, z) if isinstance(layer, Linear) else _relu(z)
        return z[:, 0]

    def predict(self, graphs, metric: str) -> np.ndarray:
        """Normalised predictions of one metric for ``graphs``."""
        return self.head(self.embed_graphs(graphs), metric)


def _linear(layer: Linear, x: np.ndarray) -> np.ndarray:
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _relu(x: np.ndarray) -> np.ndarray:
    return x * (x > 0)


@dataclass
class CharTrainConfig:
    epochs: int = 40
    batch_size: int = 32
    lr: float = 3e-3
    grad_clip: float = 2.0
    seed: int = 0
    verbose: bool = False


def train_char_model(dataset: CharDataset,
                     model_config: CellCharGCNConfig | None = None,
                     train_config: CharTrainConfig | None = None
                     ) -> CellCharGCN:
    """Multi-task training: each epoch iterates all metrics' batches."""
    cfg = train_config if train_config is not None else CharTrainConfig()
    metrics = dataset.metrics_present()
    if model_config is None:
        model_config = CellCharGCNConfig(metrics=tuple(metrics))
    model = CellCharGCN(model_config)
    opt = Adam(model.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        total, count = 0.0, 0
        for metric in metrics:
            graphs = dataset.graphs[metric]["train"]
            idx = rng.permutation(len(graphs))
            for start in range(0, len(idx), cfg.batch_size):
                chunk = [graphs[i] for i in idx[start:start + cfg.batch_size]]
                batch = batch_graphs(chunk)
                opt.zero_grad()
                pred = model.forward_metric(batch, metric)
                loss = mse_loss(pred, batch.y)
                loss.backward()
                clip_grad_norm(opt.params, cfg.grad_clip)
                opt.step()
                total += loss.item() * len(chunk)
                count += len(chunk)
        if cfg.verbose and epoch % 10 == 0:
            print(f"epoch {epoch}: loss {total / max(count, 1):.4f}")
    return model


def evaluate_char_model(model: CellCharGCN, dataset: CharDataset,
                        split: str = "test") -> dict:
    """Per-metric MAPE (percent, physical domain) — a Table IV column."""
    out = {}
    for metric in dataset.metrics_present():
        graphs = dataset.graphs[metric].get(split, [])
        if not graphs:
            continue
        norm = dataset.normalizers[metric]
        preds = norm.denormalize(model.predict(graphs, metric))
        truth = np.array([g.meta["value"] for g in graphs])
        # Physical values span 1e-18..1e-6; exclude only targets that are
        # negligible relative to the metric's own scale.
        eps = max(float(np.abs(truth).max()) * 1e-6, 1e-30)
        out[metric] = mape(preds, truth, eps=eps)
    return out
