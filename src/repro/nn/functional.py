"""Functional operations for :mod:`repro.nn`.

Free functions over :class:`~repro.nn.tensor.Tensor`: activations, softmax,
concatenation, and the segment (scatter/gather) primitives that message
passing layers are assembled from.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu", "leaky_relu", "elu", "tanh", "sigmoid", "gelu", "softplus",
    "identity", "softmax", "log_softmax", "concat", "stack", "dropout",
    "gather_rows", "scatter_sum", "segment_bins", "segment_sum_np",
    "scatter_mean", "segment_max_np",
    "segment_softmax", "get_activation",
]


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    return x.leaky_relu(negative_slope)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    return x.elu(alpha)


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    # softplus(x) = max(x, 0) + log1p(exp(-|x|)); compose from stable pieces.
    return x.relu() + ((-x.abs()).exp() + 1.0).log()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    inner = (x + x * x * x * 0.044715) * 0.7978845608028654
    return x * (inner.tanh() + 1.0) * 0.5


def identity(x: Tensor) -> Tensor:
    return x


_ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "elu": elu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "gelu": gelu,
    "softplus": softplus,
    "identity": identity,
    "linear": identity,
    None: identity,
}


def get_activation(name):
    """Look up an activation function by name (or pass a callable through)."""
    if callable(name):
        return name
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-shift stabilisation."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Row gather along axis 0 (``x[index]`` with autograd)."""
    return as_tensor(x).gather_rows(index)


def scatter_sum(src: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``src`` into ``num_segments`` buckets given by ``index``.

    The inverse of :func:`gather_rows`: ``out[s] = sum_{i: index[i]==s} src[i]``.
    This is the aggregation step of message passing.
    """
    src = as_tensor(src)
    index = np.asarray(index, dtype=np.intp)
    width = math.prod(src.shape[1:])
    out_data = segment_sum_np(src.data, segment_bins(index, width),
                              num_segments)

    def backward(grad):
        if src.requires_grad:
            src._accumulate(grad[index])

    return Tensor._make(out_data, (src,), backward)


def segment_bins(index: np.ndarray, width: int) -> np.ndarray:
    """Flat ``(segment, feature)`` bin of every element of a row-major
    ``(len(index), width)`` array, for :func:`segment_sum_np`."""
    return (np.asarray(index, dtype=np.intp)[:, None] * width
            + np.arange(width)).ravel()


def segment_sum_np(values: np.ndarray, bins: np.ndarray,
                   num_segments: int) -> np.ndarray:
    """Plain-array :func:`scatter_sum` over precomputed
    :func:`segment_bins`.

    One bincount over (segment, feature) bins. Each bin adds its rows in
    row order from 0.0, as ``np.add.at`` does, so the sums are the same
    bits at a fraction of the cost.
    """
    out_shape = (num_segments,) + values.shape[1:]
    return np.bincount(bins, weights=values.reshape(-1),
                       minlength=math.prod(out_shape)).reshape(out_shape)


def scatter_mean(src: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate rows of ``src`` per segment (empty segments give 0)."""
    index = np.asarray(index, dtype=np.intp)
    counts = np.bincount(index, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    summed = scatter_sum(src, index, num_segments)
    shape = (num_segments,) + (1,) * (len(summed.shape) - 1)
    return summed * Tensor(1.0 / counts.reshape(shape))


def segment_max_np(values: np.ndarray, index: np.ndarray,
                   num_segments: int) -> np.ndarray:
    """Per-segment max as a plain numpy array (no gradient; used for
    softmax stabilisation)."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf)
    np.maximum.at(out, index, values)
    return out


def segment_softmax(logits: Tensor, index: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax over variable-size segments (attention normalisation).

    ``out[i] = exp(logits[i]) / sum_{j: index[j]==index[i]} exp(logits[j])``
    with the usual per-segment max shift for stability. The max shift is
    detached, which is exact for softmax gradients.
    """
    logits = as_tensor(logits)
    index = np.asarray(index, dtype=np.intp)
    seg_max = segment_max_np(logits.data, index, num_segments)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    shifted = logits - Tensor(seg_max[index])
    exps = shifted.exp()
    denom = scatter_sum(exps, index, num_segments)
    denom_safe = denom + 1e-16
    return exps / denom_safe.gather_rows(index)
