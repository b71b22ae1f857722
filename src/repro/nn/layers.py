"""Neural-network modules: Linear, MLP, LayerNorm, Sequential, Dropout.

The :class:`Module` base class provides parameter discovery by attribute
scanning (including lists of modules), a ``state_dict`` for serialization,
and train/eval mode switching — a deliberately small subset of the
``torch.nn.Module`` contract.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Parameter, Tensor

__all__ = ["Module", "Linear", "MLP", "LayerNorm", "Sequential",
           "Activation", "Dropout", "ModuleList"]


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        self.training = True

    # -- parameter discovery -------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        """Yield ``(name, Parameter)`` pairs for this module and children."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def parameters(self):
        """Return the list of trainable parameters."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.size for p in self.parameters()))

    def modules(self):
        """Yield this module and all descendant modules."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- mode switching -------------------------------------------------------
    def train(self, mode: bool = True):
        for module in self.modules():
            module.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    # -- serialization --------------------------------------------------------
    def state_dict(self) -> dict:
        """Return a name → array snapshot of all parameters."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}")
            param.data = value.copy()

    # -- call protocol ----------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape=None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Affine map ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensionality.
    bias:
        Include an additive bias term.
    rng:
        Generator used for Glorot initialisation (defaults to a fixed seed so
        module construction is reproducible).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Activation(Module):
    """Wrap a named activation function as a module."""

    def __init__(self, name):
        super().__init__()
        self.fn = F.get_activation(name)
        self._name = name if isinstance(name, str) else getattr(name, "__name__", "fn")

    def forward(self, x: Tensor) -> Tensor:
        return self.fn(x)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class LayerNorm(Module):
    """Layer normalisation over the last dimension.

    The paper applies layer normalisation in both surrogate models to aid
    convergence; this matches that choice.
    """

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_shape))
        self.beta = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Sequential(Module):
    """Chain modules, feeding each output to the next."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.items = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.items:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


class MLP(Module):
    """Multilayer perceptron with configurable hidden activation.

    ``dims = [in, h1, ..., out]`` produces ``len(dims) - 1`` linear layers
    with the activation between them (none after the last unless
    ``final_activation`` is given).
    """

    def __init__(self, dims, activation="relu", final_activation=None,
                 layer_norm: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least [in, out] dims")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dims = list(dims)
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng=rng))
            is_last = i == len(dims) - 2
            if not is_last:
                if layer_norm:
                    layers.append(LayerNorm(d_out))
                layers.append(Activation(activation))
            elif final_activation is not None:
                layers.append(Activation(final_activation))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class ModuleList(Module):
    """A list container whose items participate in parameter discovery."""

    def __init__(self, modules=()):
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module):
        self.items.append(module)
        return self

    def __getitem__(self, i):
        return self.items[i]

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")
