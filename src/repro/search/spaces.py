"""Generalised design spaces for technology exploration.

The seed framework explored one fixed 45-point grid over
(vdd_scale, vth_shift, cox_scale). This module generalises that to
arbitrary knob axes, each either **discrete** (an explicit value tuple)
or **continuous** (a box with optional snapping resolution), combined
into a :class:`SearchSpace`:

* a *point* is a tuple of per-axis floats (one entry per axis, in axis
  order) — the representation optimizers mutate;
* :meth:`SearchSpace.corner` maps a point to the
  :class:`~repro.charlib.corners.Corner` the evaluation engine consumes
  (the default factory covers the paper's three knobs; pass
  ``corner_factory`` for other parameterisations);
* continuous values are always snapped/clipped before leaving the
  space, so float drift cannot defeat the engine's content-addressed
  caches;
* all-discrete spaces additionally expose the O(1) index API of
  :class:`repro.stco.space.DesignSpace` (``point`` / ``index_of`` /
  ``neighbors`` / ``random_index``), so index-based optimizers
  (Q-learning, grid sweep) run on either class unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..charlib.corners import Corner

__all__ = ["Axis", "SearchSpace", "grid_space", "box_space", "mixed_space",
           "from_design_space", "as_search_space", "default_grid",
           "grid_neighbor_table"]


def grid_neighbor_table(lengths) -> list:
    """Per-index neighbor lists for a row-major grid.

    ``lengths`` are the per-axis value counts (first axis varies
    slowest). Entry ``i`` lists the flat indices reachable by one step
    along any axis, enumerated axis-major with the −1 step before the
    +1 step — the order the Q-learning RNG stream depends on. Shared by
    :class:`SearchSpace` and :class:`repro.stco.space.DesignSpace`.
    """
    strides = []
    acc = 1
    for n in reversed(lengths):
        strides.append(acc)
        acc *= n
    strides = tuple(reversed(strides))
    table = []
    for i in range(acc):
        out = []
        for n, stride in zip(lengths, strides):
            k = (i // stride) % n
            for dk in (-1, 1):
                if 0 <= k + dk < n:
                    out.append(i + dk * stride)
        table.append(out)
    return table

#: Corner fields, in the order the default factory consumes them.
DEFAULT_KNOBS = ("vdd_scale", "vth_shift", "cox_scale")
_KNOB_DEFAULTS = {"vdd_scale": 1.0, "vth_shift": 0.0, "cox_scale": 1.0}


@dataclass(frozen=True)
class Axis:
    """One knob: discrete (``values``) or continuous (``lo``/``hi``).

    ``step`` (continuous only) snaps sampled/perturbed values to a
    resolution grid anchored at ``lo``; without it, values are only
    rounded to the :meth:`Corner.key` precision (1e-6).
    """

    name: str
    values: tuple = ()
    lo: float = 0.0
    hi: float = 0.0
    step: float | None = None

    @staticmethod
    def discrete(name: str, values) -> "Axis":
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError(f"axis {name!r} needs at least one value")
        return Axis(name=name, values=values,
                    lo=min(values), hi=max(values))

    @staticmethod
    def continuous(name: str, lo: float, hi: float,
                   step: float | None = None) -> "Axis":
        if not hi > lo:
            raise ValueError(f"axis {name!r} needs hi > lo")
        return Axis(name=name, lo=float(lo), hi=float(hi), step=step)

    @property
    def is_discrete(self) -> bool:
        return bool(self.values)

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def sample(self, rng: np.random.Generator) -> float:
        if self.is_discrete:
            return self.values[int(rng.integers(0, len(self.values)))]
        return self.snap(float(rng.uniform(self.lo, self.hi)))

    def snap(self, value: float) -> float:
        """Clip into range; discrete → nearest value, stepped → grid."""
        if self.is_discrete:
            return min(self.values, key=lambda v: abs(v - value))
        value = min(max(value, self.lo), self.hi)
        if self.step is not None:
            value = self.lo + round((value - self.lo) / self.step) * self.step
            value = min(value, self.hi)
        # Corner.key() rounds to 1e-6; pre-round so a snapped value and
        # its cache key never disagree.
        return round(value, 6)

    def perturb(self, value: float, rng: np.random.Generator,
                scale: float = 0.25) -> float:
        """One local move: ±1 grid step (discrete) or a Gaussian kick."""
        if self.is_discrete:
            if len(self.values) == 1:
                return value
            k = self.values.index(self.snap(value))
            k = min(max(k + (1 if rng.random() < 0.5 else -1), 0),
                    len(self.values) - 1)
            return self.values[k]
        return self.snap(value + float(rng.normal(0.0, scale * self.span)))


class SearchSpace:
    """A product of axes, with snapping and (when finite) O(1) indexing."""

    def __init__(self, axes, corner_factory=None):
        self.axes = tuple(axes)
        if not self.axes:
            raise ValueError("a SearchSpace needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        self.names = tuple(names)
        self.corner_factory = (corner_factory if corner_factory is not None
                               else self._default_corner)
        self.is_grid = all(a.is_discrete for a in self.axes)
        self._points = None
        self._index = None
        self._neighbors = None
        if self.is_grid:
            self._build_grid()

    # -- construction helpers ----------------------------------------------
    def _default_corner(self, params: dict) -> Corner:
        unknown = set(params) - set(DEFAULT_KNOBS)
        if unknown:
            raise ValueError(
                f"axes {sorted(unknown)} have no Corner field; pass a "
                f"corner_factory mapping your knobs to a Corner")
        merged = dict(_KNOB_DEFAULTS, **params)
        return Corner(merged["vdd_scale"], merged["vth_shift"],
                      merged["cox_scale"])

    def _build_grid(self):
        values = [a.values for a in self.axes]
        self._points = [tuple(p) for p in product(*values)]
        self._index = {self.corner(p).key(): i
                       for i, p in enumerate(self._points)}

    # -- point-level API (all spaces) --------------------------------------
    def sample_point(self, rng: np.random.Generator) -> tuple:
        return tuple(a.sample(rng) for a in self.axes)

    def snap_point(self, point) -> tuple:
        return tuple(a.snap(v) for a, v in zip(self.axes, point))

    def perturb_point(self, point, rng: np.random.Generator,
                      scale: float = 0.25) -> tuple:
        """Perturb at least one axis (each axis moves with p=1/2)."""
        moved = [bool(rng.integers(0, 2)) for _ in self.axes]
        if not any(moved):
            moved[int(rng.integers(0, len(self.axes)))] = True
        return tuple(a.perturb(v, rng, scale) if m else v
                     for a, v, m in zip(self.axes, point, moved))

    def sample_unique(self, rng: np.random.Generator, count: int,
                      exclude=frozenset(), propose=None,
                      attempts_factor: int = 8) -> list:
        """Up to ``count`` distinct points whose corner keys avoid
        ``exclude`` (and each other).

        Rejection sampling with a bounded attempt budget, so tiny or
        nearly-exhausted grids return fewer points instead of looping
        forever. ``propose`` (default :meth:`sample_point`) generates
        raw candidates — pass a closure to mix in elite perturbations
        or any other proposal distribution; it is called once per
        attempt, keeping seeded RNG streams reproducible.
        """
        if propose is None:
            def propose():
                return self.sample_point(rng)
        out, keys = [], set()
        attempts = 0
        while len(out) < count and attempts < count * attempts_factor:
            attempts += 1
            point = propose()
            key = self.corner(point).key()
            if key in keys or key in exclude:
                continue
            keys.add(key)
            out.append(point)
        return out

    def params(self, point) -> dict:
        return dict(zip(self.names, point))

    def corner(self, point) -> Corner:
        return self.corner_factory(self.params(point))

    # -- DesignSpace-compatible index API (grids only) ----------------------
    def _require_grid(self, what: str):
        if not self.is_grid:
            raise TypeError(f"{what} requires an all-discrete (grid) "
                            f"space; this one has continuous axes")

    @property
    def size(self) -> int:
        self._require_grid("size")
        return len(self._points)

    def grid_point(self, index: int) -> tuple:
        self._require_grid("grid_point")
        return self._points[index]

    def point(self, index: int) -> Corner:
        self._require_grid("point")
        return self.corner(self._points[index])

    def points(self) -> list:
        self._require_grid("points")
        return [self.corner(p) for p in self._points]

    def index_of(self, corner: Corner) -> int:
        self._require_grid("index_of")
        try:
            return self._index[corner.key()]
        except KeyError:
            raise ValueError(f"{corner} is not a point of this space") \
                from None

    def neighbors(self, index: int) -> list:
        """Indices one step away along any axis (table built on first
        use: only Q-learning asks)."""
        self._require_grid("neighbors")
        if self._neighbors is None:
            self._neighbors = grid_neighbor_table(
                [len(a.values) for a in self.axes])
        return list(self._neighbors[index])

    def random_index(self, rng: np.random.Generator) -> int:
        self._require_grid("random_index")
        return int(rng.integers(0, len(self._points)))

    def __repr__(self):
        kinds = ", ".join(
            f"{a.name}={len(a.values)}v" if a.is_discrete
            else f"{a.name}=[{a.lo:g},{a.hi:g}]" for a in self.axes)
        return f"SearchSpace({kinds})"


# -- constructors -----------------------------------------------------------
def grid_space(corner_factory=None, **axes) -> SearchSpace:
    """All-discrete space: ``grid_space(vdd_scale=(0.9, 1.0, 1.1), ...)``."""
    return SearchSpace([Axis.discrete(n, v) for n, v in axes.items()],
                       corner_factory=corner_factory)


def box_space(corner_factory=None, step=None, **axes) -> SearchSpace:
    """All-continuous space: ``box_space(vdd_scale=(0.8, 1.2), ...)``.

    ``step`` (scalar or per-axis dict) sets the snapping resolution.
    """
    def step_of(name):
        if isinstance(step, dict):
            return step.get(name)
        return step
    return SearchSpace(
        [Axis.continuous(n, lo, hi, step=step_of(n))
         for n, (lo, hi) in axes.items()],
        corner_factory=corner_factory)


def mixed_space(corner_factory=None, **axes) -> SearchSpace:
    """Mixed space: 2-tuples are continuous ``(lo, hi)`` boxes, any other
    tuple/list is a discrete value set, and an :class:`Axis` passes
    through. Use explicit :class:`Axis` objects for a 2-value discrete
    axis or a stepped box."""
    built = []
    for name, spec in axes.items():
        if isinstance(spec, Axis):
            built.append(spec)
        elif len(spec) == 2:
            built.append(Axis.continuous(name, *spec))
        else:
            built.append(Axis.discrete(name, spec))
    return SearchSpace(built, corner_factory=corner_factory)


def from_design_space(space) -> SearchSpace:
    """The :class:`repro.stco.space.DesignSpace` grid as a SearchSpace."""
    return grid_space(vdd_scale=space.vdd_scales,
                      vth_shift=space.vth_shifts,
                      cox_scale=space.cox_scales)


def as_search_space(space) -> SearchSpace:
    """Coerce a DesignSpace (or pass through a SearchSpace)."""
    if isinstance(space, SearchSpace):
        return space
    return from_design_space(space)


def default_grid() -> SearchSpace:
    """The paper's 5 × 3 × 3 = 45-point grid (see ``default_space``)."""
    from ..stco.space import default_space
    return from_design_space(default_space())
