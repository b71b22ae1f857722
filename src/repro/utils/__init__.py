"""Shared utilities: deterministic RNG streams, timing, table
rendering, atomic JSON writes."""

from .rng import make_rng, spawn, derive
from .timing import timed, TimingRecord
from .tables import format_table, print_table
from .io import atomic_write_json

__all__ = ["make_rng", "spawn", "derive", "timed",
           "TimingRecord", "format_table", "print_table",
           "atomic_write_json"]
