"""Shared utilities: deterministic RNG streams, table rendering,
atomic JSON writes."""

from .rng import make_rng, spawn, derive
from .tables import format_table, print_table
from .io import atomic_write_json

__all__ = ["make_rng", "spawn", "derive", "format_table", "print_table",
           "atomic_write_json"]
