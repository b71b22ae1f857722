"""Stable content hashing for cache keys.

Every digest here is derived from a canonical JSON rendering (sorted
keys, floats via ``repr``) fed through SHA-256 — never Python's builtin
``hash``, whose string seed changes per process. That makes keys stable
across interpreter runs and across the worker processes of the parallel
executor, which is what lets the on-disk cache be shared between
campaigns and machines.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from itertools import chain

import numpy as np

__all__ = ["canonicalize", "stable_hash", "array_digest",
           "model_fingerprint", "netlist_fingerprint", "forget_netlist",
           "EvalKey"]


def canonicalize(obj):
    """Reduce ``obj`` to JSON-able primitives with a stable rendering.

    Floats are rendered via ``repr`` (shortest round-trip form), numpy
    scalars/arrays via their Python equivalents, dicts with sorted keys.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return canonicalize(obj.item())
    if isinstance(obj, np.ndarray):
        return [canonicalize(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(
            obj.items(), key=lambda kv: str(kv[0]))}
    if hasattr(obj, "key"):
        return canonicalize(obj.key())
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for "
                    "hashing; give it a .key() method or pass primitives")


def stable_hash(obj, length: int = 16) -> str:
    """Hex digest of the canonical JSON rendering of ``obj``."""
    payload = json.dumps(canonicalize(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:length]


def array_digest(arrays, length: int = 16) -> str:
    """Digest of raw array bytes (shape-aware, order-sensitive)."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:length]


def model_fingerprint(model, length: int = 16) -> str:
    """Version token for a trained model: architecture + exact weights.

    Any retraining (different data, seed, epochs) changes the weights and
    hence the fingerprint, so stale cached libraries are never reused for
    a newer model.
    """
    state = model.state_dict()
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(array_digest([state[name]], length=64).encode())
    return h.hexdigest()[:length]


#: netlist -> full hex digest. Weakly keyed: a long-lived process pins no
#: netlist it hashed, and a recycled ``id()`` never aliases another one.
_NETLIST_DIGESTS = weakref.WeakKeyDictionary()


def netlist_fingerprint(netlist, length: int = 16) -> str:
    """Structural digest of a gate netlist (instances, pins, IO).

    Memoized per netlist object in ``_NETLIST_DIGESTS``, the only
    fingerprint memo: a design pays for its digest once per process.
    :meth:`~repro.eda.netlist.GateNetlist.add`, ``add_input`` and
    ``add_output`` drop the entry (:func:`forget_netlist`), so a
    netlist still being built never reads a stale digest. Other
    in-place edits are not tracked; edit a ``.copy()`` instead.
    """
    digest = _NETLIST_DIGESTS.get(netlist)
    if digest is None:
        digest = _NETLIST_DIGESTS[netlist] = _netlist_digest(netlist)
    return digest[:length]


def forget_netlist(netlist) -> None:
    """Drop ``netlist``'s memoized fingerprint (it is being edited)."""
    _NETLIST_DIGESTS.pop(netlist, None)


def _netlist_digest(netlist) -> str:
    """``stable_hash`` of the netlist's structural document, full length.

    When every leaf is a ``str`` the document goes straight to the C
    JSON encoder: ``canonicalize`` would return it unchanged (tuples
    encode as arrays, the top-level keys are sorted either way), so the
    bytes are the same without its recursive walk. Any other leaf (a
    float renders differently) takes ``stable_hash`` itself.
    """
    instances = sorted((inst.name, inst.cell, sorted(inst.pins.items()))
                       for inst in netlist.instances.values())
    doc = {"name": netlist.name, "clock": netlist.clock,
           "inputs": list(netlist.primary_inputs),
           "outputs": list(netlist.primary_outputs),
           "instances": instances}
    try:                          # str.join rejects any non-str leaf
        "".join([netlist.name, netlist.clock, *doc["inputs"],
                 *doc["outputs"]])
        for name, cell, pins in instances:
            "".join((name, cell, *chain.from_iterable(pins)))
    except TypeError:
        return stable_hash(doc, length=64)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class EvalKey:
    """Content-addressed key for one evaluation (or one library build).

    ``kind`` separates namespaces ("lib" for corner → library,
    "eval" for corner × design × weights → full record); the remaining
    parts are stable tokens of everything that influences the output.
    """

    __slots__ = ("kind", "parts", "digest")

    def __init__(self, kind: str, **parts):
        self.kind = kind
        self.parts = parts
        self.digest = stable_hash({"kind": kind, **parts}, length=32)

    def __hash__(self):
        return hash(self.digest)

    def __eq__(self, other):
        return isinstance(other, EvalKey) and self.digest == other.digest

    def __repr__(self):
        return f"EvalKey({self.kind}, {self.digest[:12]}…)"
