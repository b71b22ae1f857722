"""repro.cluster — N serve shards as one logical service.

The serving stack scales out in three content-addressed moves:

* :mod:`~repro.cluster.ring` — a deterministic consistent-hash ring
  maps every submission's :func:`~repro.cluster.ring.route_key` to the
  shard that owns it, so per-shard coalescing stays globally correct.
* :mod:`~repro.cluster.router` — a router tier speaking the *same* API
  as a single shard: submissions route by key, reads fan out, health
  and SLO aggregate worst-of-shards, metrics merge under a ``shard``
  label. :class:`RouterServer` is the one HTTP front end
  (:mod:`repro.serve.http`, one handler and route table for both
  roles) serving a :class:`Router`.
* :mod:`~repro.cluster.peers` — shards borrow engine cache entries
  from ring neighbors over ``GET /v1/cache/{digest}``: characterize
  once anywhere, hit everywhere, no shared filesystem.

Milestone 1 (this package) is single-machine, multi-directory shards —
``repro cluster serve --shards N`` — with multi-machine membership
(gossip, migration) tracked on the roadmap.
"""

from .client import LocalCluster
from .peers import PeerBorrower, PeerCacheClient
from .ring import HashRing, route_key
from .router import Router, RouterServer, ShardUnavailable

__all__ = ["HashRing", "route_key", "PeerBorrower", "PeerCacheClient",
           "Router", "RouterServer", "ShardUnavailable",
           "LocalCluster"]
