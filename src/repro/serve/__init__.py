"""repro.serve: the STCO pipeline as a long-lived, multi-tenant service.

The declarative API (PR 3) made a run a serializable document; this
package makes documents *requests*. One shared
:class:`~repro.api.workspace.Workspace` + evaluation engine serves many
clients, with a persistent job queue, content-keyed request coalescing
(identical submissions share one execution), per-round progress events,
cancellation, and stdlib HTTP/CLI front ends:

* :mod:`~repro.serve.jobs` — crash-safe :class:`JobStore`
  (JSON-per-job records, priority + FIFO scheduling, interrupted jobs
  resubmitted on restart);
* :mod:`~repro.serve.coalesce` — :func:`request_key` /
  :class:`Coalescer` (leader / follower / duplicate admission);
* :mod:`~repro.serve.pool` — :class:`ServeService`, the worker pool
  draining the queue against the shared workspace;
* :mod:`~repro.serve.http` — :class:`StcoServer`, a dependency-free
  ``ThreadingHTTPServer`` JSON API (one route table and handler, also
  the cluster router's front end);
* :mod:`~repro.serve.client` — :class:`ServeClient`, the counterpart
  (also behind ``repro submit``): one kept-alive ``http.client``
  transport with one retry policy.

Quickstart::

    from repro.serve import ServeService, StcoServer, ServeClient

    service = ServeService("path/to/workspace")
    with StcoServer(service, port=8000) as server:
        client = ServeClient(server.url)
        report = client.run("examples/quickstart.json")
"""

from .client import ServeClient, ServeClientError
from .coalesce import Coalescer, request_key
from .http import StcoServer
from .jobs import Job, JobState, JobStore, UnknownJobError
from .pool import JobCancelled, ServeService, ServiceClosed

__all__ = [
    "Job", "JobState", "JobStore", "UnknownJobError",
    "Coalescer", "request_key",
    "ServeService", "JobCancelled", "ServiceClosed",
    "StcoServer",
    "ServeClient", "ServeClientError",
]
