"""LocalCluster: boot router + N shard processes on one machine.

Milestone-1 topology (ROADMAP item 2's stated first step): every shard
is a separate ``repro serve`` *process* with its own workspace
directory under one root. Processes, not threads, because a shard
serializes engine executions on a process-wide lock (the GNN autograd
state is process-global) — so two in-process shards would fake the
parallelism this layer exists to create. Port assignment is ephemeral:
each shard binds port 0 and writes its URL to a ``--port-file``, the
cluster reads the files back, builds the :class:`Router`, pushes the
membership document to every shard (peer borrowing needs everyone's
URL, which only exists after every socket is bound), and finally
starts the router's own HTTP server.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from ..serve.client import ServeClient, ServeClientError
from .router import Router, RouterServer

__all__ = ["ShardProcess", "LocalCluster", "join_cluster"]


def _subprocess_env() -> dict:
    """Child env whose ``PYTHONPATH`` can import *this* repro tree —
    the cluster must work from a source checkout without installation."""
    import repro
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing
                                   if existing else "")
    return env


class ShardProcess:
    """One ``repro serve`` subprocess with its own workspace."""

    def __init__(self, name: str, workspace, host: str = "127.0.0.1",
                 workers: int = 2, log_path=None, shard_args=(),
                 env: dict | None = None):
        self.name = name
        self.workspace = Path(workspace)
        self.workspace.mkdir(parents=True, exist_ok=True)
        self.port_file = self.workspace / "shard.url"
        try:
            self.port_file.unlink()
        except OSError:
            pass
        self.log_path = Path(log_path) if log_path is not None \
            else self.workspace / "shard.log"
        self.url: str | None = None
        cmd = [sys.executable, "-m", "repro.api.cli", "serve",
               "--workspace", str(self.workspace),
               "--host", host, "--port", "0",
               "--port-file", str(self.port_file),
               "--shard", name, "--workers", str(workers),
               *shard_args]
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT,
            env=env if env is not None else _subprocess_env())

    def wait_ready(self, deadline: float) -> str:
        """Block until the shard published its URL and answers
        ``/healthz``; raises with the log tail on a dead child."""
        while self.url is None:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"shard {self.name!r} exited with "
                    f"rc={self.proc.returncode} before binding "
                    f"(log: {self.log_path})\n{self._log_tail()}")
            if self.port_file.exists():
                text = self.port_file.read_text(
                    encoding="utf-8").strip()
                if text:
                    self.url = text
                    break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"shard {self.name!r} never published its URL "
                    f"(log: {self.log_path})")
            time.sleep(0.05)
        with ServeClient(self.url, timeout_s=5.0, retries=0) as probe:
            while True:
                try:
                    probe.health()
                    return self.url
                except (ServeClientError, OSError):
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"shard {self.name!r} bound {self.url} but "
                            f"never became healthy "
                            f"(log: {self.log_path})") from None
                    time.sleep(0.1)

    def _log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8",
                                           errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self, timeout_s: float = 15.0) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)
        try:
            self._log.close()
        except OSError:
            pass


class LocalCluster:
    """Router + N single-machine shard processes under one root dir.

    Usable as a context manager; :attr:`url` is the router endpoint —
    hand it to :class:`~repro.serve.client.ServeClient` or
    ``repro submit --url`` exactly like a single shard's.
    """

    def __init__(self, root, shards: int = 2, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 2,
                 boot_timeout_s: float = 300.0, shard_args=(),
                 verbose: bool = False, autostart: bool = True):
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.server = None
        self.router = None
        self.shards: list[ShardProcess] = []
        try:
            env = _subprocess_env()
            for i in range(shards):
                name = f"shard-{i}"
                self.shards.append(ShardProcess(
                    name, self.root / name, host=host,
                    workers=workers, shard_args=shard_args, env=env))
            deadline = time.monotonic() + boot_timeout_s
            members = {s.name: {"url": s.wait_ready(deadline),
                                "weight": 1.0}
                       for s in self.shards}
            # The real deployment topology records federated series
            # history on the default interval, persisted under the
            # cluster root so windows survive a router restart.
            self.router = Router(members, series_interval_s=5.0,
                                 recorder_dir=self.root / "obs"
                                 / "series")
            self.peer_wiring = self.router.push_membership()
            self.server = RouterServer(self.router, host=host,
                                       port=port, verbose=verbose)
            if autostart:
                self.server.start()
        except BaseException:
            self.close()
            raise

    @property
    def url(self) -> str:
        return self.server.url

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.url, **kwargs)

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.router is not None:
            self.router.close()          # idempotent vs. server.close
            self.router = None
        for shard in self.shards:
            shard.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def join_cluster(router_url: str, name: str, url: str,
                 weight: float = 1.0) -> dict:
    """Announce a running shard to a router
    (``POST /v1/cluster/join``); the router extends its ring and
    pushes the new membership to every shard."""
    with ServeClient(router_url) as client:
        return client._request("POST", "/v1/cluster/join",
                               {"name": name, "url": url,
                                "weight": weight})
