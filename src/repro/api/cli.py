"""``repro`` — drive the whole pipeline headlessly from JSON configs.

::

    repro run cfg.json --workspace .cache/ws --out report.json
    repro search cfg.json --optimizer anneal --iterations 30
    repro campaign cfg.json --workspace .cache/ws
    repro report report.json
    repro serve --workspace .cache/ws --port 8765
    repro cluster serve --workspace .cache/cluster --shards 2
    repro cluster status --url http://127.0.0.1:8765
    repro submit cfg.json --url http://127.0.0.1:8765 --wait --follow
    repro metrics --url http://127.0.0.1:8765 --watch
    repro metrics --window 300
    repro slo --url http://127.0.0.1:8765
    repro trace JOB_ID --url http://127.0.0.1:8765
    repro profile JOB_ID --url http://127.0.0.1:8765
    repro workspace list|stats|gc .cache/ws
    repro surrogate stats|train .cache/ws
    repro predict c17 --corner 0.8,0.35,1.2e-2 --url http://127.0.0.1:8765

``run`` executes whatever ``mode`` the document declares; ``search`` /
``campaign`` force that mode (with a few common overrides) so one base
document can serve several invocations. ``report`` pretty-prints a
previously saved :class:`~repro.api.report.RunReport`. ``serve`` boots
the :mod:`repro.serve` HTTP service on a workspace; ``submit`` sends a
config document to a running server. ``workspace`` inspects (and
garbage-collects) a workspace's artifact registry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, SCHEMA_VERSION, StcoConfig
from .report import RunReport
from .workspace import Workspace

__all__ = ["main"]


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to an StcoConfig JSON file")
    parser.add_argument("--workspace", metavar="DIR", default=None,
                        help="artifact workspace directory (default: a "
                             "throwaway temp dir — nothing persists)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="where to write the RunReport JSON "
                             "(default: <workspace>/reports/report.json "
                             "when --workspace is given)")
    parser.add_argument("--no-resume", action="store_true",
                        help="campaign mode: ignore any checkpoint")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the report path")


def _http_url(text: str) -> str:
    if text.startswith("http://"):       # the client's only scheme
        return text
    raise argparse.ArgumentTypeError(f"{text!r} is not an http:// URL")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast STCO framework: config-driven runs "
                    f"(config schema v{SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute a config document (any mode)")
    _add_run_arguments(run_p)

    search_p = sub.add_parser(
        "search", help="execute a config forced to mode=search")
    _add_run_arguments(search_p)
    search_p.add_argument("--optimizer", default=None,
                          help="override search.optimizer")
    search_p.add_argument("--iterations", type=int, default=None,
                          help="override search.iterations")
    search_p.add_argument("--seed", type=int, default=None,
                          help="override search.seed")
    search_p.add_argument("--benchmark", default=None,
                          help="override the target benchmark")
    search_p.add_argument("--harvest", action="store_true",
                          help="harvest every evaluation into the "
                               "workspace's surrogate record store")
    search_p.add_argument("--screen", type=int, default=None,
                          help="surrogate promotion gate: candidates "
                               "screened per round (0 disables)")
    search_p.add_argument("--promote", type=int, default=None,
                          help="surrogate promotion gate: top-k "
                               "promoted to the engine per round")

    campaign_p = sub.add_parser(
        "campaign", help="execute a config forced to mode=campaign")
    _add_run_arguments(campaign_p)

    report_p = sub.add_parser(
        "report", help="pretty-print a saved RunReport JSON")
    report_p.add_argument("report", help="path to a RunReport JSON file")

    serve_p = sub.add_parser(
        "serve", help="serve run() over HTTP on a shared workspace")
    serve_p.add_argument("--workspace", metavar="DIR", required=True,
                         help="artifact workspace every job runs against")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="listen port (0 = ephemeral; default 8765)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="worker threads draining the job queue")
    serve_p.add_argument("--no-reuse-completed", action="store_true",
                         help="always re-execute identical submissions "
                              "instead of answering from a completed "
                              "job's report")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log HTTP requests and job progress")
    serve_p.add_argument("--port-file", metavar="FILE", default=None,
                         help="write the bound URL to FILE once "
                              "listening (ephemeral-port discovery "
                              "for cluster supervisors)")
    serve_p.add_argument("--shard", metavar="NAME", default="",
                         help="shard identity inside a cluster "
                              "(labels this service's health and "
                              "metrics)")
    serve_p.add_argument("--refresh-rows", type=int, default=0,
                         metavar="N",
                         help="warm-refit the served surrogate "
                              "whenever the record store grows by N "
                              "rows (0 = refresher off; default 0)")

    cluster_p = sub.add_parser(
        "cluster", help="run or inspect a sharded serve cluster")
    cluster_sub = cluster_p.add_subparsers(dest="cluster_command",
                                           required=True)
    cserve_p = cluster_sub.add_parser(
        "serve", help="boot a router + N local shard processes, or "
                      "join an existing cluster with --join")
    cserve_p.add_argument("--workspace", metavar="DIR", required=True,
                          help="cluster root (each shard works in "
                               "<DIR>/shard-i); with --join: this "
                               "one shard's workspace")
    cserve_p.add_argument("--shards", type=int, default=2,
                          help="shard process count (default 2)")
    cserve_p.add_argument("--host", default="127.0.0.1")
    cserve_p.add_argument("--port", type=int, default=8765,
                          help="router listen port (0 = ephemeral; "
                               "default 8765)")
    cserve_p.add_argument("--workers", type=int, default=2,
                          help="worker threads per shard")
    cserve_p.add_argument("--join", metavar="ROUTER_URL", default=None,
                          help="boot ONE shard and announce it to the "
                               "router at this URL instead of booting "
                               "a whole cluster")
    cserve_p.add_argument("--name", default=None,
                          help="--join: shard name (default derived "
                               "from the bound port)")
    cserve_p.add_argument("--weight", type=float, default=1.0,
                          help="--join: ring weight (default 1.0)")
    cserve_p.add_argument("--verbose", action="store_true",
                          help="log HTTP requests")
    cstatus_p = cluster_sub.add_parser(
        "status", help="show a router's topology and shard health")
    cstatus_p.add_argument("--url", default="http://127.0.0.1:8765",
                           type=_http_url, help="router base URL")
    cstatus_p.add_argument("--json", action="store_true",
                           help="print the raw health + topology JSON")

    submit_p = sub.add_parser(
        "submit", help="submit a config document to a running server")
    submit_p.add_argument("config", help="path to an StcoConfig JSON file")
    submit_p.add_argument("--url", default="http://127.0.0.1:8765",
                          type=_http_url, help="server base URL")
    submit_p.add_argument("--priority", type=int, default=0,
                          help="queue priority (higher runs first)")
    submit_p.add_argument("--force", action="store_true",
                          help="opt out of coalescing: always execute")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the job finishes and print "
                               "its report")
    submit_p.add_argument("--follow", action="store_true",
                          help="stream per-round progress live over SSE "
                               "while waiting (implies --wait)")
    submit_p.add_argument("--timeout", type=float, default=3600.0,
                          help="--wait polling deadline in seconds")
    submit_p.add_argument("--out", metavar="FILE", default=None,
                          help="with --wait: write the job record JSON")
    submit_p.add_argument("--quiet", action="store_true",
                          help="print only the job id (and report path)")

    metrics_p = sub.add_parser(
        "metrics", help="scrape a running server's /v1/metrics")
    metrics_p.add_argument("--url", default="http://127.0.0.1:8765",
                           type=_http_url, help="server base URL")
    metrics_p.add_argument("--format", choices=("text", "json"),
                           default="text",
                           help="Prometheus text (default) or JSON")
    metrics_p.add_argument("--watch", action="store_true",
                           help="re-scrape every --interval seconds "
                                "until interrupted")
    metrics_p.add_argument("--interval", type=float, default=2.0,
                           help="--watch period in seconds")
    metrics_p.add_argument("--grep", default=None, metavar="SUBSTRING",
                           help="text format: only lines containing "
                                "this substring")
    metrics_p.add_argument("--window", type=float, default=None,
                           metavar="SECONDS",
                           help="windowed report instead of a scrape: "
                                "deltas, rates and quantiles over the "
                                "last SECONDS of recorded series")

    slo_p = sub.add_parser(
        "slo", help="evaluate a running server's SLO rules")
    slo_p.add_argument("--url", default="http://127.0.0.1:8765",
                       type=_http_url, help="server base URL")
    slo_p.add_argument("--json", action="store_true",
                       help="print the raw SLO report JSON")

    trace_p = sub.add_parser(
        "trace", help="render a finished job's span tree")
    trace_p.add_argument("job_id", help="serve job id")
    trace_p.add_argument("--url", default="http://127.0.0.1:8765",
                         type=_http_url, help="server base URL")
    trace_p.add_argument("--json", action="store_true",
                         help="print the raw span tree JSON")

    profile_p = sub.add_parser(
        "profile", help="render a job's execute-stage sampling profile "
                        "as flamegraph collapsed-stack text")
    profile_p.add_argument("job_id", help="serve job id")
    profile_p.add_argument("--url", default="http://127.0.0.1:8765",
                           type=_http_url, help="server base URL")
    profile_p.add_argument("--json", action="store_true",
                           help="print the raw profile JSON")

    ws_p = sub.add_parser(
        "workspace", help="inspect or garbage-collect a workspace")
    ws_p.add_argument("action", choices=("list", "stats", "gc"))
    ws_p.add_argument("workspace", metavar="DIR",
                      help="workspace directory")
    ws_p.add_argument("--older-than", type=float, default=None,
                      metavar="SECONDS",
                      help="gc: only artifacts older than this")
    ws_p.add_argument("--all", action="store_true",
                      help="gc: remove regardless of age (required when "
                           "--older-than is omitted)")
    ws_p.add_argument("--kinds",
                      default="dataset,model,engine,surrogate,job,"
                              "series",
                      help="gc: comma-separated artifact kinds "
                           "(default: dataset,model,engine,surrogate,"
                           "job,series — 'job' covers terminal serve "
                           "job records, 'surrogate' the learned PPA "
                           "models and their record stores, 'series' "
                           "the recorded obs metric history)")
    ws_p.add_argument("--dry-run", action="store_true",
                      help="gc: report what would be removed")

    sg_p = sub.add_parser(
        "surrogate", help="inspect or train the workspace's learned "
                          "PPA surrogate")
    sg_p.add_argument("action", choices=("stats", "train"))
    sg_p.add_argument("workspace", metavar="DIR",
                      help="workspace directory holding the record store")
    sg_p.add_argument("--members", type=int, default=3,
                      help="train: ensemble size")
    sg_p.add_argument("--hidden", type=int, default=16,
                      help="train: hidden width per member")
    sg_p.add_argument("--epochs", type=int, default=60,
                      help="train: epochs per member")
    sg_p.add_argument("--seed", type=int, default=0,
                      help="train: ensemble seed")
    sg_p.add_argument("--min-rows", type=int, default=8,
                      help="train: refuse with fewer harvested rows")

    predict_p = sub.add_parser(
        "predict", help="tier-0 PPA inference from the served "
                        "surrogate (microseconds, no engine)")
    predict_p.add_argument("design", help="benchmark name (c17, ...)")
    predict_p.add_argument("--corner", action="append", required=True,
                           metavar="VDD,VTH,COX",
                           help="design corner as three comma-"
                                "separated numbers; repeat for a "
                                "batched query")
    predict_p.add_argument("--url", default=None, type=_http_url,
                           help="query a running server / cluster "
                                "router instead of a local workspace")
    predict_p.add_argument("--workspace", metavar="DIR", default=None,
                           help="local workspace holding the model "
                                "(default when --url is omitted: "
                                "error)")
    return parser


def _load_document(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return data


def _apply_overrides(data: dict, args) -> dict:
    if args.command == "search":
        data["mode"] = "search"
        search = dict(data.get("search", {}))
        if args.optimizer is not None:
            search["optimizer"] = args.optimizer
        if args.iterations is not None:
            search["iterations"] = args.iterations
        if args.seed is not None:
            search["seed"] = args.seed
        data["search"] = search
        if args.benchmark is not None:
            data["benchmark"] = args.benchmark
        surrogate = dict(data.get("surrogate", {}))
        if args.harvest:
            surrogate["harvest"] = True
        if args.screen is not None:
            surrogate["screen"] = args.screen
        if args.promote is not None:
            surrogate["promote"] = args.promote
        if surrogate:
            data["surrogate"] = surrogate
    elif args.command == "campaign":
        data["mode"] = "campaign"
    return data


def _cmd_run(args) -> int:
    from .runner import run
    data = _apply_overrides(_load_document(args.config), args)
    config = StcoConfig.from_dict(data)
    workspace = (Workspace(args.workspace) if args.workspace is not None
                 else None)
    report = run(config, workspace=workspace,
                 resume=not args.no_resume)
    out = args.out
    if out is None and workspace is not None:
        out = workspace.reports_dir / "report.json"
    if out is not None:
        path = report.save(out)
        print(str(path))
    if not args.quiet:
        _print_report(report)
    return 0


def _print_report(report: RunReport) -> None:
    from ..utils.tables import print_table
    print_table(["field", "value"], report.summary_rows(),
                title=f"repro {report.mode} report")
    engine = report.cache_stats.get("engine", {})
    if engine:
        for tier in ("library_cache", "result_cache"):
            stats = engine.get(tier, {})
            mem = stats.get("memory", {})
            disk = stats.get("disk", {})
            line = (f"  {tier}: memory {mem.get('hits', 0)} hits / "
                    f"{mem.get('misses', 0)} misses")
            if disk:
                line += (f", disk {disk.get('hits', 0)} hits / "
                         f"{disk.get('misses', 0)} misses, "
                         f"{disk.get('evictions', 0)} evictions")
            print(line)


def _graceful_sigterm() -> None:
    """Translate SIGTERM into KeyboardInterrupt so the serve loops'
    ``finally`` blocks run — a plain ``kill`` must not orphan shard
    subprocesses or skip draining."""
    import signal

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:                   # non-main thread (tests)
        pass


def _cmd_serve(args) -> int:
    from ..serve import ServeService, StcoServer
    workspace = Workspace(args.workspace)
    on_event = None
    if args.verbose:
        def on_event(job, snapshot):
            print(f"[{job.job_id}] round {snapshot.get('round', '?')}: "
                  f"best {snapshot.get('best_reward', float('nan')):.4f}",
                  file=sys.stderr)
    predict_config = None
    refresh_rows = getattr(args, "refresh_rows", 0) or 0
    if refresh_rows > 0:
        from .config import PredictConfig
        predict_config = PredictConfig(refresh_delta_rows=refresh_rows)
    service = ServeService(workspace, workers=args.workers,
                           reuse_completed=not args.no_reuse_completed,
                           on_event=on_event,
                           shard_name=getattr(args, "shard", ""),
                           predict_config=predict_config)
    server = StcoServer(service, host=args.host, port=args.port,
                        verbose=args.verbose)
    port_file = getattr(args, "port_file", None)
    if port_file:
        # Atomic publish: a supervisor polling the file never reads a
        # torn URL.
        target = Path(port_file)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.parent / (target.name + ".tmp")
        tmp.write_text(server.url + "\n", encoding="utf-8")
        tmp.replace(target)
    recovered = service.store.recovered
    if recovered:
        print(f"resubmitted {len(recovered)} interrupted job(s): "
              f"{', '.join(recovered)}")
    print(f"serving {workspace} on {server.url} "
          f"({args.workers} worker(s)) — Ctrl-C to stop")
    _graceful_sigterm()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining…")
    finally:
        server.close(close_service=True)
    return 0


def _cmd_cluster(args) -> int:
    if args.cluster_command == "status":
        return _cmd_cluster_status(args)
    if args.join is not None:
        return _cmd_cluster_join(args)
    from ..cluster import LocalCluster
    cluster = LocalCluster(args.workspace, shards=args.shards,
                           host=args.host, port=args.port,
                           workers=args.workers, verbose=args.verbose)
    for shard in cluster.shards:
        print(f"  {shard.name}: {shard.url} "
              f"(workspace {shard.workspace})")
    print(f"routing {len(cluster.shards)} shard(s) on {cluster.url} "
          f"— Ctrl-C to stop")
    _graceful_sigterm()
    try:
        cluster.serve_forever()
    except KeyboardInterrupt:
        print("\nstopping cluster…")
    finally:
        cluster.close()
    return 0


def _cmd_cluster_join(args) -> int:
    from ..cluster.client import join_cluster
    from ..serve import ServeService, StcoServer
    workspace = Workspace(args.workspace)
    # Bind first (ephemeral port), then announce: the router needs a
    # reachable URL, and the name defaults to the bound port.
    service = ServeService(workspace, workers=args.workers,
                           shard_name=args.name or "")
    server = StcoServer(service, host=args.host, port=0,
                        verbose=args.verbose)
    name = args.name or f"shard-{server.port}"
    service.shard_name = name
    try:
        joined = join_cluster(args.join, name, server.url,
                              weight=args.weight)
    except Exception as exc:             # noqa: BLE001 — CLI boundary
        server.close(close_service=True)
        print(f"error: cannot join {args.join}: {exc}",
              file=sys.stderr)
        return 2
    ring = joined.get("ring", {})
    print(f"joined {args.join} as {name} on {server.url} "
          f"({ring.get('points', '?')} ring points) — Ctrl-C to stop")
    _graceful_sigterm()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining…")
    finally:
        server.close(close_service=True)
    return 0


def _cmd_cluster_status(args) -> int:
    from ..serve import ServeClient, ServeClientError
    from ..utils.tables import print_table
    try:
        with ServeClient(args.url) as client:
            health = client.health()
            topology = client._request("GET", "/v1/cluster")
    except ServeClientError as exc:
        if exc.status != 404:
            raise
        print(f"error: {args.url} is not a cluster router "
              f"(no /v1/cluster endpoint)", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"health": health, "cluster": topology},
                         indent=1, sort_keys=True))
        return 0 if health.get("health") == "healthy" else 1
    shards = topology.get("shards", {})
    rows = []
    for name in sorted(shards):
        doc = (health.get("shards") or {}).get(name, {})
        jobs = doc.get("jobs") or {}
        rows.append([name, shards[name].get("url", ""),
                     doc.get("health", "?"),
                     "yes" if doc.get("accepting") else "no",
                     str(jobs.get("running", 0)),
                     str(jobs.get("queued", 0)),
                     str(jobs.get("succeeded", 0))])
    ring = topology.get("ring", {})
    print_table(
        ["shard", "url", "health", "accepting", "running", "queued",
         "succeeded"],
        rows,
        title=f"cluster {health.get('health', '?')} — "
              f"{len(shards)} shard(s), "
              f"{ring.get('points', 0)} ring points")
    return 0 if health.get("health") == "healthy" else 1


def _cmd_submit(args) -> int:
    from ..serve import ServeClient
    from ..serve.client import WaitTimeout
    # Same coercion as `repro run`: a missing/corrupt file is a clean
    # ConfigError (exit 2 via main), never a traceback.
    document = _load_document(args.config)
    with ServeClient(args.url) as client:
        submitted = client.submit(document, priority=args.priority,
                                  force=args.force)
        job_id = submitted["job_id"]
        if submitted.get("coalesced_with") and not args.quiet:
            print(f"coalesced with job {submitted['coalesced_with']}")
        print(job_id)
        if not (args.wait or args.follow):
            return 0
        if args.follow:
            # Live SSE feed instead of summary polling; the stream ends
            # with the terminal state, so the wait below is instant.
            for item in client.events(job_id, stream=True):
                if args.quiet:
                    continue
                kind, data = item["event"], item["data"]
                if kind == "progress" and isinstance(data, dict) \
                        and "round" in data:
                    print(f"round {data['round']}: "
                          f"told {data.get('told', '?')}, best "
                          f"{data.get('best_reward', float('nan')):.4f}",
                          file=sys.stderr)
                elif kind == "end" and isinstance(data, dict):
                    print(f"job {data.get('job_id', job_id)} "
                          f"{data.get('state', '?')}", file=sys.stderr)
        try:
            job = client.wait(job_id, timeout_s=args.timeout)
        except WaitTimeout as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    if args.out is not None:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(job, indent=1, sort_keys=True),
                        encoding="utf-8")
        print(str(path))
    if job["state"] != "succeeded":
        print(f"job {job_id} {job['state']}: {job['error']}",
              file=sys.stderr)
        return 1
    if not args.quiet:
        _print_report(RunReport.from_dict(job["report"]))
    return 0


def _metrics_grep(pattern: str, text: str) -> str:
    """Filter exposition lines by substring. A bare ``key=value``
    pattern also matches the *rendered* label form ``key="value"``,
    so ``--grep shard=a`` finds ``repro_jobs_total{shard="a",...}``
    without the caller shell-quoting exposition syntax."""
    needles = [pattern]
    if "=" in pattern and '"' not in pattern:
        key, _, value = pattern.partition("=")
        needles.append(f'{key}="{value}"')
    return "\n".join(line for line in text.splitlines()
                     if any(needle in line for needle in needles))


def _cmd_metrics(args) -> int:
    import time as _time

    from ..serve import ServeClient
    try:
        with ServeClient(args.url) as client:
            while True:
                if args.window is not None:
                    print(json.dumps(client.metrics(window_s=args.window),
                                     indent=1, sort_keys=True))
                elif args.format == "json":
                    print(json.dumps(client.metrics("json"), indent=1,
                                     sort_keys=True))
                else:
                    text = client.metrics()
                    if args.grep:
                        text = _metrics_grep(args.grep, text)
                    print(text)
                if not args.watch:
                    return 0
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_slo(args) -> int:
    from ..serve import ServeClient
    from ..utils.tables import print_table
    with ServeClient(args.url) as client:
        report = client.slo()
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        def fmt(value):
            return "-" if value is None else f"{value:.4g}"
        print_table(
            ["rule", "kind", "state", "value", "objective", "burn",
             "window"],
            [[r["name"], r["kind"], r["state"], fmt(r["value"]),
              fmt(r["objective"]), fmt(r.get("burn_rate")),
              f"{r['window_s']:.0f}s"] for r in report["rules"]],
            title=f"SLO — service {report['health']}")
    return 0 if report["health"] == "healthy" else 1


def _cmd_profile(args) -> int:
    from ..serve import ServeClient, ServeClientError
    try:
        with ServeClient(args.url) as client:
            fmt = "json" if args.json else "text"
            found = client.profile(args.job_id, format=fmt)
    except ServeClientError as exc:
        if exc.status != 404:
            raise
        print(f"error: {exc.message}", file=sys.stderr)
        return 1
    if not args.json:
        sys.stdout.write(found)
    elif found.get("profile") is None:
        print(f"no profile recorded for job {args.job_id}",
              file=sys.stderr)
        return 1
    else:
        print(json.dumps(found, indent=1, sort_keys=True))
    return 0


def _cmd_trace(args) -> int:
    from ..obs.trace import render_tree
    from ..serve import ServeClient
    with ServeClient(args.url) as client:
        trace = None
        # Prefer the serve-side span tree (covers queue/lock/execute);
        # fall back to the report's run-level trace block.
        for event in reversed(client.events(args.job_id)):
            if isinstance(event, dict) and event.get("kind") == "trace":
                trace = event.get("trace")
                break
        if not trace:
            job = client.job(args.job_id)
            trace = (job.get("report") or {}).get("trace")
    if not trace:
        print(f"no trace recorded for job {args.job_id}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(trace, indent=1, sort_keys=True))
    else:
        print("\n".join(render_tree(trace)))
    return 0


def _cmd_workspace(args) -> int:
    from ..utils.tables import print_table
    workspace = Workspace(args.workspace)
    if args.action == "stats":
        print(json.dumps(workspace.stats(), indent=1, sort_keys=True))
        return 0
    if args.action == "list":
        rows = workspace.list_artifacts()
        if not rows:
            print(f"{workspace}: no registered artifacts")
            return 0
        print_table(
            ["kind", "technology", "path", "size", "age"],
            [[r["kind"], r["technology"], r["path"],
              f"{r['size_bytes'] / 1024:.1f} KiB" if r["exists"]
              else "missing",
              _age(r["created_s"])] for r in rows],
            title=f"workspace {workspace.root}")
        return 0
    # gc
    if args.older_than is None and not getattr(args, "all", False):
        print("error: gc needs --older-than SECONDS or --all",
              file=sys.stderr)
        return 2
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = set(kinds) - {"dataset", "model", "engine", "surrogate",
                            "job", "series"}
    if unknown:
        print(f"error: unknown gc kind(s) {sorted(unknown)}",
              file=sys.stderr)
        return 2
    result = workspace.gc(older_than_s=args.older_than, kinds=kinds,
                          dry_run=args.dry_run)
    verb = "would remove" if result["dry_run"] else "removed"
    print(f"{verb} {len(result['removed'])} artifact(s), "
          f"{result['freed_bytes'] / 1024:.1f} KiB "
          f"({result['kept']} kept)")
    for entry in result["removed"]:
        print(f"  {entry['kind']}: {entry['path']} "
              f"({entry['bytes'] / 1024:.1f} KiB)")
    return 0


def _age(created_s: float) -> str:
    import time
    seconds = max(0.0, time.time() - created_s)
    for unit, span in (("d", 86400), ("h", 3600), ("m", 60)):
        if seconds >= span:
            return f"{seconds / span:.1f}{unit}"
    return f"{seconds:.0f}s"


def _cmd_surrogate(args) -> int:
    workspace = Workspace(args.workspace)
    if args.action == "stats":
        stats = workspace.surrogate_stats()
        store = workspace.record_store()
        print(json.dumps({**stats, "default_store": store.stats()},
                         indent=1, sort_keys=True))
        return 0
    # train
    from ..surrogate.models import EnsembleConfig
    config = EnsembleConfig(members=args.members, hidden=args.hidden,
                            epochs=args.epochs, seed=args.seed)
    try:
        model = workspace.surrogate_model(config,
                                          min_rows=args.min_rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"fingerprint": model.fingerprint(),
                      "trained_rows": model.trained_rows,
                      "members": config.members,
                      "loaded": workspace.counters["surrogates_loaded"]
                      > 0}, indent=1, sort_keys=True))
    return 0


def _parse_corner(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(
            f"--corner wants three comma-separated numbers "
            f"(vdd,vth,cox), got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--corner {text!r} is not numeric") from None


def _cmd_predict(args) -> int:
    corners = [_parse_corner(c) for c in args.corner]
    if args.url is not None:
        from ..serve import ServeClient, ServeClientError
        try:
            with ServeClient(args.url) as client:
                doc = (client.predict(args.design, corners[0])
                       if len(corners) == 1
                       else client.predict_batch(args.design, corners))
        except ServeClientError as exc:
            print(f"error: {exc.message}", file=sys.stderr)
            return 1 if exc.status == 409 else 2
    elif args.workspace is not None:
        from ..predict import PredictError, PredictService
        service = PredictService(Workspace(args.workspace))
        try:
            doc = (service.predict(args.design, corners[0])
                   if len(corners) == 1
                   else service.predict_batch(args.design, corners))
        except PredictError as exc:
            print(f"error: {exc.message}", file=sys.stderr)
            return 1 if exc.status == 409 else 2
    else:
        print("error: predict needs --url or --workspace",
              file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    try:
        report = RunReport.load(args.report)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load report {args.report!r}: {exc}",
              file=sys.stderr)
        return 2
    _print_report(report)
    return 0


def main(argv=None) -> int:
    from ..serve.client import ServeClientError
    from .runner import CampaignCheckpointError
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "slo":
            return _cmd_slo(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "workspace":
            return _cmd_workspace(args)
        if args.command == "surrogate":
            return _cmd_surrogate(args)
        if args.command == "predict":
            return _cmd_predict(args)
        return _cmd_run(args)
    except (ConfigError, CampaignCheckpointError,
            ServeClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The client commands' one transport-failure path; file
        # errors (they name their file) are not about the server.
        if getattr(args, "url", None) is None or exc.filename:
            raise
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
