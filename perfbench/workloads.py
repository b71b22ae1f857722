"""The three STCO workloads, their inputs and their output checks.

* ``cold_stco`` — a new technology's first STCO run: the quickstart
  document into an empty workspace (measure, train, characterize,
  search). SPICE, charlib and nn work shows here.
* ``warm_sweep`` — one search document per Table I design against a
  workspace that already holds the dataset and the trained GNN, on
  corners no template cache holds. SPICE does no work; corners repeat
  across designs, so the library cache hits and the result cache does
  not. The EDA flow and GNN inference dominate.
* ``serve_mixed`` — reads beside writes on one ``repro serve`` process
  in a subprocess: a reader thread posting predicts over a fixed corner
  cycle, and a writer thread keeping two distinct search documents in
  flight, every fifth write a byte-identical resubmission of a finished
  one (the duplicate path). The serve lock, HTTP and the predict edge
  show here.

Every workload reports writes (STCO runs) and reads (answers the
program already holds). A read in ``serve_mixed`` is ``POST /v1/predict``;
in the two in-process workloads it is a byte-identical rerun of a
finished document through ``repro.api.run`` on the same workspace — what
a repeated ``repro run`` costs, answered from the result cache, as
``serve_mixed``'s duplicate writes are — and it is checked to do no
engine work and to return the first run's rewards.
"""

from __future__ import annotations

import copy
import json
import math
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import Speedometer
from stats import block_tail, percentile, summarize, tail_level
from templates import QUICKSTART
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

WORKLOADS = ("cold_stco", "warm_sweep", "serve_mixed")

#: Set-ups measured per run; the median is reported and the last kept.
SETUPS = {"cold_stco": 7, "warm_sweep": 5, "serve_mixed": 3}
#: Calibration slices per mark between set-ups and serve windows (their
#: median counts): a point mark cannot average over a stretch of ticks.
MARK_SLICES = 5
#: In-process reads per run, cycling over the finished documents, and
#: the blocks their tail is taken over. A cold rerun takes ~6 ms and a
#: warm one 5-200 ms by design; reads that short are hit by the shared
#: host's slow spells of a second or less, which calibration does not
#: fully see, and over five seeds such spells spread the cold p95 of the
#: pooled reruns 0.16-0.58 IQR/median. The tail reported is the highest
#: percentile with ten samples beyond it (stats.MIN_BEYOND) of each block
#: of READ_BLOCK consecutive reads, median over the blocks: a spell that
#: slows one block does not move it. Cold reruns all repeat one document,
#: so their tail is the host's jitter: blocks of 100 (p90) spread 0.05
#: IQR/median over six 1,000-read stretches of one run where blocks of
#: 200 (p95) spread 0.06-0.12. The warm reads are 20 per design in one
#: block, so its p95 lies inside the slowest design's reruns.
#: serve_mixed's thousands of predicts take the pooled 99th (count
#: checked).
READS = {"cold_stco": 1000, "warm_sweep": 200}
READ_BLOCK = {"cold_stco": 100, "warm_sweep": 200}
READ_TAIL = {"cold_stco": 90.0, "warm_sweep": 95.0, "serve_mixed": 99.0}
#: Absolute tolerance on a reward against the stored reference. Rewards
#: are log10 PPA scores near 8.5 whose neighbouring grid corners differ
#: by 7e-4 to 3e-2; a SPICE or GNN path that reproduces the measurements
#: to a few parts per million moves them far less than 1e-3.
REWARD_TOL = 1e-3
#: warm_sweep: search budget per design document, the optimizers the
#: documents cycle through (in Table I order), and the design space.
#: NSGA-II and Bayesian search run on a continuous box, where they never
#: propose a corner twice; random search needs a grid, so it gets one of
#: 2,079 corners (a repeat is a 0.7% event per document). Annealing can
#: step back onto a corner it clipped to at the box's edge, so the cycle
#: gives it two mid-size designs, where a repeat costs little. All
#: documents share the seed, so first samples coincide across designs:
#: corners repeat across designs and hit the library cache.
SWEEP_ITERATIONS = 6
SWEEP_OPTIMIZERS = ("bayes", "random", "anneal", "nsga2")
SWEEP_BOX = (("vdd_scale", 0.80, 1.20), ("vth_shift", -0.08, 0.08),
             ("cox_scale", 0.85, 1.15))
SWEEP_GRID = {"vdd_scales": [i / 100 for i in range(80, 121, 2)],
              "vth_shifts": [i / 100 for i in range(-8, 9, 2)],
              "cox_scales": [i / 100 for i in range(85, 116, 3)]}
#: serve_mixed: distinct documents the writer keeps in flight, the
#: share of writes that resubmit a finished document byte for byte, and
#: the write document's size (grid corners, all evaluated).
IN_FLIGHT = 2
#: Calibrated serve runs split ``--seconds`` into this many windows, with
#: a calibration mark between each two. The host's speed moves on a scale
#: of seconds, and marks only see it between windows: over six seeds
#: interleaved on one noisy stretch, eight windows with 5-slice marks
#: spread run_p50_s 0.08 IQR/median where four windows with 3-slice marks
#: spread 0.15 (and the windows' wall times 0.14 and 0.24).
WINDOWS = 8
DUPLICATE_EVERY = 5
WRITE_DESIGN = "s298"
WRITE_CORNERS = 6
PREDICT_CORNERS = 64


class Checks:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    def expect(self, ok: bool, reason: str) -> None:
        """A check on the outputs rather than an operation: a failure is
        an extra failed operation."""
        if not ok:
            self.op(False, reason)


# -- documents ---------------------------------------------------------------
def cold_document(seed: int) -> dict:
    doc = copy.deepcopy(QUICKSTART)
    doc["search"]["seed"] = seed
    return doc


def sweep_documents(seed: int) -> list:
    from repro.eda.benchmarks import benchmark_names
    docs = []
    for i, design in enumerate(benchmark_names()):
        doc = copy.deepcopy(QUICKSTART)
        doc["benchmark"] = design
        optimizer = SWEEP_OPTIMIZERS[i % len(SWEEP_OPTIMIZERS)]
        doc["search"].update(seed=seed, iterations=SWEEP_ITERATIONS,
                             optimizer=optimizer)
        if optimizer == "random":
            doc["search"].update(SWEEP_GRID)
        else:
            doc["search"]["axes"] = [{"name": name, "lo": lo, "hi": hi}
                                     for name, lo, hi in SWEEP_BOX]
        # bayes starts modelling after three observations, so its
        # surrogate fits run inside the six-evaluation budget.
        doc["surrogate"] = {"min_observations": 3}
        docs.append(doc)
    return docs


def write_document(seed: int, k: int) -> dict:
    """Write ``k``: a grid search over six corners no earlier write used,
    so every write does the same engine work however long the run."""
    offset = (seed % 997) * 1e-7
    vdd = tuple(round(0.80 + 0.0002 * (2 * k + j) + offset, 7)
                for j in range(2))
    doc = copy.deepcopy(QUICKSTART)
    doc["benchmark"] = WRITE_DESIGN
    doc["search"].update(optimizer="grid", seed=seed,
                         iterations=WRITE_CORNERS, vdd_scales=vdd,
                         vth_shifts=(-0.03, 0.01, 0.04),
                         cox_scales=(1.03,))
    return doc


def predict_corners(seed: int) -> list:
    rng = random.Random(seed ^ 0x5EED)
    return [(round(rng.uniform(0.85, 1.15), 4),
             round(rng.uniform(-0.05, 0.05), 4),
             round(rng.uniform(0.9, 1.1), 4))
            for _ in range(PREDICT_CORNERS)]


# -- shared helpers ----------------------------------------------------------
def _config(doc: dict):
    from repro.api import StcoConfig
    return StcoConfig.from_dict(doc)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setups(setup, count: int, discard, speedo: Speedometer):
    """Run ``setup`` ``count`` times, each between calibration marks;
    return (median scaled seconds, every scaled time, last result, every
    wall time), handing every earlier result to ``discard``."""
    spans, result = [], None
    speedo.mark(MARK_SLICES)
    for _ in range(count):
        if result is not None:
            discard(result)
        t0 = speedo.clock()
        result = setup()
        spans.append((t0, speedo.clock()))
        speedo.mark(MARK_SLICES)
    times = [speedo.scaled(a, b) for a, b in spans]
    return percentile(times, 50.0), times, result, [b - a for a, b in spans]


class RecordLog:
    """Engine record listener: every (design, corner) a run evaluated,
    with its reward, for the read phase and the reference check."""

    def __init__(self):
        self.entries: dict = {}
        self.active = True

    def attach(self, engine) -> None:
        engine.add_record_listener(self.observe)

    def observe(self, netlist, records) -> None:
        if not self.active:
            return
        for record in records:
            key = (netlist.name, record.corner.key())
            self.entries.setdefault(key, (netlist, record.corner,
                                          record.reward))


def rerun_reads(ws, finished: list, checks: Checks, count: int,
                speedo: Speedometer) -> list:
    """``count`` byte-identical reruns of the finished ``(document,
    report)`` pairs, in turn, on the workspace that ran them. Each must
    run no flow, characterize nothing and return the first run's
    rewards. Returns their (start, end) on ``speedo``'s clock."""
    from repro.api import run
    lat = []
    for i in range(count):
        doc, report = finished[i % len(finished)]
        t0 = speedo.clock()
        try:
            again = run(doc, ws)
        except Exception as exc:          # noqa: BLE001 — counted
            checks.op(False, f"rerun of {doc['benchmark']}: {exc!r}")
            continue
        lat.append((t0, speedo.clock()))
        checks.op(again.engine_misses == 0
                  and again.characterizations == 0
                  and again.rewards == report.rewards
                  and again.best_corner == report.best_corner,
                  f"rerun of {doc['benchmark']} disagrees with its run")
    return lat


def engine_counts(all_stats) -> dict:
    """Summed ``EvaluationEngine.stats()`` counters: evaluations,
    misses, cache hits."""
    out = {"evaluations": 0, "misses": 0, "characterizations": 0,
           "result_hits": 0, "library_hits": 0, "library_lookups": 0}
    for stats in all_stats:
        res, lib = stats["result_cache"], stats["library_cache"]
        out["evaluations"] += res["memory"]["hits"] \
            + res["memory"]["misses"]
        out["result_hits"] += res["memory"]["hits"] \
            + res.get("disk", {}).get("hits", 0)
        out["library_lookups"] += lib["memory"]["hits"] \
            + lib["memory"]["misses"]
        out["library_hits"] += lib["memory"]["hits"] \
            + lib.get("disk", {}).get("hits", 0)
        out["misses"] += stats["flow_evaluations"]
        out["characterizations"] += stats["characterizations"]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: dict, ws_counters: dict,
                  wall: tuple) -> dict:
    """The per-layer table of an in-process traced run."""
    from layers import EDA_STAGES
    layers = tracer.layers()
    c = tracer.counts

    def calls(name):
        return float(tracer.calls.get(name, 0))

    def secs(name, key="s"):
        return layers.get(name, {}).get(key, 0.0)

    out = {
        "spice.transient.calls": calls("spice.transient"),
        "spice.transient.s": secs("spice.transient"),
        "spice.steps": c["spice.steps"],
        "spice.newton.iters": c["spice.newton.iters"],
        "spice.nonconverged": c["spice.nonconverged"],
        "spice.dc.calls": calls("spice.dc"),
        "spice.dc.s": secs("spice.dc"),
        "charlib.characterize.calls": calls("charlib.characterize"),
        "charlib.characterize.self_s": secs("charlib.characterize",
                                            "self_s"),
        "charlib.measurements": c["charlib.measurements"],
        "charlib.dataset.self_s": secs("charlib.dataset", "self_s"),
        "charlib.gnn_build.calls": calls("charlib.gnn_build"),
        "charlib.gnn_build.s": secs("charlib.gnn_build"),
        "nn.train.s": secs("nn.train"),
        "nn.train.epochs": c["nn.train.epochs"],
        "api.dataset.s": secs("api.dataset"),
        "api.model.s": secs("api.model"),
        "api.datasets_built": float(ws_counters["datasets_built"]),
        "api.models_trained": float(ws_counters["models_trained"]),
        "engine.evaluations": float(counts["evaluations"]),
        "engine.misses": float(counts["misses"]),
        "engine.characterizations": float(counts["characterizations"]),
        "engine.result_hit_ratio": _ratio(counts["result_hits"],
                                          counts["evaluations"]),
        "engine.library_hit_ratio": _ratio(counts["library_hits"],
                                           counts["library_lookups"]),
        "engine.evaluate_many.self_s": secs("engine.evaluate_many",
                                            "self_s"),
        "eda.flows": calls("eda.flow"),
        "eda.flow.s": secs("eda.flow"),
        "eda.netlist.s": secs("eda.netlist"),
        # No wrapped ask calls another, so one ask is one round.
        "search.rounds": calls("search.ask"),
        "search.ask.s": secs("search.ask"),
        "search.tell.s": secs("search.tell"),
        "surrogate.fit.calls": calls("surrogate.fit"),
        "surrogate.fit.s": secs("surrogate.fit"),
        "surrogate.rows": c["surrogate.rows"],
    }
    for stage in EDA_STAGES:
        out[f"eda.{stage}.s"] = c[f"eda.{stage}.s"]
    start, end = wall
    out["trace.wall_s"] = end - start
    out["trace.coverage"] = tracer.coverage(start, end)
    out["trace.uncovered"] = float(len(tracer.uncovered()))
    return out


# -- in-process workloads -----------------------------------------------------
class InProcess:
    """Shared runner of ``cold_stco`` and ``warm_sweep``.

    A *run* is one user-level STCO job: the cold run, or the whole design
    sweep. In the end-to-end run the workload's READS reruns follow,
    cycling over the finished documents, so each design's reruns spread
    over the whole read phase rather than sitting in one few-second
    stretch of it.
    """

    def __init__(self, env, name: str, seed: int):
        self.env = env
        self.name = name
        self.seed = seed
        self.cold = name == "cold_stco"
        self.template = "empty" if self.cold else "warm"
        self.docs = ([cold_document(seed)] if self.cold
                     else sweep_documents(seed))

    def bringup(self) -> Path:
        """A fresh template copy, brought up by its own interpreter
        (``bringup.py``): the set-up every invocation of the program
        pays. The copy stays at its start state."""
        dest = self.env.fresh_copy(self.template)
        subprocess.run([sys.executable, str(HERE / "bringup.py"),
                        self.name, str(dest)], check=True,
                       env=self.env.child_env(), cwd=str(self.env.root))
        return dest

    def open(self, root: Path):
        """The brought-up copy, opened in this process for the run."""
        from repro.api import Workspace
        ws = Workspace(root)
        if not self.cold:
            cfg = _config(QUICKSTART)
            ws.engine(cfg.technology, cfg.model, cfg.engine)
        return ws

    def work(self, ws, checks: Checks, speedo: Speedometer,
             tracer=None, reads: int = 0) -> dict:
        """Run every document, then ``reads`` reruns. Calibration ticks
        all along when ``speedo`` is enabled; the returned latencies are
        scaled."""
        from repro.api import run
        log = RecordLog()
        ws.add_engine_hook(log.attach)
        if tracer is not None:
            from layers import install
            install(tracer)
        lat, finished, spans = [], [], []
        t_start = time.perf_counter()
        try:
            with speedo.ticking():
                for doc in self.docs:
                    t0 = speedo.clock()
                    try:
                        report = run(doc, ws)
                    except Exception as exc:  # noqa: BLE001 — counted
                        checks.op(False, f"{doc['benchmark']}: {exc!r}")
                        continue
                    lat.append((t0, speedo.clock()))
                    checks.op(True)
                    finished.append((doc, report))
                counts = engine_counts(e.stats() for e in ws.engines())
                if reads and finished:
                    # The reruns' engine counters (cache hits only,
                    # checked) stay out of the run's own counts.
                    log.active = False
                    spans = rerun_reads(ws, finished, checks, reads,
                                        speedo)
        finally:
            t_end = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        return {"lat": [speedo.scaled(a, b) for a, b in lat],
                "reads": [speedo.scaled(a, b) for a, b in spans],
                "reports": [report for _, report in finished],
                "log": log, "counts": counts,
                "wall": (t_start, t_end)}

    def check(self, ws, out: dict, checks: Checks) -> None:
        counters, counts = ws.counters, out["counts"]
        built = 1 if self.cold else 0
        checks.expect(counters["datasets_built"] == built
                      and counters["models_trained"] == built,
                      f"built {counters['datasets_built']} datasets and "
                      f"trained {counters['models_trained']} models")
        checks.expect(len(ws.engines()) == 1,
                      f"{len(ws.engines())} engines")
        # Exact work: one flow per distinct (design, corner) evaluated,
        # one characterization per distinct corner, reads excluded.
        entries = out["log"].entries
        checks.expect(counts["misses"] == len(entries),
                      f"{counts['misses']} flows for {len(entries)} "
                      f"evaluated corners")
        corners = {corner for _, corner in entries}
        checks.expect(counts["characterizations"] == len(corners),
                      f"{counts['characterizations']} characterizations "
                      f"for {len(corners)} corners")
        for report in out["reports"]:
            checks.expect(math.isfinite(report.best_reward)
                          and report.best_reward == max(report.rewards),
                          f"{report.design}: best_reward not the best")
        if self.cold and out["reports"]:
            ref = REFERENCE["cold_stco"]["rewards"]
            keys = []
            for (_, corner), (_, _, reward) in entries.items():
                key = ",".join(f"{v:g}" for v in corner)
                keys.append(key)
                checks.expect(key in ref and abs(reward - ref[key])
                              <= REWARD_TOL,
                              f"reward {reward} at {key} vs reference "
                              f"{ref.get(key)}")
            best = ",".join(f"{v:g}" for v in out["reports"][0].best_corner)
            checks.expect(
                best in ref and max(ref.get(k, -math.inf) for k in keys)
                - ref[best] <= REWARD_TOL,
                f"best corner {best} is not the best corner visited")

    def check_layers(self, layers: dict, checks: Checks) -> None:
        """What the traced run must see: SPICE only when cold, and there
        exactly the dataset's cells x corners."""
        doc = _config(self.docs[0])
        tech = doc.technology
        measured = len(tech.cells) * len(tech.corners("train")
                                         + tech.corners("test"))
        want = {"charlib.characterize.calls": measured if self.cold else 0,
                "nn.train.epochs": doc.model.epochs if self.cold else 0}
        if not self.cold:
            want["spice.transient.calls"] = 0
        for name, value in want.items():
            checks.expect(layers[name] == value,
                          f"{name} = {layers[name]}, expected {value}")

    def run(self, trace: bool, calibrated: bool) -> dict:
        """One run. ``calibrated`` is the end-to-end run: its times are
        scaled to the reference host speed (see ``speed.py``) and it
        measures set-ups, runs and reads. Otherwise it is one half of a
        traced pair: one set-up and one run, timed in wall seconds."""
        checks = Checks()
        speedo = Speedometer(calibrated)
        setup_s, setup_all, root, setup_wall = measure_setups(
            self.bringup, SETUPS[self.name] if calibrated else 1,
            lambda r: shutil.rmtree(r, ignore_errors=True), speedo)
        result = {"checks": checks, "setup_all": setup_all,
                  "setup_wall": setup_wall}
        try:
            tracer = Tracer() if trace else None
            ws = self.open(root)
            out = self.work(ws, checks, speedo, tracer,
                            READS[self.name] if calibrated else 0)
            self.check(ws, out, checks)
            run_s = sum(out["lat"])
            result["speed"] = speedo.speed()
            result["write_wall"] = run_s
            result["counts"] = out["counts"]
            result["samples"] = {"run_s": run_s,
                                 "documents": summarize(out["lat"])}
            if tracer is not None:
                result["layers"] = layer_metrics(
                    tracer, out["counts"], dict(ws.counters), out["wall"])
                self.check_layers(result["layers"], checks)
                result["tracer"] = tracer
            elif calibrated:
                reads = out["reads"]
                checks.expect(len(reads) == READS[self.name],
                              f"{len(reads)} of {READS[self.name]} "
                              f"reruns timed")
                result["metrics"] = {
                    "setup_s": setup_s,
                    "peak_rss_mb": _peak_rss_mb(),
                    "run_p50_s": run_s,
                    "read_tail_ms": block_tail(
                        reads, READ_BLOCK[self.name]) * 1e3}
                result["samples"]["reads"] = dict(
                    summarize(reads), per_s=len(reads) / sum(reads))
            if self.cold and out["reports"]:
                report = out["reports"][0]
                result["best"] = {"reward": report.best_reward,
                                  "corner": list(report.best_corner)}
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return result


# -- serve_mixed ----------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess on a fresh template copy, up and
    answering predicts."""

    def __init__(self, env):
        self.root = env.fresh_copy("serve")
        port_file = self.root / "serve.url"
        with open(self.root / "serve.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.api.cli", "serve",
                 "--workspace", str(self.root), "--port", "0",
                 "--workers", "2", "--port-file", str(port_file)],
                stdout=log, stderr=subprocess.STDOUT,
                env=env.child_env(), cwd=str(env.root))
        try:
            deadline = time.monotonic() + 120.0
            while not port_file.exists():
                if self.proc.poll() is not None \
                        or time.monotonic() > deadline:
                    raise RuntimeError(
                        "repro serve did not come up: " + (
                            self.root / "serve.log").read_text()[-2000:])
                time.sleep(0.01)
            self.url = port_file.read_text().strip()
            from repro.serve import ServeClient
            client = ServeClient(self.url, timeout_s=60.0)
            client.health()
            # The predict edge loads the surrogate on first use; that is
            # bring-up, not a measured read.
            if "uncertainty" not in client.predict(WRITE_DESIGN,
                                                   (1.0, 0.0, 1.0)):
                raise RuntimeError("predict answered without uncertainty")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        shutil.rmtree(self.root, ignore_errors=True)


def _rate(count: int, last: float, start: float) -> float:
    """Completions per second inside a window: the count over the time
    from the window's start to the last completion in it."""
    return _ratio(count, last - start)


#: Server spans (``repro_span_seconds``) the serve_mixed layers read.
SERVER_SPANS = ("engine.characterize", "engine.executor",
                "engine.evaluate_many", "search.round", "optimizer.ask",
                "optimizer.tell")
#: Layers that measure SPICE, the characterization dataset and GNN
#: training. A server that built no dataset and trained no model (both
#: checked) did none of that work, so on serve_mixed they read 0.
NO_DATASET_LAYERS = (
    "spice.transient.calls", "spice.transient.s", "spice.steps",
    "spice.newton.iters", "spice.nonconverged", "spice.dc.calls",
    "spice.dc.s", "charlib.characterize.calls",
    "charlib.characterize.self_s", "charlib.measurements",
    "charlib.dataset.self_s", "nn.train.s", "nn.train.epochs")


def _server_counters(client) -> dict:
    """Cumulative predict-edge, HTTP and span counters from
    ``/v1/metrics`` and the record-store size from the workspace stats."""
    metrics = client.metrics(format="json")["metrics"]

    def series(name):
        return metrics.get(name, {}).get("series", [])

    out = {"predict_s": 0.0, "predicts": 0.0, "hit": 0.0, "miss": 0.0,
           "http.requests.predict": 0.0, "http.requests.runs": 0.0}
    for name in SERVER_SPANS:
        out[f"{name}.s"] = out[f"{name}.n"] = 0.0
    for s in series("repro_predict_seconds"):
        if s["labels"].get("endpoint") == "predict":
            out["predict_s"] += s["sum"]
            out["predicts"] += s["count"]
    for s in series("repro_predict_cache_total"):
        if s["labels"].get("event") in ("hit", "miss"):
            out[s["labels"]["event"]] += s["value"]
    for s in series("repro_http_requests_total"):
        route = s["labels"].get("route", "")
        if route == "/v1/predict":
            out["http.requests.predict"] += s["value"]
        elif route.startswith("/v1/runs"):
            out["http.requests.runs"] += s["value"]
    for s in series("repro_span_seconds"):
        name = s["labels"].get("span")
        if name in SERVER_SPANS:
            out[f"{name}.s"] += s["sum"]
            out[f"{name}.n"] += s["count"]
    stats = client.workspace_stats()["workspace"]
    out["surrogate.rows"] = float(stats["surrogate"]["record_rows"])
    return out


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, env, seed: int):
        self.env = env
        self.seed = seed
        self.corners = predict_corners(seed)

    def _reader(self, client, stop_at, out, checks, lock):
        i = 0
        while time.perf_counter() < stop_at:
            corner = self.corners[i % len(self.corners)]
            i += 1
            t0 = time.perf_counter()
            try:
                doc = client.predict(WRITE_DESIGN, corner)
            except Exception as exc:          # noqa: BLE001 — counted
                with lock:
                    checks.op(False, f"predict {corner}: {exc!r}")
                continue
            t1 = time.perf_counter()
            ok = ("prediction" in doc and "uncertainty" in doc
                  and all(math.isfinite(v)
                          for v in doc["prediction"].values()))
            with lock:
                checks.op(ok, f"predict {corner}: incomplete answer")
                out["reads"].append(t1 - t0)
                if t1 <= stop_at:
                    out["reads_in_window"] += 1
                    out["last_reads"] = t1

    def wait_end(self, client, job_id) -> str:
        """Block on the job's event stream until its ``end`` event."""
        for event in client.events(job_id, stream=True):
            if event["event"] == "end":
                return event["data"]["state"]
        return "stream closed without end"

    def _writer(self, client, k, stop_at, out, checks, lock):
        """Keep IN_FLIGHT distinct writes in flight until ``stop_at``.

        The writer blocks on the oldest write's event stream. Both
        server workers race for the execution lock, so a later write can
        end first: after each stream ends, the writer asks for the other
        writes' states and retires every finished one, so its slot is
        refilled at once. Write latencies are taken after the window
        from the server's finish times (``check_jobs``), not from when
        the writer learned of them."""
        from repro.serve.jobs import JobState
        in_flight, docs = [], {}
        last_done = None

        def retire(job_id, state):
            nonlocal last_done
            with lock:
                checks.op(state == "succeeded", f"{job_id}: {state}")
            if state == "succeeded":
                last_done = docs[job_id]

        while True:
            while len(in_flight) < IN_FLIGHT \
                    and time.perf_counter() < stop_at:
                resubmit = k % DUPLICATE_EVERY == DUPLICATE_EVERY - 1 \
                    and last_done is not None
                doc = last_done if resubmit else \
                    write_document(self.seed, k)
                k += 1
                submitted = time.time()
                try:
                    job = client.submit(doc)
                except Exception as exc:      # noqa: BLE001 — counted
                    with lock:
                        checks.op(False, f"submit: {exc!r}")
                    continue
                if resubmit:
                    # A duplicate is answered at admission.
                    with lock:
                        out["duplicates"] += 1
                        checks.op(job["state"] == "succeeded"
                                  and bool(job["coalesced_with"]),
                                  f"resubmission {job['job_id']} was "
                                  f"{job['state']}, not a duplicate")
                else:
                    in_flight.append(job["job_id"])
                    docs[job["job_id"]] = doc
                    with lock:
                        out["executed"].append((job["job_id"], submitted))
            if not in_flight:
                out["k_next"] = k
                return
            job_id = in_flight.pop(0)
            try:
                state = self.wait_end(client, job_id)
            except Exception as exc:          # noqa: BLE001 — counted
                state = repr(exc)
            retire(job_id, state)
            for other in list(in_flight):
                try:
                    state = client.job(other)["state"]
                except Exception:             # noqa: BLE001 — streamed next
                    continue
                if state in JobState.TERMINAL:
                    in_flight.remove(other)
                    retire(other, state)

    def window(self, server, seconds: float, k0: int, checks: Checks,
               tracer=None) -> dict:
        """One measured window of reads beside writes: two threads (the
        CPU count), each with at most one connection open."""
        from repro.serve import ServeClient
        if tracer is not None:
            tracer.wrap(ServeClient, "predict", "client.predict")
            tracer.wrap(ServeClient, "submit", "client.submit")
            tracer.wrap(ServeClient, "job", "client.job")
            tracer.wrap(self, "wait_end", "client.wait_end")
        out = {"reads": [], "executed": [], "duplicates": 0,
               "reads_in_window": 0}
        lock = threading.Lock()
        errors = []

        def guarded(target, *args):
            try:
                target(*args)
            except BaseException as exc:      # re-raised after join
                errors.append(exc)

        out["start_wall"] = time.time()
        start = out["last_reads"] = time.perf_counter()
        stop_at = start + seconds
        threads = [
            threading.Thread(target=guarded, args=(
                self._reader, ServeClient(server.url, timeout_s=120.0),
                stop_at, out, checks, lock), name="reader"),
            threading.Thread(target=guarded, args=(
                self._writer, ServeClient(server.url, timeout_s=120.0),
                k0, stop_at, out, checks, lock), name="writer")]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=seconds + 120.0)
                if t.is_alive():
                    raise RuntimeError(f"{t.name} thread did not finish")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if errors:
            raise errors[0]
        out["wall"] = (start, stop_at)
        out["stop_wall"] = out["start_wall"] + seconds
        return out

    def check_jobs(self, client, out: dict, checks: Checks) -> dict:
        """Every executed write did exactly its own fresh work. Sets the
        window's write latencies (submit to the server's finish time)
        and completion rate in ``out``; returns the summed job ledgers
        and engine counts."""
        queued, lock_wait, execute = [], 0.0, 0.0
        misses = chars = evaluations = 0
        out["runs"], done, last = [], 0, out["start_wall"]
        for job_id, submitted in out["executed"]:
            job = client.job(job_id)
            finished = job.get("finished_s", 0.0)
            out["runs"].append(finished - submitted)
            if finished <= out["stop_wall"]:
                done += 1
                last = max(last, finished)
            ledger = job.get("ledger") or {}
            queued.append(ledger.get("queued_s", 0.0))
            lock_wait += ledger.get("lock_wait_s", 0.0)
            execute += ledger.get("execution_s", 0.0)
            report = job.get("report") or {}
            misses += report.get("engine_misses", 0)
            chars += report.get("characterizations", 0)
            evaluations += report.get("evaluations", 0)
            checks.expect(not job.get("coalesced_with")
                          and report.get("engine_misses") == WRITE_CORNERS
                          and report.get("characterizations")
                          == WRITE_CORNERS,
                          f"{job_id}: misses {report.get('engine_misses')}"
                          f" characterizations "
                          f"{report.get('characterizations')}")
        out["done"], out["span"] = done, last - out["start_wall"]
        out["runs_per_s"] = _rate(done, last, out["start_wall"])
        return {
            "serve.queued.p50_s": percentile(queued, 50.0) if queued
            else 0.0,
            "serve.lock_wait.sum_s": lock_wait,
            "serve.execute.sum_s": execute,
            "serve.executed": float(len(out["executed"])),
            "serve.coalesced": float(out["duplicates"]),
            "engine.misses": float(misses),
            "engine.characterizations": float(chars),
            "engine.evaluations": float(evaluations),
            "eda.flows": float(misses),
            # Serial backend without batching: one GNNLibraryBuilder.build
            # per characterized corner.
            "charlib.gnn_build.calls": float(chars)}

    def traced_window(self, server, client, k0: int, seconds: float,
                      checks: Checks) -> tuple:
        """A second window with the client wrapped; per-layer numbers
        from the server's job records, metrics and workspace stats,
        taken as differences over the window (every write of the window
        before it has ended)."""
        before = _server_counters(client)
        tracer = Tracer()
        traced = self.window(server, seconds, k0, checks, tracer)
        after = _server_counters(client)
        delta = {k: after[k] - before[k] for k in after}
        layers = self.check_jobs(client, traced, checks)
        stats = client.workspace_stats()
        counts = engine_counts(stats["engines"].values())
        built = stats["workspace"]      # 0 datasets, 0 models: run checks
        layers.update(dict.fromkeys(NO_DATASET_LAYERS, 0.0))
        layers.update({
            "charlib.gnn_build.s": delta["engine.characterize.s"],
            "eda.flow.s": delta["engine.executor.s"],
            # engine.characterize and engine.executor are the server's
            # only spans inside engine.evaluate_many.
            "engine.evaluate_many.self_s": delta["engine.evaluate_many.s"]
            - delta["engine.characterize.s"] - delta["engine.executor.s"],
            "search.rounds": delta["search.round.n"],
            "search.ask.s": delta["optimizer.ask.s"],
            "search.tell.s": delta["optimizer.tell.s"],
            "surrogate.rows": delta["surrogate.rows"],
            "predict.service.mean_us":
                _ratio(delta["predict_s"], delta["predicts"]) * 1e6,
            "predict.cache_hit_ratio":
                _ratio(delta["hit"], delta["hit"] + delta["miss"]),
            "http.requests.predict": delta["http.requests.predict"],
            "http.requests.runs": delta["http.requests.runs"],
            "api.datasets_built": float(built["datasets_built"]),
            "api.models_trained": float(built["models_trained"]),
            "engine.result_hit_ratio": _ratio(counts["result_hits"],
                                              counts["evaluations"]),
            "engine.library_hit_ratio": _ratio(counts["library_hits"],
                                               counts["library_lookups"]),
            "trace.wall_s": seconds,
            "trace.coverage": tracer.coverage(*traced["wall"]),
            "trace.uncovered": float(len(tracer.uncovered()))})
        return layers, tracer, traced

    def windows(self, server, client, seconds: float, count: int,
                checks: Checks, speedo: Speedometer) -> list:
        """``count`` windows splitting ``seconds``. Each ends with every
        write finished, so the calibration mark after it runs on an idle
        server; the marks on both sides give the window its scale."""
        outs, k = [], 0
        for _ in range(count):
            a = speedo.clock()
            out = self.window(server, seconds / count, k, checks)
            b = speedo.clock()
            speedo.mark(MARK_SLICES)
            self.check_jobs(client, out, checks)
            out["scale"] = speedo.scaled(a, b) / (b - a)
            k = out["k_next"]
            outs.append(out)
        return outs

    def run(self, seconds: float, trace: bool, calibrated: bool) -> dict:
        """One run; times are scaled to the reference host speed when
        ``calibrated`` (over WINDOWS windows), wall seconds otherwise
        (over one window, as the traced window is)."""
        from repro.serve import ServeClient
        checks = Checks()
        # Server and client threads run on every CPU: calibrate on each.
        speedo = Speedometer(calibrated, every_cpu=True)
        setup_s, setup_all, server, setup_wall = measure_setups(
            lambda: Server(self.env), SETUPS[self.name] if calibrated else 1,
            lambda s: s.stop(), speedo)
        result = {"checks": checks, "setup_all": setup_all,
                  "setup_wall": setup_wall}
        try:
            client = ServeClient(server.url, timeout_s=120.0)
            outs = self.windows(server, client, seconds,
                                WINDOWS if calibrated else 1, checks,
                                speedo)
            result["speed"] = speedo.speed()
            reads = [r * o["scale"] for o in outs for r in o["reads"]]
            runs = [r * o["scale"] for o in outs for r in o["runs"]]
            runs_per_s = _ratio(sum(o["done"] for o in outs),
                                sum(o["span"] * o["scale"] for o in outs))
            reads_per_s = _ratio(
                sum(o["reads_in_window"] for o in outs),
                sum((o["last_reads"] - o["wall"][0]) * o["scale"]
                    for o in outs))
            if trace:
                # Same server, later writes: fresh corners again, so the
                # traced window does the same work per write. Overhead is
                # the untraced window's completion rate over the traced.
                layers, tracer, traced = self.traced_window(
                    server, client, outs[-1]["k_next"], seconds, checks)
                layers["trace.overhead"] = _ratio(
                    reads_per_s + runs_per_s,
                    _rate(traced["reads_in_window"], traced["last_reads"],
                          traced["wall"][0]) + traced["runs_per_s"])
                result["layers"] = layers
                result["tracer"] = tracer
            built = client.workspace_stats()["workspace"]
            checks.expect(built["datasets_built"] == 0
                          and built["models_trained"] == 0,
                          f"server built {built['datasets_built']} "
                          f"datasets, trained {built['models_trained']}"
                          f" models")
            tail = READ_TAIL[self.name]
            checks.expect((tail_level(len(reads)) or 0.0) >= tail,
                          f"only {len(reads)} reads: no {tail:g}th "
                          f"percentile")
            result["metrics"] = {
                "setup_s": setup_s,
                "peak_rss_mb": server.peak_rss_mb(),
                "run_p50_s": percentile(runs, 50.0),
                "read_tail_ms": percentile(reads, tail) * 1e3}
            result["samples"] = {
                "runs": dict(summarize(runs), per_s=runs_per_s),
                "reads": dict(summarize(reads), per_s=reads_per_s),
                "duplicates": sum(o["duplicates"] for o in outs),
                "window_scales": [o["scale"] for o in outs]}
        finally:
            server.stop()
        return result
