"""One STCO benchmark: cold bring-up, warm design sweep, reads beside writes.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cold_stco --seed 1 --seconds 20 \\
        --trace 0

The workloads are described in ``workloads.py``. ``--trace 0`` measures
with nothing installed and prints the end-to-end metrics, their times
scaled to a reference host speed by calibration slices run beside the
work (``speed.py``: the shared host's own speed swings too much for wall
time to compare across runs); ``--trace 1`` runs the workload untraced
and then traced (wrappers from ``layers.py``, spans kept in memory), in
wall seconds, and prints the per-layer metrics, the share of wall time
the spans cover and the overhead (traced / untraced). The
last line of standard output is the result; the line before it carries
the run's context (CPUs, versions, commit, seed, sample counts).

Everything the benchmark writes lives under ``.bench_build/perfbench``
in the checkout: the template workspaces (built once per source tree,
in a subprocess, on the first run), the per-run workspace copies
(deleted at exit) and the trace files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One BLAS thread in this process, its bring-up interpreters and the
# server: the program's matrices are small, and a second BLAS thread
# makes every timing depend on what else holds the other CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: End-to-end metrics (every workload) and their units.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "run_p50_s": "s",
    "read_tail_ms": "ms"}

_COUNT = "count"
#: Per-layer metrics (traced runs) and their units.
PER_LAYER = {
    "spice.transient.calls": _COUNT, "spice.transient.s": "s",
    "spice.steps": _COUNT, "spice.newton.iters": _COUNT,
    "spice.nonconverged": _COUNT, "spice.dc.calls": _COUNT,
    "spice.dc.s": "s",
    "charlib.characterize.calls": _COUNT,
    "charlib.characterize.self_s": "s",
    "charlib.measurements": _COUNT, "charlib.dataset.self_s": "s",
    "charlib.gnn_build.calls": _COUNT, "charlib.gnn_build.s": "s",
    "nn.train.s": "s", "nn.train.epochs": _COUNT,
    "api.dataset.s": "s", "api.model.s": "s",
    "api.datasets_built": _COUNT, "api.models_trained": _COUNT,
    "engine.evaluations": _COUNT, "engine.misses": _COUNT,
    "engine.characterizations": _COUNT,
    "engine.result_hit_ratio": "ratio",
    "engine.library_hit_ratio": "ratio",
    "engine.evaluate_many.self_s": "s",
    "eda.flows": _COUNT, "eda.flow.s": "s", "eda.netlist.s": "s",
    "eda.synthesis.s": "s", "eda.placement.s": "s",
    "eda.routing.s": "s", "eda.sta.s": "s", "eda.power.s": "s",
    "eda.drc_lvs.s": "s",
    "search.rounds": _COUNT, "search.ask.s": "s", "search.tell.s": "s",
    "surrogate.fit.calls": _COUNT, "surrogate.fit.s": "s",
    "surrogate.rows": _COUNT,
    "serve.queued.p50_s": "s", "serve.lock_wait.sum_s": "s",
    "serve.execute.sum_s": "s", "serve.executed": _COUNT,
    "serve.coalesced": _COUNT,
    "predict.service.mean_us": "us", "predict.cache_hit_ratio": "ratio",
    "http.requests.predict": _COUNT, "http.requests.runs": _COUNT,
    "trace.wall_s": "s", "trace.coverage": "ratio",
    "trace.overhead": "ratio", "trace.uncovered": _COUNT,
    "trace.unobserved": _COUNT}


def source_hash(root: Path) -> str:
    """Content hash of the program and of what the templates are built
    from: a template is reused only for the exact same inputs."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py"))
    files += [HERE / "templates.py", HERE / "quickstart.json"]
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` in the checkout (None outside a
    repository); never looks above the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Env:
    """The checkout, its state directory and this run's scratch space."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.state = root / ".bench_build" / "perfbench"
        self.key = source_hash(root)
        self.templates = self.state / "templates" / self.key
        self.scratch = self.state / "runs" / str(os.getpid())
        self._copies = 0

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(self.scratch / "tmp")
        return env

    def ensure_templates(self) -> None:
        if (self.templates / ".done").exists():
            return
        parent = self.templates.parent
        if parent.exists():              # templates of other sources
            shutil.rmtree(parent)
        building = parent / f".building-{os.getpid()}"
        building.mkdir(parents=True)
        print("building template workspaces (first run in this "
              "checkout)", file=sys.stderr, flush=True)
        subprocess.run([sys.executable, str(HERE / "templates.py"),
                        str(building)], check=True, env=self.child_env(),
                       cwd=str(self.root), stdout=sys.stderr)
        (building / ".done").touch()
        building.rename(self.templates)

    def fresh_copy(self, template: str) -> Path:
        self._copies += 1
        dest = self.scratch / f"{template}-{self._copies}"
        shutil.copytree(self.templates / template, dest)
        return dest


def context(env: Env, args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(env.root),
            "source_hash": env.key}


def _run_workload(env: Env, args, trace: bool) -> dict:
    """One run. End-to-end runs (``--trace 0``) are calibrated; both
    halves of a traced pair time wall seconds, so they compare."""
    import workloads
    calibrated = not args.trace
    if args.workload == "serve_mixed":
        return workloads.ServeMixed(env, args.seed).run(
            args.seconds, trace, calibrated)
    return workloads.InProcess(env, args.workload, args.seed).run(
        trace, calibrated)


def measure(env: Env, args) -> tuple:
    """(metrics, checks, extra) for the requested mode."""
    checks = []
    if args.trace and args.workload != "serve_mixed":
        # The untraced twin of the traced run, for the overhead ratio. It
        # goes first, so whatever a second run in one process pays (a
        # larger heap to collect) lands on the traced side.
        plain = _run_workload(env, args, trace=False)
        checks.append(plain["checks"])
        plain_wall = plain["write_wall"]
        del plain
        gc.collect()
    result = _run_workload(env, args, trace=bool(args.trace))
    checks.append(result["checks"])
    extra = {"samples": result.get("samples"),
             "speed": result.get("speed"),
             "setup_all_s": result.get("setup_all"),
             "setup_wall_s": result.get("setup_wall"),
             "counts": result.get("counts"), "best": result.get("best")}
    if not args.trace:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        return metrics, checks, extra
    layers = dict(result["layers"])
    if args.workload != "serve_mixed":
        layers["trace.overhead"] = layers["trace.wall_s"] / plain_wall
    # Layers the workload has no source for (the server on the
    # in-process workloads; the server's netlist, EDA-stage and
    # surrogate-fit times on serve_mixed) are counted and named as
    # unobserved. The result line needs a number for every metric, so
    # they print 0 there; "trace.unobserved" says how many of the zeros
    # are not measurements.
    tracer = result["tracer"]
    unobserved = sorted(set(PER_LAYER) - set(layers) - {"trace.unobserved"})
    layers["trace.unobserved"] = float(len(unobserved))
    extra.update(layers=tracer.layers(), uncovered=tracer.uncovered(),
                 unobserved=unobserved)
    traces = env.state / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"context": context(env, args), "metrics": layers,
                    "counts": dict(tracer.counts),
                    "layers": extra["layers"],
                    "uncovered": extra["uncovered"],
                    "unobserved": unobserved,
                    "spans": tracer.dump()}))
    metrics = {name: {"value": float(layers.get(name, 0.0)),
                      "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, checks, extra


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of serve_mixed's measured window; "
                             "the in-process workloads do fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = Env(root)
    env.ensure_templates()
    if args.workload != "serve_mixed":
        # The in-process program is single-threaded: keep it, its
        # bring-up interpreters and the calibration slices on one CPU, as
        # a shared VM's CPUs slow down separately (speed.py).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    (env.scratch / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(env.scratch / "tmp")
    try:
        metrics, checks, extra = measure(env, args)
    finally:
        shutil.rmtree(env.scratch, ignore_errors=True)
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        for reason in c.reasons[:20]:
            print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"context": context(env, args), **extra}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
