"""Flow outputs are the same in every interpreter, whatever its hash seed.

String hashing is salted per process (``PYTHONHASHSEED``), so any flow
stage that iterates a set of net or instance names can reorder a float
sum between processes. Each seed below runs in its own interpreter.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import dataclasses, json
from repro.eda import benchmark_names, build_benchmark, evaluate_system
from tests.eda.flow_fixtures import make_library
lib = make_library()
out = {}
for name in benchmark_names():
    result = evaluate_system(build_benchmark(name), lib)
    out[name] = {f.name: repr(getattr(result, f.name))
                 for f in dataclasses.fields(result)
                 if f.name != "stage_runtimes_s"}
    out[name]["stages"] = list(result.stage_runtimes_s)
print(json.dumps(out))
"""


def _run(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_flow_outputs_independent_of_hash_seed():
    runs = [_run(seed) for seed in (0, 1, 2)]
    assert len(runs[0]) == 10
    from repro.eda import SystemResult
    compared = {f.name for f in dataclasses.fields(SystemResult)} - {
        "stage_runtimes_s"}
    assert set(runs[0]["s526"]) == compared | {"stages"}
    for other in runs[1:]:
        for design, fields in runs[0].items():
            assert other[design] == fields, design
