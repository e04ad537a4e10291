"""Self-tests of the benchmark: metric lists, span accounting, attribution.

    python3 -m pytest perfbench/tests -q

Each traced round runs in its own process through ``worker.main``, with the
workload shrunk so that a round takes a second or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from worker import SELF_TIME_METRICS  # noqa: E402

SMALL = {
    "serving": {"accesses": 2 << 20},
    "figures": {"trace_length": 2_000},
}

_ROUND = """
import sys, time
sys.path.insert(0, {here!r})
import importlib
import worker
from workloads import WORKLOADS
WORKLOADS[{workload!r}].params.update({params!r})
if {target!r}:
    module, owner, attr = {target!r}
    owner = getattr(importlib.import_module(module), owner) if owner \\
        else importlib.import_module(module)
    original = owner.__dict__[attr]
    def delayed(*args, **kwargs):
        time.sleep({delay!r})
        return original(*args, **kwargs)
    setattr(owner, attr, delayed)
sys.exit(worker.main({argv!r}))
"""


def traced_round(workload, target=None, delay=0.0):
    """One traced round of a shrunk workload, optionally with ``delay``
    seconds slept before every call to ``target`` (module, class, attr)."""
    code = _ROUND.format(
        here=str(HERE), workload=workload, params=SMALL[workload],
        target=target, delay=delay,
        argv=["--workload", workload, "--seed", "1", "--trace", "1"],
    )
    env, _ = run.scrubbed_env()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(SELF_TIME_METRICS) <= {name for name, _ in run.PER_LAYER}


def test_layer_self_times_account_for_the_traced_wall():
    report = traced_round("serving")
    layers = report["layers"]
    assert set(layers) <= {name for name, _ in run.PER_LAYER}
    covered = sum(layers[m] for m in SELF_TIME_METRICS)
    covered += layers["unattributed_s"]
    assert covered == pytest.approx(layers["traced_wall_s"], rel=1e-9)
    assert layers["serve.bin_s"] > 0 and layers["serve.engine_s"] > 0


@pytest.mark.parametrize("workload,metric,target", [
    ("serving", "serve.bin_s",
     ("repro.serve.frontend", "ShardedFrontend", "ingest")),
    ("figures", "policies.make_s",
     ("repro.eval.parallel", None, "make_policy")),
])
def test_injected_delay_is_attributed_to_that_layer_only(
        workload, metric, target):
    """A 2x slowdown of one layer shows in that layer's metric alone.

    The host can change speed between the two rounds, so the baseline is
    first scaled by how much the other layers together sped up or slowed.
    """
    report = traced_round(workload)
    base = report["layers"]
    injected = base[metric]
    slowed = traced_round(workload, target,
                          delay=injected / report["units"])["layers"]
    others = [name for name in list(SELF_TIME_METRICS) + ["unattributed_s"]
              if name != metric]
    speed = sum(slowed[n] for n in others) / sum(base[n] for n in others)
    assert slowed[metric] - speed * base[metric] > 0.6 * injected
    for name in others:
        delta = slowed[name] - speed * base[name]
        tolerance = max(0.3 * base[name], 0.25 * injected)
        assert abs(delta) <= tolerance, (name, delta, tolerance)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
