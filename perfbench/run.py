"""Benchmark entry point: figure matrix, GA search and serving run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout.  Each round runs in a fresh
``worker.py`` process, so every round starts cold.  The parent repeats
rounds of the same inputs until ``--seconds`` would be exceeded (at least
one), checks every round's simulated outputs against ``expected.json``,
and prints the medians.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer split of the median traced round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a full
result record (metrics, rounds and provenance) are written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, input_seed  # noqa: E402

#: ``(name, unit)`` of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = [
    ("setup_s", "s"),
    ("accesses_per_s", "1/s"),
    ("candidates_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
]

#: ``(name, unit)`` of every per-layer metric, reported with ``--trace 1``.
#: A workload that never calls a layer reports 0 for it.
PER_LAYER = [
    ("workloads.trace_s", "s"),
    ("policies.make_s", "s"),
    ("runner.ipv_s", "s"),
    ("runner.ipv_accesses_per_s", "1/s"),
    ("runner.other_s", "s"),
    ("runner.other_accesses_per_s", "1/s"),
    ("eval.aggregate_s", "s"),
    ("eval.matrix_overhead_s", "s"),
    ("eval.cells", "count"),
    ("kernels.compiles", "count"),
    ("kernels.compile_s", "s"),
    ("kernels.cache_hit_ratio", "ratio"),
    ("fitness.init_s", "s"),
    ("fitness.evaluate_many_s", "s"),
    ("fitness.batches", "count"),
    ("fitness.memo_hit_ratio", "ratio"),
    ("genetic.breed_s", "s"),
    ("engine.transpose_s", "s"),
    ("engine.run_s", "s"),
    ("engine.lane_accesses_per_s", "1/s"),
    ("serve.generate_s", "s"),
    ("serve.bin_s", "s"),
    ("serve.engine_s", "s"),
    ("serve.engine_accesses_per_s", "1/s"),
    ("serve.telemetry_s", "s"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.shed_accesses", "count"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("tracing_overhead_s", "s"),
]

#: Simulated figures printed beside the speeds.  They are not in
#: ``metrics``: each exists on one workload only, and ``expected.json``
#: already pins the outputs they are computed from.
QUALITY_UNITS = {"mpki_gap_to_paper": "ratio", "best_fitness": "ratio"}

#: Set-up-only processes an untraced run starts before its rounds; with the
#: rounds' own set-up that makes at least three samples for ``setup_s``.
SETUP_ONLY = 2
#: No round starts when it would be expected to end later than this many
#: seconds after the run started; one child is killed at ``KILL_AFTER``.
LAST_ROUND_END = 150.0
KILL_AFTER = 170.0

OUT_DIR = ".perfbench"


class RunFailed(Exception):
    pass


def scrubbed_env():
    """The environment for the workers, minus every ``REPRO_*`` variable.

    Those variables change trace scale, worker counts, the result cache,
    columnar batching and status files; the benchmark runs without them
    and records what it removed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    removed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    return env, removed


class Runner:
    def __init__(self, workload: str, seed: int, env: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.started = time.monotonic()
        self.out_dir = ROOT / OUT_DIR
        self.out_dir.mkdir(exist_ok=True)
        self.children = 0

    def child(self, mode: str, trace: int) -> dict:
        args = [sys.executable, str(HERE / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode, "--trace", str(trace)]
        if trace:
            spans = self.out_dir / (
                f"spans-{self.workload}-s{self.seed}-{self.children}.json"
            )
            args += ["--spans-out", str(spans)]
        self.children += 1
        remaining = KILL_AFTER - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                args, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=max(1.0, remaining),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"worker exceeded the time limit: {exc}") from exc
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def run_rounds(runner: Runner, seconds: int, traced: bool):
    """Rounds until the next one would overrun ``seconds``.

    Untraced runs take set-up samples first.  Traced runs alternate
    untraced and traced rounds and need at least one of each.
    """
    setups = []
    if not traced:
        for _ in range(SETUP_ONLY):
            setups.append(runner.child("setup", 0)["setup_s"])
    rounds = []
    durations = []
    began = time.monotonic()
    while True:
        trace = len(rounds) % 2 if traced else 0
        start = time.monotonic()
        rounds.append(runner.child("run", trace))
        durations.append(time.monotonic() - start)
        estimate = statistics.median(durations)
        need = traced and len(rounds) < 2
        if runner.elapsed() + estimate > LAST_ROUND_END:
            if need:
                raise RunFailed("no time left for a traced round")
            break
        if not need and time.monotonic() - began + estimate > seconds:
            break
    if not traced:
        setups += [r["setup_s"] for r in rounds]
    return setups, rounds


def check_round(workload: str, r: dict, want) -> tuple:
    """``(attempted, failed)`` operations of one round.

    ``want`` is the round's entry in ``expected.json``, or ``None`` when
    there is none to compare with; then every operation fails.
    """
    out = r["outputs"]
    if workload == "figures":
        got = out["job_misses"]
        if want is None:
            return len(got), len(got)
        ref = want["job_misses"]
        return len(got), (sum(a != b for a, b in zip(got, ref))
                          + abs(len(got) - len(ref)))
    if workload == "ga":
        return r["units"], 0 if out == want else r["units"]
    offered = r["accesses"]
    if want is None or out["accesses"] != want["accesses"]:
        return offered, offered
    wrong = sum(
        accesses
        for accesses, misses, ref in zip(out["shard_accesses"],
                                         out["shard_misses"],
                                         want["shard_misses"])
        if misses != ref
    )
    return offered, min(offered, wrong + r["shed"])


def check(workload: str, rounds, expected: dict):
    """``(attempted, failed, notes)`` over every round's outputs."""
    table = expected.get(workload, {})
    notes = []
    want = table.get("inputs", {}).get(str(input_seed(rounds[0]["seed"])))
    if table.get("params") != WORKLOADS[workload].params:
        notes.append("expected.json was made with other workload parameters")
        want = None
    attempted = failed = 0
    for r in rounds:
        tried, bad = check_round(workload, r, want)
        attempted += tried
        failed += bad
    if failed:
        notes.append(f"{failed} of {attempted} operations failed the check")
    return attempted, failed, notes


def end_to_end(setups, rounds) -> dict:
    batches = [s for r in rounds for s in r["batch_seconds"]]
    if len(batches) < 2:
        raise RunFailed("too few batches for latency quantiles")
    deciles = statistics.quantiles(batches, n=10)
    values = {
        "setup_s": statistics.median(setups),
        "accesses_per_s": statistics.median(
            r["accesses"] / r["timed_s"] for r in rounds),
        "candidates_per_s": statistics.median(
            r["units"] / r["timed_s"] for r in rounds),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in rounds),
        "batch_p50_ms": 1e3 * statistics.median(batches),
        "batch_p90_ms": 1e3 * deciles[8],
    }
    extra = {
        "batches": len(batches),
        "batches_above_p90": sum(s > deciles[8] for s in batches),
    }
    return values, extra


def per_layer(workload: str, rounds) -> dict:
    traced = sorted((r for r in rounds if r["trace"] == 1),
                    key=lambda r: r["wall_s"])
    untraced = [r["wall_s"] for r in rounds if r["trace"] == 0]
    chosen = traced[(len(traced) - 1) // 2]
    values = {name: chosen["layers"].get(name, 0.0) for name, _ in PER_LAYER}
    values["tracing_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(untraced)
    )
    return values


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    files = sorted(
        list((ROOT / "src").rglob("*.py")) + list((ROOT / "src").rglob("*.json"))
        + [p for p in HERE.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, removed_env, rounds) -> dict:
    """Host fingerprint and code identity recorded with every result."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    in_git = _git("rev-parse", "--show-toplevel")
    is_root = in_git is not None and Path(in_git).resolve() == ROOT.resolve()
    status = _git("status", "--porcelain") if is_root else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": rounds[0].get("numpy"),
        "git_revision": _git("rev-parse", "HEAD") if is_root else None,
        "git_dirty": bool(status) if status is not None else None,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed(args.seed),
        "params": WORKLOADS[args.workload].params,
        "seconds": args.seconds,
        "removed_env": removed_env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    env, removed = scrubbed_env()
    # Byte-compile once so that no round pays for it in its set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    str(HERE.relative_to(ROOT))],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    runner = Runner(args.workload, args.seed, env)
    try:
        setups, rounds = run_rounds(runner, args.seconds, args.trace == 1)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    with open(HERE / "expected.json") as handle:
        expected = json.load(handle)
    attempted, failed, notes = check(args.workload, rounds, expected)
    units = dict(END_TO_END + PER_LAYER)
    if args.trace:
        values, extra = per_layer(args.workload, rounds), {}
    else:
        try:
            values, extra = end_to_end(setups, rounds)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }
    workload = WORKLOADS[args.workload]
    quality = rounds[0].get("quality", {})
    record = {
        "metrics": metrics,
        "quality": quality,
        "rounds": len(rounds),
        "setup_samples": setups,
        "round_timed_s": [r["timed_s"] for r in rounds],
        "unit": workload.unit,
        "batch": workload.batch,
        "cache_start": "empty",
        "provenance": provenance(args, removed, rounds),
        **extra,
    }
    path = runner.out_dir / (
        f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    print(f"workload {args.workload}: {len(rounds)} rounds, seed {args.seed} "
          f"(input set {input_seed(args.seed)}), caches start empty")
    print(f"  unit: {workload.unit}; batch: {workload.batch}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in quality.items():
        if name in QUALITY_UNITS:
            print(f"  {name} = {value:.6g} {QUALITY_UNITS[name]} (simulated; "
                  "checked exactly through the outputs)")
    for note in notes:
        print(f"  check: {note}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
