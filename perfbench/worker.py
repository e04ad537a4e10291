"""One round of one benchmark workload, in a fresh process.

``run.py`` starts this script once per round so that every round starts
cold: the trace, workload, baseline and ColumnarTrace memos and the kernel
table cache are empty, as on a user's first run.

    python3 perfbench/worker.py --workload ga --seed 3 --mode run --trace 0

``--mode setup`` stops after construction (a set-up time sample);
``--mode run`` also runs the timed phase.  ``--trace 1`` wraps every
layer's public calls in spans and reports per-layer times.  The last line
of standard output is one JSON object describing the round.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import BatchTimer, LayerHooks, Spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _NoSpans:
    """Untraced rounds: every span is a no-op."""

    def span(self, name):
        return nullcontext()


#: Per-layer time metrics and the span whose self time each one is.  With
#: ``unattributed_s`` (the self time of the workload's root span) they add
#: up to ``traced_wall_s``.
SELF_TIME_METRICS = {
    "workloads.trace_s": "workloads.trace",
    "policies.make_s": "policies.make",
    "runner.ipv_s": "runner.ipv",
    "runner.other_s": "runner.other",
    "eval.aggregate_s": "eval.aggregate",
    "eval.matrix_overhead_s": "eval.run_suite",
    "fitness.init_s": "fitness.init",
    "fitness.evaluate_many_s": "fitness.evaluate_many",
    "genetic.breed_s": "genetic.evolve",
    "engine.transpose_s": "engine.transpose",
    "serve.generate_s": "serve.generate",
    "serve.bin_s": "serve.bin",
    "serve.engine_s": "serve.engine",
    "serve.telemetry_s": "serve.telemetry",
}


def layer_metrics(name: str, spans: Spans, hooks: LayerHooks,
                  summary: dict) -> dict:
    """Per-layer metrics of one traced round, from its spans and counts."""
    totals = spans.totals()
    empty = {"self": 0.0, "inclusive": 0.0}
    metrics = {
        metric: totals.get(span, empty)["self"]
        for metric, span in SELF_TIME_METRICS.items()
    }

    def rate(work, span):
        seconds = totals.get(span, empty)["inclusive"]
        return work / seconds if seconds > 0 else 0.0

    drained = summary["outputs"]["accesses"] if name == "serving" else 0
    metrics.update({
        "runner.ipv_accesses_per_s":
            rate(hooks.runner_accesses["runner.ipv"], "runner.ipv"),
        "runner.other_accesses_per_s":
            rate(hooks.runner_accesses["runner.other"], "runner.other"),
        "serve.engine_accesses_per_s": rate(drained, "serve.engine"),
        "fitness.batches": hooks.evaluate_batches,
        "unattributed_s": totals[name]["self"],
        "traced_wall_s": totals[name]["inclusive"],
    })
    metrics.update(summary["counts"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workload.load()
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"repro was imported from {source}, not {ROOT / 'src'}")
    from repro.kernels import kernel_counters, numpy_or_none

    traced = args.trace == 1
    spans = Spans() if traced else _NoSpans()
    hooks = LayerHooks(spans).install() if traced else None
    target = getattr(workload, "batch_target", None)
    timer = BatchTimer(*target()) if target and args.mode == "run" else None

    t_loaded = time.perf_counter()
    with spans.span(workload.name):
        state = workload.build(args.seed)
        t_setup = time.perf_counter()
        raw = workload.run(state, spans) if args.mode == "run" else None
    t_end = time.perf_counter()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters = kernel_counters()
    if timer is not None:
        timer.restore()
    if hooks is not None:
        hooks.restore()

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "trace": args.trace,
        "setup_s": t_setup - T_START,
        "numpy": getattr(numpy_or_none(), "__version__", None),
    }
    if raw is not None:
        summary = workload.summarize(state, raw)
        if timer is not None:
            summary["batch_seconds"] = timer.seconds
        lookups = counters["cache_hits"] + counters["cache_misses"]
        summary["counts"].update({
            "kernels.compiles": counters["compiles"],
            "kernels.compile_s": counters["compile_seconds"],
            "kernels.cache_hit_ratio":
                counters["cache_hits"] / lookups if lookups else 0.0,
        })
        report.update(summary)
        report["timed_s"] = t_end - t_setup
        report["wall_s"] = t_end - t_loaded
        report["rss_mib"] = rss_mib
        if traced:
            report["layers"] = layer_metrics(workload.name, spans, hooks,
                                             summary)
            replay = getattr(workload, "replay_engine", None)
            if replay is not None and hooks.captured_batch:
                report["layers"].update(replay(state, hooks.captured_batch))
            if args.spans_out:
                spans.write(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
