"""The three benchmark workloads: what each builds, runs and outputs.

Each workload has four steps, all called by ``worker.py`` in a fresh
process:

* ``load()`` imports the layers of ``repro`` the workload calls;
* ``build(seed)`` does the one-time construction before the timed phase;
* ``run(state, spans)`` is the timed phase;
* ``summarize(state, raw)`` runs after the timed phase, untimed and
  untraced.  It returns the simulated outputs the parent checks against
  ``expected.json`` and the work done.

Module-level code imports only the standard library, so ``run.py`` can read
the constants here without loading the program.  See ``README.md`` for why
each workload was chosen and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import statistics
import time

#: The seed selects one of this many input sets.  ``expected.json`` holds
#: the simulated outputs of every one, so any seed can be checked exactly.
INPUT_SETS = 16

#: The paper's geometric-mean MPKI normalised to LRU (Figures 10 and 11).
PAPER_NORMALIZED_MPKI = {
    "DRRIP": 0.915,
    "PDP": 0.902,
    "4-DGIPPR": 0.910,
    "MIN": 0.675,
}


def input_seed(seed: int) -> int:
    return seed % INPUT_SETS


class Figures:
    """The Fig 10/11/13 policy matrix over all 29 synthetic SPEC benchmarks."""

    name = "figures"
    #: ``(label, registry policy, DGIPPR vector set in repro.core.vectors)``:
    #: the union of the Fig 10, 11 and 13 line-ups.
    lineup = [
        ("LRU", "lru", None),
        ("PLRU", "plru", None),
        ("GIPPR", "gippr", None),
        ("2-DGIPPR", "dgippr", "DGIPPR2_WI_VECTORS"),
        ("4-DGIPPR", "dgippr", "DGIPPR4_WI_VECTORS"),
        ("DRRIP", "drrip", None),
        ("PDP", "pdp", None),
        ("MIN", "belady", None),
    ]
    params = {
        "num_sets": 64,
        "assoc": 16,
        "trace_length": 20_000,
        "lineup": [list(entry) for entry in lineup],
        "workers": 0,
    }
    unit = "matrix job (one policy on one simpoint trace)"
    batch = "matrix job"

    def load(self):
        from repro.core import vectors
        from repro.eval import ExperimentConfig, PolicySpec, run_suite
        from repro.workloads.spec import SPEC_BENCHMARKS

        self.vectors = vectors
        self.ExperimentConfig = ExperimentConfig
        self.PolicySpec = PolicySpec
        self.run_suite = run_suite
        self.benchmarks = SPEC_BENCHMARKS

    def build(self, seed: int):
        p = self.params
        specs = [
            self.PolicySpec(label, policy, {
                "ipvs": getattr(self.vectors, vectors)} if vectors else {})
            for label, policy, vectors in self.lineup
        ]
        config = self.ExperimentConfig(
            num_sets=p["num_sets"], assoc=p["assoc"],
            trace_length=p["trace_length"], seed=input_seed(seed),
            apply_env_scale=False,
        )
        return {"specs": specs, "config": config}

    def run(self, state, spans) -> dict:
        specs, config = state["specs"], state["config"]
        with spans.span("eval.run_suite"):
            suite = self.run_suite(
                specs, config=config, workers=self.params["workers"],
                cache=None, progress=False,
            )
        with spans.span("eval.aggregate"):
            normalized = {
                label: suite.geomean_normalized_mpki(label)
                for label in PAPER_NORMALIZED_MPKI
            }
            fitness = {
                s.label: statistics.fmean(suite.speedups(s.label).values())
                for s in specs if s.label not in ("LRU", "MIN")
            }
        return suite, normalized, fitness

    def summarize(self, state, raw) -> dict:
        suite, normalized, fitness = raw
        config = state["config"]
        job_misses = [
            run.misses
            for label in suite.labels
            for bench in suite.benchmarks
            for run in suite.results[label][bench].runs
        ]
        trace_accesses = sum(
            len(bench.trace(i, config.trace_length, config.capacity_blocks,
                            seed=config.seed))
            for bench in self.benchmarks.values()
            for i in range(len(bench.simpoints))
        )
        gap = statistics.fmean(
            abs(normalized[label] - paper)
            for label, paper in PAPER_NORMALIZED_MPKI.items()
        )
        best = max(fitness, key=fitness.get)
        return {
            "accesses": trace_accesses * len(suite.labels),
            "units": len(job_misses),
            "batch_seconds": list(suite.metrics.job_seconds),
            "outputs": {"job_misses": job_misses},
            "quality": {
                "mpki_gap_to_paper": gap,
                "normalized_mpki": normalized,
                "best_fitness": fitness[best],
                "best_label": best,
            },
            "counts": {"eval.cells": len(suite.labels) * len(suite.benchmarks)},
        }


class GA:
    """A GIPPR search: ``evolve_ipv`` over a PLRU-substrate evaluator."""

    name = "ga"
    params = {
        "num_sets": 64,
        "assoc": 16,
        "trace_length": 8_000,
        "trace_seed": 0,
        "substrate": "plru",
        "population": 24,
        "initial_population": 24,
        "generations": 2,
        "workers": 0,
        "surrogate": None,
    }
    unit = "IPV candidate scored (memo hits included)"
    batch = "one evaluate_many call: a generation's candidates"

    def load(self):
        from repro.engine.columnar import BatchSimulator, ColumnarTrace
        from repro.eval import ExperimentConfig
        from repro.ga import FitnessEvaluator, evolve_ipv
        from repro.workloads.spec import SPEC_BENCHMARKS

        self.BatchSimulator = BatchSimulator
        self.ColumnarTrace = ColumnarTrace
        self.ExperimentConfig = ExperimentConfig
        self.FitnessEvaluator = FitnessEvaluator
        self.evolve_ipv = evolve_ipv
        self.benchmarks = SPEC_BENCHMARKS

    def batch_target(self):
        return self.FitnessEvaluator, "evaluate_many"

    def _traces(self, config):
        return [
            trace
            for bench in self.benchmarks.values()
            for trace in bench.traces(config.trace_length,
                                      config.capacity_blocks,
                                      seed=config.seed)
        ]

    def build(self, seed: int):
        p = self.params
        # As in ``repro evolve``: the evaluator's traces come from the fixed
        # trace seed of the default config, and the seed drives the search.
        config = self.ExperimentConfig(
            num_sets=p["num_sets"], assoc=p["assoc"],
            trace_length=p["trace_length"], seed=p["trace_seed"],
            apply_env_scale=False,
        )
        evaluator = self.FitnessEvaluator(None, config=config,
                                          substrate=p["substrate"])
        return {"config": config, "evaluator": evaluator,
                "seed": input_seed(seed)}

    def run(self, state, spans) -> dict:
        p = self.params
        with spans.span("genetic.evolve"):
            result = self.evolve_ipv(
                state["evaluator"],
                population_size=p["population"],
                initial_population_size=p["initial_population"],
                generations=p["generations"],
                seed=state["seed"], workers=p["workers"],
                surrogate=p["surrogate"],
            )
        return result

    def summarize(self, state, result) -> dict:
        accesses_per_candidate = sum(
            len(trace) for trace in self._traces(state["config"])
        )
        return {
            "accesses": result.memo["misses"] * accesses_per_candidate,
            "units": result.evaluations,
            "outputs": {
                "best": list(result.best.entries),
                "best_fitness": result.best_fitness,
                "history": list(result.history),
            },
            "quality": {"best_fitness": result.best_fitness},
            "counts": {"fitness.memo_hit_ratio": result.memo["hit_rate"]},
        }

    def replay_engine(self, state, batch) -> dict:
        """Time one captured generation batch through ``BatchSimulator.run``
        on every workload trace (traced rounds only, after the root span)."""
        config = state["config"]
        traces = [
            self.ColumnarTrace(trace.address_list(), config.num_sets)
            for trace in self._traces(config)
        ]
        simulator = self.BatchSimulator(
            config.num_sets, config.assoc, batch, config.warmup_accesses
        )
        seconds = 0.0
        for trace in traces:
            begin = time.perf_counter()
            simulator.run(trace)
            seconds += time.perf_counter() - begin
        lane_accesses = len(batch) * sum(trace.n for trace in traces)
        return {
            "engine.run_s": seconds,
            "engine.lane_accesses_per_s": lane_accesses / seconds,
        }


class Serving:
    """One replay client in a closed loop over the ``bench_serving`` spec."""

    name = "serving"
    params = {
        "keys": 1 << 15,
        "alpha": 1.2,
        "tenants": 2,
        "churn_per_million": 20_000,
        "flash_phases": 2,
        "flash_share": 0.5,
        "flash_hot_keys": 64,
        "accesses": 8 << 20,
        "num_sets": 1024,
        "assoc": 16,
        "policy": "lru",
        "shards": 2,
        "chunk_accesses": 1 << 16,
    }
    unit = "chunk served (65 536 accesses)"
    batch = "chunk: hand-off to ShardedFrontend.ingest until drain returns"

    def load(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import ServingStream, ShardedFrontend
        from repro.serve.service import resolve_policy_entries
        from repro.serve.telemetry import ServeTelemetry
        from repro.serve.workload import ServingSpec, auto_flash_phases

        self.resolve_policy_entries = resolve_policy_entries
        self.MetricsRegistry = MetricsRegistry
        self.ServingStream = ServingStream
        self.ShardedFrontend = ShardedFrontend
        self.ServeTelemetry = ServeTelemetry
        self.ServingSpec = ServingSpec
        self.auto_flash_phases = auto_flash_phases

    def build(self, seed: int):
        p = self.params
        spec = self.ServingSpec(
            keys=p["keys"], alpha=p["alpha"], tenants=p["tenants"],
            accesses=p["accesses"],
            churn_per_million=p["churn_per_million"],
            phases=self.auto_flash_phases(
                p["accesses"], p["flash_phases"], share=p["flash_share"],
                hot_keys=p["flash_hot_keys"],
            ),
            seed=input_seed(seed),
        )
        telemetry = self.ServeTelemetry(p["shards"])
        _, entries = self.resolve_policy_entries(p["policy"], p["assoc"])
        frontend = self.ShardedFrontend(
            p["num_sets"], p["assoc"], entries, shards=p["shards"],
            engine="auto", telemetry=telemetry,
        )
        return {
            "frontend": frontend,
            "telemetry": telemetry,
            "stream": self.ServingStream(spec),
            "registry": self.MetricsRegistry("repro_serve"),
        }

    def run(self, state, spans) -> dict:
        frontend, telemetry = state["frontend"], state["telemetry"]
        registry = state["registry"]
        chunks = state["stream"].chunks(self.params["chunk_accesses"])
        clock = time.perf_counter
        latencies = []
        offered = 0
        shed = 0
        while True:
            with spans.span("serve.generate"):
                chunk = next(chunks, None)
            if chunk is None:
                break
            offered += len(chunk)
            begin = clock()
            shed += frontend.ingest(chunk)
            frontend.drain()
            latencies.append(clock() - begin)
            telemetry.publish(registry)
        telemetry.finalize()
        telemetry.snapshot()
        return {"offered": offered, "shed": shed, "latencies": latencies}

    def summarize(self, state, raw) -> dict:
        frontend = state["frontend"]
        shards = [r.snapshot() for r in frontend.shard_results()]
        shard_accesses = [s["accesses"] for s in shards]
        return {
            "accesses": raw["offered"],
            "units": len(raw["latencies"]),
            "batch_seconds": raw["latencies"],
            "outputs": {
                "accesses": frontend.accesses,
                "misses": frontend.misses,
                "shard_misses": [s["misses"] for s in shards],
                "shard_accesses": shard_accesses,
            },
            "shed": raw["shed"],
            "counts": {
                "serve.shard_imbalance":
                    max(shard_accesses) / statistics.fmean(shard_accesses),
                "serve.shed_accesses": frontend.shed_accesses,
            },
        }


WORKLOADS = {w.name: w for w in (Figures(), GA(), Serving())}
