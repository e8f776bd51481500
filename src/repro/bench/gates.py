"""Gated microbenchmarks: the committed ``BENCH_<scenario>.json`` reports.

Three claims of the paper's evaluation (§7) are gated in CI, each as one
scenario of a single runner:

* ``parallel`` — partitions overlap their work (Fig. 12). PageRank at
  the highest worker count must reach ``min_speedup`` × the sequential
  run under latency realism (``io_latency_scale``), where every
  simulated disk/network transfer blocks for the cost model's seconds in
  every mode. Sequential execution pays those waits serially and the
  thread pool overlaps them: the effect a real cluster's concurrent NICs
  and disks produce, not a GIL artifact.
* ``elastic`` — a superstep-boundary handoff is cheap. Scaling up and
  down at ``scale_superstep`` must each rebalance, and each run's time
  inside ``cluster.rebalance`` (the checkpoint/restore handoff, as
  recorded by ``StatisticsCollector.record_rebalance``) must stay within
  ``max_overhead`` × the static run's average superstep: joining or
  retiring a node costs about one superstep of progress, not a reload.
* ``batch`` — shared supersteps amortize the join and group-by. Eight
  sssp point queries run as lanes of one
  :class:`~repro.pregelix.multiquery.MultiQueryProgram` must reach
  ``min_speedup`` × the same queries run back to back, at every worker
  count.

The runner owns what the scenarios share. Every run loads the same
``btc_graph`` onto a fresh cluster; each variant keeps the best of
``repeats`` runs and raises if two repeats disagree; every variant's
output must be bit-identical to the first variant's (one ``(budget,
group-by, connector)`` class, DESIGN.md §13), and the verdict is that
plus the scenario's gate. A scenario supplies only its fixed config, its
variants and its gate.
"""

import json
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Scenario:
    """One gated claim; :func:`run` does the measuring and judging."""

    #: The committed configuration (tests pass smaller ones to :func:`run`).
    config: dict
    #: ``config -> [(name, run)]``, reference first; each ``run(config)``
    #: returns ``(seconds, output, metrics)`` for one fresh run.
    variants: Callable
    #: ``(config, rows by variant name) -> [check]``, built by :func:`_check`.
    gate: Callable


@contextmanager
def _loaded(config, parallelism=1, virtual_partitions=None):
    """A fresh cluster with the scenario's graph at ``/in/g``; yields its driver."""
    from repro.graphs.generators import btc_graph
    from repro.graphs.io import write_graph_to_dfs
    from repro.hdfs import MiniDFS
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix.runtime import PregelixDriver

    cluster = HyracksCluster(
        num_nodes=config["nodes"],
        parallelism=parallelism,
        io_latency_scale=config["io_latency_scale"],
        virtual_partitions=virtual_partitions,
    )
    try:
        dfs = MiniDFS(datanodes=cluster.node_ids())
        write_graph_to_dfs(
            dfs, "/in/g",
            iter(btc_graph(config["vertices"], seed=config["graph_seed"])),
            num_files=config["nodes"],
        )
        yield PregelixDriver(cluster, dfs)
    finally:
        cluster.close()


def _pagerank(parallelism=1, scale_at=None, virtual_partitions=None):
    """A variant: one PageRank run, compared by its sorted output lines."""

    def run(config):
        from repro.algorithms import pagerank

        with _loaded(config, parallelism, virtual_partitions) as driver:
            job = pagerank.build_job(iterations=config["iterations"])
            started = time.perf_counter()
            outcome = driver.run(job, "/in/g", output_path="/out/r",
                                 scale_at=dict(scale_at) if scale_at else None)
            seconds = time.perf_counter() - started
            lines = tuple(sorted(driver.read_output("/out/r")))
        rebalances = outcome.stats.rebalances
        return seconds, lines, {
            "supersteps": outcome.supersteps,
            "avg_superstep_seconds": round(outcome.avg_iteration_seconds, 6),
            "rebalances": [
                {"superstep": step, "seconds": round(spent, 6),
                 "moved_partitions": moved}
                for step, spent, moved in rebalances
            ],
            "rebalance_seconds": round(
                sum(spent for _, spent, _ in rebalances), 6
            ),
        }

    return run


def _solo(parallelism):
    """A variant: the sssp queries back to back, compared by result digest."""

    def run(config):
        from repro.algorithms import sssp
        from repro.serve.api import result_document
        from repro.serve.cache import result_digest

        docs = []
        with _loaded(config, parallelism) as driver:
            started = time.perf_counter()
            for index, source in enumerate(config["sources"]):
                job = sssp.build_job(source_id=source)
                out = "/out/solo-%d" % index
                outcome = driver.run(
                    job, "/in/g", output_path=out,
                    parse_line=getattr(sssp, "parse_line", None),
                    format_record=getattr(sssp, "format_record", None),
                )
                docs.append(result_document(
                    "sssp", job, outcome, results=driver.read_output(out)
                ))
            seconds = time.perf_counter() - started
        return seconds, tuple(result_digest(doc) for doc in docs), {
            "queries_per_sec": round(len(docs) / seconds, 3),
        }

    return run


def _batched(parallelism):
    """A variant: the sssp queries as lanes of one shared run."""

    def run(config):
        from repro.algorithms import sssp
        from repro.pregelix.multiquery import MultiQueryProgram
        from repro.serve.cache import result_digest

        sources = config["sources"]
        program = MultiQueryProgram(
            sssp, [{"source_id": source} for source in sources]
        )
        with _loaded(config, parallelism) as driver:
            started = time.perf_counter()
            outcome, lane_lines = program.run(driver, "/in/g", "/out/batched")
            seconds = time.perf_counter() - started
        digests = tuple(
            result_digest(program.lane_document(
                lane, "sssp", outcome, lane_lines[lane]
            ))
            for lane in range(len(sources))
        )
        return seconds, digests, {
            "queries_per_sec": round(len(sources) / seconds, 3),
        }

    return run


_OPS = {">=": operator.ge, "<=": operator.le}


def _check(row, measure, value, op, limit):
    """One gate condition on one variant's row."""
    return {
        "variant": row["variant"],
        "measure": measure,
        "value": round(value, 3),
        "op": op,
        "limit": limit,
        "ok": _OPS[op](value, limit),
    }


def _worker_counts(config):
    return sorted(set(int(w) for w in config["workers"]))


def _parallel_variants(config):
    return [("sequential", _pagerank())] + [
        ("parallel-%d" % count, _pagerank(parallelism=count))
        for count in _worker_counts(config) if count > 1
    ]


def _parallel_gate(config, rows):
    sequential, *parallel = rows.values()
    return [
        _check(top, "speedup", sequential["seconds"] / top["seconds"], ">=",
               config["min_speedup"])
        for top in parallel[-1:]
    ]


def _elastic_variants(config):
    nodes = config["nodes"]
    # Over-decomposition (2 partitions per initial node) keeps the
    # partition count, and so hash(vertex) % partitions, fixed across
    # resizes and gives a joining node a deterministic share to take over.
    partitions = 2 * nodes
    variants = [("static", _pagerank(virtual_partitions=partitions))]
    for name, target in (("scale-up", nodes + 1), ("scale-down", nodes - 1)):
        if target >= 1:
            variants.append((name, _pagerank(
                scale_at={config["scale_superstep"]: target},
                virtual_partitions=partitions,
            )))
    return variants


def _elastic_gate(config, rows):
    static, *elastic = rows.values()
    checks = []
    for row in elastic:
        checks.append(_check(row, "rebalances", len(row["rebalances"]), ">=", 1))
        checks.append(_check(
            row, "handoff_vs_superstep",
            row["rebalance_seconds"] / static["avg_superstep_seconds"],
            "<=", config["max_overhead"],
        ))
    return checks


def _batch_variants(config):
    return [
        (name % count, variant(count))
        for count in _worker_counts(config)
        for name, variant in (("solo-%d", _solo), ("batched-%d", _batched))
    ]


def _batch_gate(config, rows):
    return [
        _check(rows["batched-%d" % count], "speedup",
               rows["solo-%d" % count]["seconds"]
               / rows["batched-%d" % count]["seconds"],
               ">=", config["min_speedup"])
        for count in _worker_counts(config)
    ]


SCENARIOS = {
    "parallel": Scenario(
        config={
            "vertices": 1200,
            "iterations": 4,
            "nodes": 4,
            "io_latency_scale": 400.0,
            "graph_seed": 3,
            "workers": [2, 4],
            "repeats": 2,
            "min_speedup": 1.5,
        },
        variants=_parallel_variants,
        gate=_parallel_gate,
    ),
    "elastic": Scenario(
        config={
            "vertices": 600,
            "iterations": 6,
            "nodes": 3,
            "io_latency_scale": 200.0,
            "graph_seed": 3,
            "repeats": 2,
            "scale_superstep": 3,
            "max_overhead": 1.0,
        },
        variants=_elastic_variants,
        gate=_elastic_gate,
    ),
    "batch": Scenario(
        config={
            "sources": [0, 17, 42, 99, 140, 203, 271, 333],
            "vertices": 360,
            "nodes": 3,
            "graph_seed": 9,
            "repeats": 2,
            "min_speedup": 2.0,
            # Latency realism is off: byte-proportional sleeps charge
            # message traffic (which batching cannot amortize, since the
            # lanes' message volumes add up) at the same rate as the
            # per-superstep scan/join costs batching exists to share.
            "io_latency_scale": 0.0,
            "workers": [1, 4],
        },
        variants=_batch_variants,
        gate=_batch_gate,
    ),
}


def _best_of(name, variant, config):
    """Best-of-``repeats`` row for one variant, plus its output."""
    best = output = None
    for _ in range(max(int(config["repeats"]), 1)):
        seconds, run_output, metrics = variant(config)
        if output is not None and run_output != output:
            raise AssertionError(
                "%s produced two different outputs across repeats" % name
            )
        output = run_output
        if best is None or seconds < best[0]:
            best = (seconds, metrics)
    seconds, metrics = best
    return dict(variant=name, seconds=round(seconds, 6), **metrics), output


def run(name, **overrides):
    """Run scenario ``name``; returns its report.

    ``overrides`` replace config values (tests use small graphs).
    ``report["pass"]`` is the CI verdict: every variant bit-identical to
    the reference, and every gate check holding.
    """
    scenario = SCENARIOS[name]
    unknown = sorted(set(overrides) - set(scenario.config))
    if unknown:
        raise TypeError("unknown %s config: %s" % (name, ", ".join(unknown)))
    config = dict(scenario.config, **overrides)
    rows = {}
    reference = None
    for variant_name, variant in scenario.variants(config):
        row, output = _best_of(variant_name, variant, config)
        if reference is None:
            reference = output
        row["bit_identical"] = output == reference
        rows[variant_name] = row
    checks = scenario.gate(config, rows)
    return {
        "scenario": name,
        "config": config,
        "variants": list(rows.values()),
        "checks": checks,
        "pass": bool(
            checks
            and all(row["bit_identical"] for row in rows.values())
            and all(check["ok"] for check in checks)
        ),
    }


def write_report(report, path):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def summary_lines(report):
    """Human-readable rendering of one report."""
    lines = ["%s bench (%s):" % (report["scenario"], ", ".join(
        "%s=%s" % item for item in report["config"].items()
    ))]
    for row in report["variants"]:
        lines.append("  %-12s %.3fs %s" % (
            row["variant"] + ":", row["seconds"],
            "bit-identical" if row["bit_identical"] else "OUTPUT DIVERGED",
        ))
    for check in report["checks"]:
        lines.append("  %s %s %s %s %s: %s" % (
            check["variant"], check["measure"], check["value"], check["op"],
            check["limit"], "ok" if check["ok"] else "MISSED",
        ))
    lines.append("  verdict: %s" % ("PASS" if report["pass"] else "FAIL"))
    return lines
