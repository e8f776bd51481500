"""The process that hosts the engine for the direct PageRank workloads.

Started by ``run.py`` as ``python3 perfbench/engine_host.py CONFIG_JSON``.
It builds a 3-node ``HyracksCluster``, copies the generated part files
into a ``MiniDFS``, prints ``{"ready": true}`` (the end of set-up), then
runs PageRank jobs through ``PregelixDriver`` back to back for the given
number of seconds and prints one JSON report as its last line. With
``setup_only`` set it exits right after ``ready``, so the launch only
times the set-up.

With ``trace`` set, the first half of the time runs untraced and the
second half runs with :class:`layers.LayerTracer` installed, so the
report carries the tracing overhead and the per-layer metrics.
"""

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _load_inputs(dfs, input_dir):
    for name in sorted(os.listdir(input_dir)):
        with open(os.path.join(input_dir, name), "rb") as handle:
            dfs.write("/in/graph/%s" % name, handle.read())


def _cache_snapshot(cluster):
    return {
        node_id: node.buffer_cache.stats.snapshot()
        for node_id, node in cluster.nodes.items()
    }


def run_job(driver, config, index):
    """One PageRank job, load through dump; returns the job's record.

    The reference kernel runs just before the job, so the record also
    says how fast the processor ran around it.
    """
    from repro.algorithms import pagerank
    from repro.chaos.differential import PlanChoice
    from stats import reference_kernel

    job = pagerank.build_job(
        iterations=config["iterations"],
        groupby_memory_bytes=config["groupby_memory_bytes"],
    )
    output = "/out/job-%d" % index
    reference = reference_kernel()
    started = time.perf_counter()
    outcome = driver.run(job, "/in/graph", output_path=output)
    ran = time.perf_counter() - started
    lines = sorted(driver.read_output(output))
    latency = time.perf_counter() - started
    driver.dfs.delete(output, recursive=True)
    return outcome, lines, {
        "job_s": ran,
        "latency_s": latency,
        "reference_s": reference,
        "supersteps": outcome.supersteps,
        "vertices": outcome.gs.num_vertices,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "plan": PlanChoice(job.join_strategy, job.groupby_strategy,
                           job.connector_policy, job.vertex_storage).signature(),
    }


def main(config):
    sys.path.insert(0, config["src"])
    sys.path.insert(0, HERE)
    import repro.algorithms.pagerank  # noqa: F401 - part of set-up
    from repro.hdfs import MiniDFS
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix.runtime import PregelixDriver
    from stats import reference_kernel

    kwargs = {
        "num_nodes": config["nodes"],
        "parallelism": config["parallelism"],
        "io_latency_scale": 0.0,
        "root_dir": config["scratch"],
    }
    if config.get("buffer_cache_bytes"):
        kwargs["buffer_cache_bytes"] = config["buffer_cache_bytes"]
    cluster = HyracksCluster(**kwargs)
    dfs = MiniDFS(datanodes=cluster.node_ids())
    _load_inputs(dfs, config["input"])
    driver = PregelixDriver(cluster, dfs)
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    report = {"setup_reference_s": reference_kernel(), "jobs": [], "traced_jobs": []}
    if config["setup_only"]:
        cluster.close()
        sys.stdout.write(json.dumps(report) + "\n")
        sys.stdout.flush()
        return

    seconds = config["seconds"]
    tracer = None
    try:
        phase_end = time.perf_counter() + (seconds / 2.0 if config["trace"] else seconds)
        index = 0
        first_lines = None
        while True:
            outcome, lines, record = run_job(driver, config, index)
            index += 1
            if first_lines is None:
                first_lines = lines
            report["jobs"].append(record)
            if time.perf_counter() >= phase_end and len(report["jobs"]) >= config["min_jobs"]:
                break
        report["lines"] = first_lines
        if config["trace"]:
            from layers import LayerTracer, program_counters

            tracer = LayerTracer(config["label"]).install()
            traced = []
            before_all = _cache_snapshot(cluster)
            traced_started = time.perf_counter()
            phase_end = traced_started + seconds / 2.0
            while True:
                tracer.mark_nodes()
                tracer.take_execute_counts()
                before = _cache_snapshot(cluster)
                outcome, lines, record = run_job(driver, config, index)
                index += 1
                tracer.crosscheck_job(outcome, before, _cache_snapshot(cluster))
                traced.append(outcome)
                report["traced_jobs"].append(record)
                if time.perf_counter() >= phase_end and len(traced) >= 2:
                    break
            wall = time.perf_counter() - traced_started
            tracer.uninstall()
            after_all = _cache_snapshot(cluster)
            delta = {
                node: {k: after_all[node][k] - before_all[node][k] for k in after_all[node]}
                for node in after_all
            }
            report["layers"] = tracer.metrics(len(traced), program_counters(traced, delta))
            report["crosscheck_errors"] = tracer.crosscheck_errors
            report["crosschecks"] = tracer.crosschecks
            report["trace_files"] = tracer.write(config["trace_dir"], wall)
            report["table"] = [list(row) for row in tracer.table(wall)]
            report["traced_wall_s"] = wall
    finally:
        cluster.close()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
