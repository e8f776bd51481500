"""The process that hosts the job service for the ``serve-mixed`` workload.

Started by ``run.py`` as ``python3 perfbench/serve_host.py CONFIG_JSON``.
It builds a 3-node cluster, a ``JobService`` with a file journal and
batching, loads the generated part files as dataset ``btc``, starts a
``ServeHTTPServer`` on a free local port and prints
``{"ready": true, "port": N}`` (the end of set-up). It then obeys
commands on standard input, one per line:

* ``trace`` — install :class:`layers.LayerTracer` (service idle);
* ``stop`` — drain, shut down, print one JSON report and exit.

The load generator and poller run in ``run.py``, a separate process, so
they never compete with the service for its interpreter lock.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _cache_snapshot(cluster):
    return {
        node_id: node.buffer_cache.stats.snapshot()
        for node_id, node in cluster.nodes.items()
    }


def main(config):
    sys.path.insert(0, config["src"])
    sys.path.insert(0, HERE)
    from repro.hyracks.engine import HyracksCluster
    from repro.serve import JobService, ServeHTTPServer
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    cluster = HyracksCluster(
        num_nodes=config["nodes"],
        parallelism=config["parallelism"],
        io_latency_scale=0.0,
        root_dir=config["scratch"],
        telemetry=telemetry,
    )
    service = JobService(
        cluster=cluster,
        telemetry=telemetry,
        workers=config["workers"],
        journal="file:%s" % config["journal"],
        batch_max=config["batch_max"],
    )
    service.add_dataset("btc", local_dir=config["input"])
    service.start()
    server = ServeHTTPServer(service, host="127.0.0.1", port=0)
    _host, port = server.start()
    sys.stdout.write(json.dumps({"ready": True, "port": port}) + "\n")
    sys.stdout.flush()

    from stats import reference_kernel

    tracer = None
    report = {"setup_reference_s": reference_kernel()}
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                from layers import LayerTracer

                tracer = LayerTracer(config["label"]).install(serve=True)
                before = _cache_snapshot(cluster)
                traced_started = time.perf_counter()
                sys.stdout.write(json.dumps({"tracing": True}) + "\n")
                sys.stdout.flush()
            elif command == "stop":
                stopped = time.perf_counter()
                break
    finally:
        server.close()
        service.shutdown(drain=True, timeout=config["drain_timeout_s"])
        cluster.close()
    if tracer is not None:
        from layers import program_counters

        tracer.uninstall()
        after = _cache_snapshot(cluster)
        delta = {
            node: {k: after[node][k] - before[node][k] for k in after[node]}
            for node in after
        }
        counts = tracer.counts
        requests = counts["service.submits"]
        report["layers"] = tracer.metrics(
            requests, program_counters(tracer.outcomes, delta)
        )
        report["raw"] = {
            key: counts[key]
            for key in ("journal.appends", "result_cache.hits",
                        "result_cache.lookups", "service.finalized",
                        "service.submits", "batch.runs", "batch.lanes")
        }
        wall = stopped - traced_started
        report["trace_files"] = tracer.write(config["trace_dir"], wall)
        report["table"] = [list(row) for row in tracer.table(wall)]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
