#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload pagerank-inmem --seed 1 --seconds 24 --trace 0

Workloads (sizes and reasons in ``perfbench/workloads.json``):

* ``pagerank-inmem`` — direct ``PregelixDriver`` PageRank, cache-resident;
* ``pagerank-ooc`` — the same job with an 8-page buffer cache and a
  16 KB group-by budget;
* ``serve-mixed`` — an open-loop HTTP client against ``JobService`` +
  ``ServeHTTPServer`` in another process: 90% sssp point queries with
  Zipf sources, 10% uncached LSM-plan pagerank.

Everything is generated from ``--seed``: the graph, the arrival times,
the sources and the request mix. The program receives only the
generated part files. Every run checks outputs against the independent
references in ``repro.chaos.reference``; a wrong output fails the run.

``--trace 0`` measures the end-to-end metrics with the program in its
default configuration. Set-up time and the direct jobs' latency are
CPU-bound and reported at the reference speed (see
:func:`stats.at_reference_speed`), so the host's changing processor
speed does not move them; the served latency is wall clock. ``--trace 1`` is a separate run: half of it
untraced, half with :mod:`layers` wrapping each layer's entry points;
it prints the per-layer metrics and writes a Chrome trace and a
self-time table under ``.perfbench/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from stats import (  # noqa: E402
    Outcome,
    at_reference_speed,
    error_frac,
    mean,
    median,
    percentile,
    reportable,
    slo_miss_frac,
    successful_latencies,
    zipf_counts,
)

#: Every end-to-end metric printed with ``--trace 0``: (name, unit,
#: gated). Gated metrics exist and are never 0 on every workload; they
#: are the ones in BENCHMARK.json and in the JSON result. The others
#: are printed for the workloads they apply to.
END_TO_END = (
    ("setup_s", "s", True),
    ("latency_s", "s", True),
    ("peak_rss_mb", "MB", True),
    ("setup_wall_s", "s", False),
    ("latency_p50_s", "s", False),
    ("reference_s", "s", False),
    ("job_s", "s", False),
    ("vertex_supersteps_per_s", "1/s", False),
    ("latency_p90_s", "s", False),
    ("slo_miss_frac", "ratio", False),
    ("error_frac", "ratio", False),
    ("generator_lag_max_s", "s", False),
)

#: Seconds a host process may take beyond its share of ``--seconds``.
HOST_GRACE_S = 60.0


class HostError(Exception):
    """A host process died or answered with something unexpected."""


class Host:
    """One child process hosting the engine or the service.

    The set-up time runs from launching the interpreter until the host
    prints its ``ready`` line. A timer kills a host that outlives
    ``timeout_s``, so the benchmark always ends.
    """

    def __init__(self, script, config, env, timeout_s):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self._killer = threading.Timer(timeout_s, self.proc.kill)
        self._killer.daemon = True
        self._killer.start()
        self.ready = self.read_json()
        self.setup_s = time.perf_counter() - started

    def read_json(self):
        """The next JSON line the host prints (other lines are skipped)."""
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.close()
                raise HostError("host exited with code %r" % self.proc.returncode)
            try:
                return json.loads(line)
            except ValueError:
                sys.stderr.write(line)

    def send(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self):
        """Read the final report and wait for the host to exit."""
        report = self.read_json()
        self.close()
        if self.proc.returncode != 0:
            raise HostError("host exited with code %r" % self.proc.returncode)
        return report

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        self.proc.wait()
        self._killer.cancel()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def write_inputs(vertices, directory, num_files):
    """The graph as the program's own adjacency part files."""
    from repro.graphs.io import write_graph_to_dfs
    from repro.hdfs import MiniDFS

    dfs = MiniDFS()
    write_graph_to_dfs(dfs, "/g", iter(vertices), num_files=num_files)
    os.makedirs(directory)
    for path in dfs.list_files("/g"):
        with open(os.path.join(directory, path.rsplit("/", 1)[1]), "wb") as handle:
            handle.write(dfs.read(path))


def lines_digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


# ----------------------------------------------------------------------
# pagerank-inmem / pagerank-ooc
# ----------------------------------------------------------------------
def run_pagerank(spec, args, work, env, trace_dir):
    from repro.chaos.reference import PageRankCase
    from repro.graphs.generators import webmap_graph

    vertices = list(webmap_graph(
        spec["vertices"], avg_out_degree=spec["avg_out_degree"], seed=args.seed,
    ))
    input_dir = os.path.join(work, "input")
    write_inputs(vertices, input_dir, spec["nodes"])
    case = PageRankCase(iterations=spec["iterations"])
    expected = case.reference(vertices)

    hosts = 1 if args.trace else spec["hosts"]
    # Launches past the job hosts only time the set-up, so that set-up
    # has as many samples as on serve-mixed.
    launches = 1 if args.trace else spec["setup_launches"]
    reports, setups, setup_references = [], [], []
    for index in range(launches):
        scratch = os.path.join(work, "cluster-%d" % index)
        os.makedirs(scratch)
        config = {
            "src": os.path.abspath("src"),
            "input": input_dir,
            "scratch": scratch,
            "nodes": spec["nodes"],
            "parallelism": spec["parallelism"],
            "buffer_cache_bytes": spec["buffer_cache_bytes"],
            "iterations": spec["iterations"],
            "groupby_memory_bytes": spec["groupby_memory_bytes"],
            "seconds": args.seconds / hosts,
            "min_jobs": spec["min_jobs_per_host"],
            "trace": bool(args.trace),
            "label": "%s-seed%d" % (args.workload, args.seed),
            "trace_dir": trace_dir,
            "setup_only": index >= hosts,
        }
        host = Host("engine_host.py", config, env,
                    args.seconds / hosts + HOST_GRACE_S)
        setups.append(host.setup_s)
        report = host.finish()
        setup_references.append(report["setup_reference_s"])
        if index < hosts:
            reports.append(report)
        shutil.rmtree(scratch, ignore_errors=True)

    jobs = [job for r in reports for job in r["jobs"] + r["traced_jobs"]]
    problems = []
    reference_digest = None
    for report in reports:
        got = case.parse_values(report["lines"])
        problems.extend(case.compare(got, expected))
        digest = lines_digest(report["lines"])
        if reference_digest is None:
            reference_digest = digest
        elif digest != reference_digest:
            problems.append("checked outputs differ between hosts")
    failed = 0
    for job in jobs:
        if job["digest"] != reference_digest or job["plan"] != spec["plan"]:
            failed += 1
    if failed:
        problems.append("%d of %d jobs gave a different output digest or plan"
                        % (failed, len(jobs)))
    untraced = [job for r in reports for job in r["jobs"]]
    summary = {
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "samples": {"n": len(untraced), "jobs": len(untraced), "hosts": hosts,
                    "setup_s": launches, "setup_wall_s": launches,
                    "peak_rss_mb": hosts},
    }
    if not args.trace:
        work_units = sum(j["vertices"] * j["supersteps"] for j in untraced)
        summary["metrics"] = {
            "setup_s": at_reference_speed(mean(setups), mean(setup_references)),
            "setup_wall_s": median(setups),
            "job_s": median([j["job_s"] for j in untraced]),
            "vertex_supersteps_per_s": work_units / sum(j["job_s"] for j in untraced),
            "latency_s": at_reference_speed(
                mean([j["latency_s"] for j in untraced]),
                mean([j["reference_s"] for j in untraced])),
            "latency_p50_s": median([j["latency_s"] for j in untraced]),
            "reference_s": mean([j["reference_s"] for j in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
            "error_frac": failed / len(jobs),
        }
        return summary

    report = reports[0]
    layers = dict(report["layers"])
    traced = report["traced_jobs"]
    layers["trace.overhead_frac"] = (
        median([j["job_s"] for j in traced]) / median([j["job_s"] for j in untraced])
        - 1.0
    )
    layers["crosscheck.checks"] = float(report["crosschecks"])
    problems.extend(report["crosscheck_errors"])
    summary["layers"] = layers
    summary["table"] = report["table"]
    summary["trace_files"] = report["trace_files"]
    return summary


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def make_requests(spec, vertices, rng, count, seconds):
    """``count`` requests with Poisson arrivals over ``seconds``.

    A Poisson process conditioned on its count places the arrivals
    uniformly, so the count (and with it the percentile rule) is the
    same on every seed while the gaps stay exponential-like. The mix is
    stratified the same way: every seed sends the same number of
    pagerank requests, the same number to each tenant, and the same
    number of sssp requests to the Zipf rank 1, 2, ... source, so the
    share of repeated sources (the result cache's hits) does not change
    with the seed. The seed picks the graph, which vertex holds which
    rank, the order and the arrival times.
    """
    ids = [vid for vid, _value, _edges in vertices]
    ranked = list(ids)
    rng.shuffle(ranked)
    pageranks = int(round(count * (1.0 - spec["sssp_share"])))
    sources = [
        ranked[rank]
        for rank, times in enumerate(
            zipf_counts(count - pageranks, len(ranked), spec["zipf_exponent"]))
        for _ in range(times)
    ]
    rng.shuffle(sources)
    kinds = ["pagerank"] * pageranks + ["sssp"] * (count - pageranks)
    rng.shuffle(kinds)
    tenants = ["tenant-%d" % (i % spec["tenants"]) for i in range(count)]
    rng.shuffle(tenants)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    requests = []
    for due, kind, tenant in zip(dues, kinds, tenants):
        if kind == "sssp":
            body = {"tenant": tenant, "algorithm": "sssp", "dataset": "btc",
                    "params": {"source_id": sources.pop()}}
        else:
            body = {"tenant": tenant, "algorithm": "pagerank", "dataset": "btc",
                    "params": {"iterations": spec["pagerank_iterations"]},
                    "plan": spec["pagerank_plan"],
                    "use_cache": spec["pagerank_use_cache"]}
        requests.append((due, body))
    return requests


class OpenLoop:
    """Sends requests on their schedule and polls them to a terminal state.

    The scheduler thread only hands each request to a sender pool at its
    due time, so a slow submission never delays the next arrival; a
    separate poller sweeps ``GET /jobs/<id>`` every ``poll_interval``.
    Latency runs from the due time to the sweep that saw the job
    terminal. Lateness of the generator is the time from due to the
    moment a sender picked the request up.
    """

    TERMINAL = ("succeeded", "failed", "cancelled")

    def __init__(self, port, poll_interval, timeout_s):
        self.port = port
        self.poll_interval = poll_interval
        self.timeout_s = timeout_s
        self._local = threading.local()
        self._lock = threading.Lock()
        self.pending = {}

    def _conn(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout_s)
        return conn

    def request(self, method, path, body=None):
        conn = self._conn()
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError):
            conn.close()
            self._local.conn = None
            raise
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(data)
        return response.status, data.decode("utf-8")

    def run(self, requests):
        """Drive ``requests``; returns (outcomes, job ids, docs, lags)."""
        count = len(requests)
        outcomes = [None] * count
        job_ids = [None] * count
        docs = [None] * count
        lags = [0.0] * count
        origin = time.perf_counter() + 0.05
        senders = ThreadPoolExecutor(max_workers=4, thread_name_prefix="bench-send")
        sent = threading.Event()
        deadline = origin + requests[-1][0] + self.timeout_s

        def send(index):
            due = origin + requests[index][0]
            lags[index] = time.perf_counter() - due
            outcome = outcomes[index] = Outcome(due)
            try:
                status, doc = self.request("POST", "/jobs", requests[index][1])
            except (http.client.HTTPException, OSError):
                outcome.done = time.perf_counter()
                return
            if status == 202:
                job_ids[index] = doc["job_id"]
                with self._lock:
                    self.pending[doc["job_id"]] = index
            else:
                outcome.done = time.perf_counter()
                outcome.refused = status in (429, 503)

        def poll():
            while time.perf_counter() < deadline:
                with self._lock:
                    sweep = list(self.pending.items())
                if not sweep and sent.is_set():
                    return
                started = time.perf_counter()
                for job_id, index in sweep:
                    try:
                        status, doc = self.request("GET", "/jobs/%s" % job_id)
                    except (http.client.HTTPException, OSError):
                        continue  # reconnects; the next sweep asks again
                    if status == 200 and doc["state"] in self.TERMINAL:
                        outcomes[index].done = time.perf_counter()
                        outcomes[index].ok = doc["state"] == "succeeded"
                        docs[index] = doc
                        with self._lock:
                            del self.pending[job_id]
                pause = self.poll_interval - (time.perf_counter() - started)
                if pause > 0:
                    time.sleep(pause)

        poller = threading.Thread(target=poll, name="bench-poll", daemon=True)
        poller.start()
        futures = []
        for index, (offset, _body) in enumerate(requests):
            pause = origin + offset - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            futures.append(senders.submit(send, index))
        for future in futures:
            future.result()
        senders.shutdown(wait=True)
        sent.set()
        poller.join(max(deadline - time.perf_counter(), 0.0) + 5.0)
        return outcomes, job_ids, docs, lags


def scrape(loop):
    """``/stats`` plus the ``/metrics`` samples the cross-check reads."""
    _status, stats = loop.request("GET", "/stats")
    _status, text = loop.request("GET", "/metrics")
    samples = {"e2e_count": 0.0, "journal_appends": 0.0, "cache_hits": 0.0}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith("serve_latency_e2e_seconds_count"):
            samples["e2e_count"] += float(value)
        elif name == "serve_journal_appends_total":
            samples["journal_appends"] = float(value)
        elif name == "serve_cache_hit_total":
            samples["cache_hits"] = float(value)
    return stats, samples


def check_served(loop, requests, job_ids, outcomes, references):
    """Fetch and check every succeeded result; marks wrong outcomes."""
    from repro.chaos.reference import PageRankCase, SsspCase

    problems = []
    pagerank_digests = set()
    results = {}
    for index, job_id in enumerate(job_ids):
        if job_id is None or not outcomes[index].ok:
            continue
        body = requests[index][1]
        status, doc = loop.request("GET", "/jobs/%s/result" % job_id)
        if status != 200:
            outcomes[index].wrong = True
            problems.append("%s: result answered %d" % (job_id, status))
            continue
        results[index] = doc
        if body["algorithm"] == "sssp":
            case = SsspCase(body["params"]["source_id"])
            expected = references[("sssp", case.source_id)]
        else:
            case = PageRankCase(iterations=body["params"]["iterations"])
            expected = references[("pagerank",)]
            pagerank_digests.add(lines_digest(doc["results"]))
        mismatch = case.compare(case.parse_values(doc["results"]), expected)
        if mismatch:
            outcomes[index].wrong = True
            problems.append("%s: %s" % (job_id, mismatch[0]))
    if len(pagerank_digests) > 1:
        problems.append("served pagerank results differ between jobs")
    return problems, results


def run_serve(spec, args, work, env, trace_dir):
    from repro.chaos.reference import PageRankCase, SsspCase
    from repro.graphs.generators import btc_graph

    rng = random.Random(args.seed)
    vertices = list(btc_graph(spec["vertices"], seed=args.seed))
    input_dir = os.path.join(work, "input")
    write_inputs(vertices, input_dir, spec["nodes"])
    count = int(round(spec["rate_per_s"] * args.seconds))
    if args.trace:
        half = count // 2
        phases = [make_requests(spec, vertices, rng, half, args.seconds / 2.0),
                  make_requests(spec, vertices, rng, half, args.seconds / 2.0)]
    else:
        phases = [make_requests(spec, vertices, rng, count, args.seconds)]
    references = {("pagerank",): PageRankCase(
        iterations=spec["pagerank_iterations"]).reference(vertices)}
    for phase in phases:
        for _due, body in phase:
            if body["algorithm"] == "sssp":
                key = ("sssp", body["params"]["source_id"])
                if key not in references:
                    references[key] = SsspCase(key[1]).reference(vertices)

    setups, setup_references = [], []
    host = None
    try:
        for launch in range(spec["service_launches"]):
            scratch = os.path.join(work, "cluster-%d" % launch)
            os.makedirs(scratch)
            config = {
                "src": os.path.abspath("src"),
                "input": input_dir,
                "scratch": scratch,
                "journal": os.path.join(work, "journal-%d" % launch),
                "nodes": spec["nodes"],
                "workers": spec["workers"],
                "parallelism": spec["parallelism"],
                "batch_max": spec["batch_max"],
                "drain_timeout_s": spec["drain_timeout_s"],
                "label": "%s-seed%d" % (args.workload, args.seed),
                "trace_dir": trace_dir,
            }
            host = Host("serve_host.py", config, env, args.seconds + 2 * HOST_GRACE_S)
            setups.append(host.setup_s)
            if launch < spec["service_launches"] - 1:
                host.send("stop")
                setup_references.append(host.finish()["setup_reference_s"])
                host = None
        loop = OpenLoop(host.ready["port"], spec["poll_interval_s"], spec["drain_timeout_s"])
        runs = []
        before = None
        for number, phase in enumerate(phases):
            if args.trace and number == 1:
                before = scrape(loop)
                host.send("trace")
                host.read_json()
            runs.append(loop.run(phase))
        after = scrape(loop) if args.trace else None
        problems = []
        for phase, (outcomes, job_ids, _docs, _lags) in zip(phases, runs):
            wrong, results = check_served(loop, phase, job_ids, outcomes, references)
            problems.extend(wrong)
        outcomes, job_ids, docs, lags = runs[-1]
        host.send("stop")
        report = host.finish()
        setup_references.append(report["setup_reference_s"])
        host = None
    finally:
        if host is not None:
            host.close()

    everything = [o for run in runs for o in run[0]]
    unfinished = sum(1 for o in everything if o.done is None)
    if unfinished:
        problems.append("%d requests never reached a terminal state" % unfinished)
    failed = sum(1 for o in everything if not o.ok or o.wrong or o.refused)
    latencies = successful_latencies(outcomes)
    executed = [
        index for index, doc in enumerate(docs)
        if doc is not None and outcomes[index].ok and not doc["cache_hit"]
        and doc["spans"]["run_seconds"] is not None and index in results
    ]
    run_seconds = [docs[i]["spans"]["run_seconds"] for i in executed]
    work_units = sum(
        results[i]["num_vertices"] * results[i]["supersteps"] for i in executed
    )
    lag_limit = spec["generator_lag_limit_s"]
    if max(lags) > lag_limit:
        problems.append(
            "invalid run: the generator fell %.3f s behind (limit %.3f s)"
            % (max(lags), lag_limit))
    summary = {
        "attempted": len(everything),
        "failed": failed,
        "problems": problems,
        "samples": {"n": len(latencies), "requests": len(outcomes),
                    "completed": len(latencies), "executed": len(executed),
                    "setup_s": len(setups), "setup_wall_s": len(setups),
                    "peak_rss_mb": 1,
                    "job_s": len(executed), "vertex_supersteps_per_s": len(executed),
                    "slo_miss_frac": len(everything), "error_frac": len(everything),
                    "generator_lag_max_s": len(everything)},
    }
    if not args.trace:
        metrics = summary["metrics"] = {
            "setup_s": at_reference_speed(mean(setups), mean(setup_references)),
            "setup_wall_s": median(setups),
            "job_s": median(run_seconds),
            "vertex_supersteps_per_s": work_units / sum(run_seconds),
            "latency_s": median(latencies),
            "latency_p50_s": median(latencies),
            "peak_rss_mb": report["peak_rss_mb"],
            "slo_miss_frac": slo_miss_frac(outcomes, spec["latency_limit_s"]),
            "error_frac": error_frac(everything),
            "generator_lag_max_s": max(lags),
        }
        if reportable(len(latencies), 90):
            metrics["latency_p90_s"] = percentile(latencies, 90)
        return summary

    layers = dict(report["layers"])
    raw = report["raw"]
    untraced = successful_latencies(runs[0][0])
    layers["trace.overhead_frac"] = median(latencies) / median(untraced) - 1.0
    layers["generator.lag_s"] = max(lags)
    layers["generator.lag_p90_s"] = percentile(lags, 90)
    spans = [docs[i]["spans"] for i in executed]
    layers["service.queue_wait_s"] = median(
        [s["queue_wait_seconds"] or 0.0 for s in spans])
    layers["service.run_s"] = median(run_seconds)
    layers["service.overhead_s"] = median([
        docs[i]["spans"]["end_to_end_seconds"] - results[i]["total_seconds"]
        for i in executed
    ])
    sssp_executed = [i for i in executed if phases[-1][i][1]["algorithm"] == "sssp"]
    layers["batch.share"] = (
        sum(1 for i in sssp_executed if "batch" in results[i]) / len(sssp_executed)
        if sssp_executed else 0.0)
    stats_before, metrics_before = before
    stats_after, metrics_after = after
    observed_terminal = sum(1 for o in outcomes if o.done is not None and not o.refused)
    checks = (
        ("journal appends: wrappers vs /stats",
         raw["journal.appends"],
         stats_after["journal"]["records_appended"]
         - stats_before["journal"]["records_appended"]),
        ("journal appends: wrappers vs /metrics",
         raw["journal.appends"],
         metrics_after["journal_appends"] - metrics_before["journal_appends"]),
        ("result cache hits: wrappers vs /stats",
         raw["result_cache.hits"],
         stats_after["result_cache"]["hits"] - stats_before["result_cache"]["hits"]),
        ("result cache hits: wrappers vs /metrics",
         raw["result_cache.hits"],
         metrics_after["cache_hits"] - metrics_before["cache_hits"]),
        ("served-latency histogram count vs jobs finalized",
         raw["service.finalized"],
         metrics_after["e2e_count"] - metrics_before["e2e_count"]),
        ("served-latency histogram count vs terminal jobs observed",
         observed_terminal,
         metrics_after["e2e_count"] - metrics_before["e2e_count"]),
    )
    for what, ours, theirs in checks:
        if ours != theirs:
            problems.append("cross-check %s: %r != %r" % (what, ours, theirs))
    layers["crosscheck.checks"] = float(len(checks))
    summary["layers"] = layers
    summary["table"] = report["table"]
    summary["trace_files"] = report["trace_files"]
    return summary


RUNNERS = {"pagerank": run_pagerank, "serve": run_serve}


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(HERE, "workloads.json")) as handle:
        workloads = json.load(handle)
    if args.workload not in workloads:
        sys.stderr.write("unknown workload %r (have: %s)\n"
                         % (args.workload, ", ".join(sorted(workloads))))
        return 2
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        sys.stderr.write("no program source at ./src/repro: run from the "
                         "repository root\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    spec = workloads[args.workload]
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, "work", "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(base, "trace")
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    try:
        summary = RUNNERS[spec["kind"]](spec, args, work, env, trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = summary["problems"]
    print("workload %s  seed %d  seconds %g  trace %d  samples %s"
          % (args.workload, args.seed, args.seconds, args.trace,
             json.dumps(summary["samples"])))
    if args.trace:
        # A layer the workload never enters reports 0.
        metrics = {name: {"value": float(summary["layers"].get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
        for row in summary["table"]:
            print("  self %-34s calls %9d  self %8.4f s  %5.1f%%"
                  % (row[0], row[1], row[3], 100.0 * row[4]))
        print("  trace files: %s" % ", ".join(summary["trace_files"]))
        for name, doc in metrics.items():
            print("  %-28s %14.6f %s" % (name, doc["value"], doc["unit"]))
    else:
        metrics = {}
        for name, unit, gated in END_TO_END:
            if name not in summary["metrics"]:
                continue
            value = summary["metrics"][name]
            if gated:
                metrics[name] = {"value": value, "unit": unit}
            samples = summary["samples"]
            print("  %-24s %14.6f %-5s n=%-4d %s" % (
                name, value, unit, samples.get(name, samples["n"]),
                "gated" if gated else "not gated"))
    for problem in problems:
        print("  PROBLEM: %s" % problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
