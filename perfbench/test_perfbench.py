"""Fast, deterministic tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import http.server
import json
import os
import random
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from stats import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    Outcome,
    SelfTimer,
    at_reference_speed,
    error_frac,
    median,
    percentile,
    reference_kernel,
    reportable,
    self_time_table,
    slo_miss_frac,
    successful_latencies,
    zipf_counts,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert reportable(100, 90)
    assert not reportable(99, 90)
    assert reportable(20, 50)
    assert not reportable(19, 50)
    assert not reportable(1000, 99.5)
    assert reportable(1010, 99)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(1).shuffle(values)
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([3.0], 90) == 3.0
    assert median([4, 1, 3, 2]) == 2.5
    assert median([5, 1, 3]) == 3


# ----------------------------------------------------------------------
# due-time accounting and failure fractions
# ----------------------------------------------------------------------
def test_latency_runs_from_due_not_from_send():
    # Due at 10.0; the generator only got to it at 10.4 (late); done at
    # 11.0. The wait behind the stall counts: latency is 1.0, not 0.6.
    outcome = Outcome(due=10.0, done=11.0, ok=True)
    assert outcome.latency == 1.0
    assert successful_latencies([outcome, Outcome(due=1.0, done=5.0)]) == [1.0]


def test_error_and_slo_fractions_count_every_attempt():
    outcomes = [
        Outcome(0.0, 0.5, ok=True),                 # fast, fine
        Outcome(0.0, 3.0, ok=True),                 # slow: misses the limit
        Outcome(0.0, 0.1, ok=False, refused=True),  # refused (429/503)
        Outcome(0.0, 0.2, ok=False),                # failed
        Outcome(0.0, 0.3, ok=True, wrong=True),     # wrong output
    ]
    assert error_frac(outcomes) == 3 / 5
    assert slo_miss_frac(outcomes, 2.0) == 4 / 5
    assert slo_miss_frac(outcomes[:1], 2.0) == 0.0


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_frames():
    clock = FakeClock()
    timer = SelfTimer(clock=clock)
    timer.enter("engine")          # t=0
    clock.now = 1.0
    timer.enter("serde")           # t=1
    clock.now = 2.0
    timer.enter("serde")           # t=2, nested serde (TupleSerde -> Float64Serde)
    clock.now = 3.0
    timer.leave()                  # inner serde: 1 s
    clock.now = 4.0
    timer.leave()                  # outer serde: 3 s, 2 s of it its own
    clock.now = 6.0
    timer.enter("btree")
    clock.now = 7.0
    timer.leave()                  # btree: 1 s
    clock.now = 10.0
    timer.leave()                  # engine: 10 s, 10 - 3 - 1 = 6 s its own
    layers = timer.layers
    assert layers["engine"] == [1, 10.0, 6.0]
    assert layers["serde"] == [2, 4.0, 3.0]
    assert layers["btree"] == [1, 1.0, 1.0]
    rows = self_time_table(layers, 10.0)
    assert [row[0] for row in rows] == ["engine", "serde", "btree"]
    assert sum(row[3] for row in rows) == 10.0


def test_self_time_is_per_thread():
    clock = FakeClock()
    timer = SelfTimer(clock=clock)
    timer.enter("engine")
    other = threading.Thread(target=lambda: (timer.enter("task"), timer.leave()))
    other.start()
    other.join(5)
    assert not other.is_alive()
    clock.now = 2.0
    timer.leave()
    # A frame on another thread is not nested in this thread's frame.
    assert timer.layers["engine"] == [1, 2.0, 2.0]
    assert timer.layers["task"][0] == 1


# ----------------------------------------------------------------------
# the reference kernel
# ----------------------------------------------------------------------
def test_reference_kernel_takes_cpu_time():
    assert 0.0 < reference_kernel(rounds=1000) < reference_kernel(rounds=100000)


def test_reference_speed_scales_by_the_kernel():
    # The host ran twice as slow as nominal: the kernel took twice its
    # nominal time, so 3 s of work is 1.5 s at the nominal speed.
    assert abs(at_reference_speed(3.0, 2 * REFERENCE_NOMINAL_S) - 1.5) < 1e-12
    assert abs(at_reference_speed(3.0, REFERENCE_NOMINAL_S) - 3.0) < 1e-12


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------
def test_zipf_counts_are_fixed_by_rank():
    counts = zipf_counts(95, 300, 0.9)
    assert sum(counts) == 95
    assert counts == sorted(counts, reverse=True)
    assert counts[:4] == [12, 6, 5, 4]
    assert zipf_counts(7, 3, 1.0) == [4, 2, 1]
def _serve_spec():
    with open(os.path.join(HERE, "workloads.json")) as handle:
        return json.load(handle)["serve-mixed"]


def test_requests_come_only_from_the_seed():
    from repro.graphs.generators import btc_graph

    spec = _serve_spec()
    vertices = list(btc_graph(60, seed=3))
    first = run.make_requests(spec, vertices, random.Random(7), 50, 10.0)
    again = run.make_requests(spec, vertices, random.Random(7), 50, 10.0)
    other = run.make_requests(spec, vertices, random.Random(8), 50, 10.0)
    assert first == again
    assert first != other
    assert len(first) == 50
    dues = [due for due, _body in first]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= 10.0
    algorithms = {body["algorithm"] for _due, body in first}
    assert algorithms <= {"sssp", "pagerank"}


def _mix(requests):
    """What stays the same across seeds: the pagerank count, requests
    per tenant, and how often the k-th most asked source is asked."""
    kinds, tenants, sources = {}, {}, {}
    for _due, body in requests:
        kinds[body["algorithm"]] = kinds.get(body["algorithm"], 0) + 1
        tenants[body["tenant"]] = tenants.get(body["tenant"], 0) + 1
        if body["algorithm"] == "sssp":
            source = body["params"]["source_id"]
            sources[source] = sources.get(source, 0) + 1
    return kinds, tenants, sorted(sources.values(), reverse=True)


def test_request_mix_is_stratified():
    from repro.graphs.generators import btc_graph

    spec = _serve_spec()
    vertices = list(btc_graph(300, seed=3))
    mixes = [_mix(run.make_requests(spec, vertices, random.Random(seed), 105, 30.0))
             for seed in (1, 2, 3)]
    assert mixes[0] == mixes[1] == mixes[2]
    kinds, tenants, sources = mixes[0]
    assert kinds == {"pagerank": 10, "sssp": 95}
    assert sorted(tenants.values()) == [26, 26, 26, 27]
    assert sources == [c for c in zipf_counts(95, 300, spec["zipf_exponent"]) if c]


# ----------------------------------------------------------------------
# the open loop against a stub service
# ----------------------------------------------------------------------
class _Stub(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _reply(self, status, doc):
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        kind = request["params"]["kind"]
        if kind == "refuse":
            self._reply(429, {"error": {"code": "queue_full"}})
            return
        with self.server.lock:
            self.server.count += 1
            job_id = "job-%d" % self.server.count
            self.server.jobs[job_id] = kind
        self._reply(202, {"job_id": job_id})

    def do_GET(self):
        job_id = self.path.rsplit("/", 1)[1]
        state = "failed" if self.server.jobs[job_id] == "fail" else "succeeded"
        self._reply(200, {"job_id": job_id, "state": state})


def test_open_loop_counts_refusals_and_failures_from_due_time():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.count = 0
    server.jobs = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        kinds = ["ok", "refuse", "fail", "ok", "ok"]
        requests = [(0.01 * i, {"params": {"kind": kind}}) for i, kind in enumerate(kinds)]
        loop = run.OpenLoop(server.server_address[1], poll_interval=0.01, timeout_s=10.0)
        outcomes, job_ids, docs, lags = loop.run(requests)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    dues = [o.due for o in outcomes]
    offsets = [due - dues[0] for due in dues]
    assert [round(x, 9) for x in offsets] == [round(0.01 * i, 9) for i in range(5)]
    assert [o.ok for o in outcomes] == [True, False, False, True, True]
    assert outcomes[1].refused and job_ids[1] is None and docs[1] is None
    assert all(o.latency is not None and o.latency >= 0 for o in outcomes)
    assert error_frac(outcomes) == 2 / 5
    assert slo_miss_frac(outcomes, 60.0) == 2 / 5
    assert len(lags) == 5


# ----------------------------------------------------------------------
# the tracer leaves the program as it found it
# ----------------------------------------------------------------------
def test_tracer_uninstall_restores_every_entry_point():
    from layers import LayerTracer

    from repro.common.serde import TupleSerde
    from repro.hyracks.engine import HyracksCluster
    from repro.serve.service import JobService

    before = (TupleSerde.dumps, HyracksCluster.execute, JobService.submit)
    tracer = LayerTracer("test").install(serve=True)
    assert TupleSerde.dumps is not before[0]
    tracer.uninstall()
    assert (TupleSerde.dumps, HyracksCluster.execute, JobService.submit) == before
