"""Per-layer attribution for the traced run.

:class:`LayerTracer` wraps the public entry points of each of the
program's modules from outside: it replaces class attributes with timing
wrappers and restores them on :meth:`LayerTracer.uninstall`. The program
itself is not modified. Each wrapped call is one frame of a
:class:`~stats.SelfTimer`, so every module gets its call count, total
seconds and self seconds (duration minus frames nested inside it on the
same thread). Coarse layers (engine jobs, operator clones, driver runs,
service and HTTP calls) are also recorded as spans for a Chrome trace;
the hot layers (serde, pages, B-tree entries) are only aggregated,
because a span per call would cost more than the work it measures.

Counts are kept at the same boundaries, and the ones that the program
also publishes (``SuperstepStats``, ``BufferCache`` stats, the serve
``/stats`` and ``/metrics`` documents) are compared against it by
:meth:`LayerTracer.crosscheck_job` and ``run.py``.
"""

import functools
import itertools
import json
import os
import threading
from collections import Counter

from stats import SelfTimer, median, self_time_table

#: Every per-layer metric, in the order they are printed. Counts and
#: seconds are per operation (one job, or one served request); ratios
#: are ratios.
PER_LAYER = (
    ("serde.calls", "count"), ("serde.sizeof_calls", "count"),
    ("serde.bytes", "bytes"), ("serde.self_s", "s"),
    ("cache.pins", "count"), ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"), ("cache.evictions", "count"),
    ("cache.writebacks", "count"), ("cache.pin_s", "s"),
    ("btree.ops", "count"), ("btree.s", "s"),
    ("lsm.flushes", "count"), ("lsm.disk_components", "count"),
    ("lsm.s", "s"),
    ("spill.bytes_written", "bytes"), ("spill.bytes_read", "bytes"),
    ("spill.s", "s"),
    ("groupby.s", "s"), ("groupby.tuples_in", "count"),
    ("groupby.combine_ratio", "ratio"), ("sort.runs", "count"),
    ("connector.s", "s"), ("connector.bytes", "bytes"),
    ("connector.tuples", "count"), ("exchange.backpressure_waits", "count"),
    ("join.s", "s"), ("join.tuples", "count"), ("join.probes", "count"),
    ("compute.vertices", "count"),
    ("task.s", "s"), ("task.wait_s", "s"),
    ("engine.execute_calls", "count"), ("engine.execute_s", "s"),
    ("driver.load_s", "s"), ("driver.superstep_s", "s"),
    ("driver.dump_s", "s"), ("driver.supersteps", "count"),
    ("checkpoint.commits", "count"), ("checkpoint.s", "s"),
    ("dfs.read_bytes", "bytes"), ("dfs.write_bytes", "bytes"),
    ("dfs.s", "s"),
    ("http.requests", "count"), ("http.handler_s", "s"),
    ("service.submit_s", "s"), ("service.queue_wait_s", "s"),
    ("service.run_s", "s"), ("service.overhead_s", "s"),
    ("journal.appends", "count"), ("journal.append_s", "s"),
    ("journal.bytes", "bytes"),
    ("result_cache.hit_ratio", "ratio"),
    ("batch.runs", "count"), ("batch.lanes_per_run", "count"),
    ("batch.share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("generator.lag_s", "s"), ("generator.lag_p90_s", "s"),
    ("crosscheck.checks", "count"),
)

SERDE = "common.serde"
#: Time a thread spends blocked on the thread pool's clones.
BLOCKED = "hyracks.scheduler(blocked on clones)"
#: The benchmark's own connector byte count, shown as its own row.
ACCOUNTING = "perfbench.accounting"


class LayerTracer:
    """Wraps the program's layer entry points and accumulates by layer."""

    def __init__(self, run_label):
        self.run_label = run_label
        self.timer = SelfTimer()
        self._thread_counts = []
        self.disk_components = 0
        self.spans = []
        self._span_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        # Per engine job: counts taken at the connector, compute and
        # page-IO boundaries, compared with the JobResult afterwards.
        self._execute_counts = []
        self._superstep_results = set()
        self._node_base = Counter()
        self.crosscheck_errors = []
        self.crosschecks = 0

    # ------------------------------------------------------------------
    # counting and spans
    # ------------------------------------------------------------------
    def _counter(self):
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def add(self, key, amount=1):
        """Count on this thread's counter (exact without a lock)."""
        self._counter()[key] += amount

    @property
    def counts(self):
        total = Counter()
        for counts in list(self._thread_counts):
            total.update(counts)
        return total

    def _current_execute(self):
        return getattr(self._local, "execute", None)

    def _execute_add(self, key, amount):
        counts = self._current_execute()
        if counts is not None:
            with self._lock:
                counts[key] += amount

    def _span_stack(self):
        stack = getattr(self._local, "spans", None)
        if stack is None:
            stack = self._local.spans = []
        return stack

    def _parent_span(self):
        stack = self._span_stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited_span", None)

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, layer, span=False, after=None, iterate=False):
        """Time ``owner.attr`` as a frame of ``layer``.

        :param span: also record each call as a trace span.
        :param after: ``after(result, args, kwargs)`` counts the call.
        :param iterate: the call returns an iterator whose items are
            produced lazily; each ``next`` is timed as its own frame.
        """
        original = owner.__dict__[attr]
        timer = self.timer
        tracer = self
        name = "%s.%s" % (owner.__name__, attr)

        def timed_items(iterator):
            while True:
                timer.enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    timer.leave()
                    return
                except BaseException:
                    timer.leave()
                    raise
                timer.leave()
                yield item

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span:
                span_id = next(tracer._span_ids)
                parent = tracer._parent_span()
                stack = tracer._span_stack()
                stack.append(span_id)
            timer.enter(layer)
            started = timer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = timer.clock()
                timer.leave()
                if span:
                    stack.pop()
                    tracer.spans.append((
                        name, layer, started, ended,
                        threading.get_ident(), span_id, parent,
                    ))
            if after is not None:
                after(result, args, kwargs)
            if iterate:
                return timed_items(iter(result))
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def install(self, serve=False):
        """Wrap every layer's entry points (engine always, serve optionally)."""
        self._install_serde()
        self._install_storage()
        self._install_operators()
        self._install_connectors()
        self._install_engine()
        self._install_driver()
        if serve:
            self._install_serve()
        return self

    # -- common.serde ---------------------------------------------------
    def _install_serde(self):
        import repro.pregelix.aggregators  # noqa: F401 - registers serdes
        import repro.pregelix.multiquery  # noqa: F401
        from repro.common.serde import Serde

        timer = self.timer
        clock = timer.clock
        local = timer._local
        counter = self._counter

        def serde_wrapper(original, kind):
            # Inlined enter/leave: this wrapper runs over a million times
            # per PageRank job, so it is kept as short as it can be.
            @functools.wraps(original)
            def wrapper(self_, value):
                try:
                    frames = local.frames
                except AttributeError:
                    frames = timer.frames()
                if frames.serde_off:
                    return original(self_, value)
                depth = frames.serde_depth
                frames.serde_depth = depth + 1
                stack = frames.stack
                stack.append([SERDE, clock(), 0.0])
                try:
                    result = original(self_, value)
                finally:
                    _layer, started, nested = stack.pop()
                    duration = clock() - started
                    if stack:
                        stack[-1][2] += duration
                    totals = frames.totals.get(SERDE)
                    if totals is None:
                        totals = frames.totals[SERDE] = [0, 0.0, 0.0]
                    totals[0] += 1
                    totals[1] += duration
                    totals[2] += duration - nested
                    frames.serde_depth = depth
                if kind == "sizeof":
                    counter()["serde.sizeof_calls"] += 1
                elif depth == 0 and kind == "dumps":
                    counter()["serde.bytes"] += len(result)
                return result

            return wrapper

        for cls in _subclasses(Serde):
            for kind in ("dumps", "loads", "sizeof"):
                if kind in cls.__dict__:
                    self._patch(cls, kind, serde_wrapper(cls.__dict__[kind], kind))

    # -- storage -------------------------------------------------------
    def _install_storage(self):
        from repro.hyracks.storage.btree import BTree
        from repro.hyracks.storage.buffer_cache import BufferCache
        from repro.hyracks.storage.file_manager import FileManager
        from repro.hyracks.storage.lsm_btree import LSMBTree
        from repro.hyracks.storage.run_file import RunFileReader, RunFileWriter

        tracer = self
        add = self.add

        def pinned(_result, args, _kwargs):
            add("cache.pins")
            add(("node", args[0].node_id, "pins"))

        self.wrap(BufferCache, "pin", "hyracks.storage.buffer_cache", after=pinned)
        self.wrap(BufferCache, "new_page", "hyracks.storage.buffer_cache")
        self.wrap(BufferCache, "unpin", "hyracks.storage.buffer_cache")

        def page_io(kind):
            def count(_result, args, _kwargs):
                add("cache.%s" % kind)
                tracer._execute_add(kind, 1)
                add(("node", getattr(tracer._local, "page_node", None), kind))

            return count

        # The node a page belongs to is the cache that asked for it; the
        # file manager does not know, so the pin/writeback frame tells it.
        def remember_node(original):
            @functools.wraps(original)
            def wrapper(self_, *args, **kwargs):
                previous = getattr(tracer._local, "page_node", None)
                tracer._local.page_node = self_.node_id
                try:
                    return original(self_, *args, **kwargs)
                finally:
                    tracer._local.page_node = previous

            return wrapper

        for attr in ("pin", "_writeback"):
            self._patch(BufferCache, attr, remember_node(BufferCache.__dict__[attr]))
        self.wrap(FileManager, "read_page", "hyracks.storage.file_manager",
                  after=page_io("misses"))
        self.wrap(FileManager, "write_page", "hyracks.storage.file_manager",
                  after=page_io("writebacks"))

        def spilled(kind):
            def count(_result, args, _kwargs):
                add("spill.bytes_%s" % kind, int(args[1]))

            return count

        self.wrap(FileManager, "record_run_write", "hyracks.storage.file_manager",
                  after=spilled("written"))
        self.wrap(FileManager, "record_run_read", "hyracks.storage.file_manager",
                  after=spilled("read"))
        self.wrap(RunFileWriter, "append", "hyracks.storage.run_file")
        self.wrap(RunFileWriter, "close", "hyracks.storage.run_file")
        self.wrap(RunFileReader, "__iter__", "hyracks.storage.run_file", iterate=True)

        def op(prefix):
            def count(_result, _args, _kwargs):
                add(prefix)

            return count

        for attr in ("insert", "delete", "lookup", "bulk_load"):
            self.wrap(BTree, attr, "hyracks.storage.btree", after=op("btree.ops"))
            self.wrap(LSMBTree, attr, "hyracks.storage.lsm_btree")
        self.wrap(BTree, "scan", "hyracks.storage.btree", after=op("btree.ops"),
                  iterate=True)
        self.wrap(LSMBTree, "scan", "hyracks.storage.lsm_btree", iterate=True)

        def flushed(_result, args, _kwargs):
            add("lsm.flushes")
            components = args[0].num_disk_components
            with tracer._lock:
                tracer.disk_components = max(tracer.disk_components, components)

        self.wrap(LSMBTree, "flush_memory_component", "hyracks.storage.lsm_btree",
                  after=flushed)
        self.wrap(LSMBTree, "_merge_components", "hyracks.storage.lsm_btree")

    # -- operators -----------------------------------------------------
    def _install_operators(self):
        import repro.hyracks.operators.aggregate  # noqa: F401
        import repro.hyracks.operators.func  # noqa: F401
        import repro.hyracks.operators.index_ops  # noqa: F401
        import repro.hyracks.operators.scan  # noqa: F401
        import repro.pregelix.checkpoint  # noqa: F401
        import repro.pregelix.physical  # noqa: F401
        from repro.hyracks.job import OperatorDescriptor
        from repro.hyracks.operators.groupby import _SpillingGroupByBase
        from repro.hyracks.operators.sort import ExternalSortOperator
        from repro.pregelix.operators import ComputeOperator

        tracer = self

        def computed(result, _args, _kwargs):
            tracer._execute_add("messages", len(result.get(ComputeOperator.MSG, ())))

        def grouped(_result, args, _kwargs):
            (stream,) = args[3]
            if hasattr(stream, "__len__"):
                tracer.add("groupby.tuples_in", len(stream))

        for cls in _subclasses(OperatorDescriptor):
            if "run" not in cls.__dict__:
                continue
            layer = cls.__module__.replace("repro.", "", 1)
            after = None
            if cls is ComputeOperator:
                after = computed
            elif issubclass(cls, _SpillingGroupByBase):
                after = grouped
            self.wrap(cls, "run", layer, span=True, after=after)

        def spilled_run(_result, _args, _kwargs):
            tracer.add("sort.runs")

        self.wrap(ExternalSortOperator, "_spill", "hyracks.operators.sort",
                  after=spilled_run)
        self.wrap(_SpillingGroupByBase, "_spill_states", "hyracks.operators.groupby",
                  after=spilled_run)

    # -- connectors ------------------------------------------------------
    def _install_connectors(self):
        from repro.hyracks import connectors

        tracer = self
        timer = self.timer

        def split_counter(cls):
            original = cls.__dict__["split"]

            @functools.wraps(original)
            def wrapper(self_, sender, batch, num_consumers):
                timer.enter("hyracks.connectors")
                try:
                    per_dest = original(self_, sender, batch, num_consumers)
                finally:
                    timer.leave()
                tuples = sum(len(t) for t in per_dest)
                tracer.add("connector.tuples", tuples)
                serde = getattr(self_, "tuple_serde", None)
                if serde is not None and cls is not connectors.OneToOneConnector:
                    # The benchmark's own byte count: serde wrappers are
                    # bypassed so it does not inflate the serde counts,
                    # and its time shows as its own layer, not the
                    # caller's self time.
                    frames = timer.frames()
                    frames.serde_off = True
                    timer.enter(ACCOUNTING, frames)
                    try:
                        sizes = [
                            sum(serde.sizeof(item) for item in items)
                            for items in per_dest
                        ]
                    finally:
                        timer.leave(frames)
                        frames.serde_off = False
                    remote = sum(size for dest, size in enumerate(sizes)
                                 if dest != sender)
                    tracer.add("connector.bytes", sum(sizes))
                    tracer._execute_add("network_bytes", remote)
                return per_dest

            return wrapper

        for cls in _subclasses(connectors.ConnectorDescriptor):
            if "split" in cls.__dict__:
                self._patch(cls, "split", split_counter(cls))
            if "assemble" in cls.__dict__:
                self.wrap(cls, "assemble", "hyracks.connectors")
        self.wrap(connectors.ConnectorDescriptor, "route", "hyracks.connectors", span=True)
        self.wrap(connectors.Exchange, "send", "hyracks.connectors")

        def backpressure(_result, args, _kwargs):
            tracer.add("exchange.backpressure_waits", args[0].queue.backpressure_waits)

        self.wrap(connectors.Exchange, "collect", "hyracks.connectors", span=True,
                  after=backpressure)

    # -- engine and scheduler -------------------------------------------
    def _install_engine(self):
        from repro.hyracks.engine import HyracksCluster
        from repro.hyracks.scheduler import SequentialTaskRunner, ThreadPoolTaskRunner
        from repro.pregelix.stats import StatisticsCollector

        tracer = self
        timer = self.timer
        clock = timer.clock
        execute = HyracksCluster.__dict__["execute"]

        @functools.wraps(execute)
        def traced_execute(self_, job_spec):
            previous = tracer._current_execute()
            counts = Counter()
            tracer._local.execute = counts
            started = clock()
            try:
                result = execute(self_, job_spec)
            finally:
                tracer._local.execute = previous
                tracer.add("engine.execute_calls")
                tracer.add("engine.execute_total_s", clock() - started)
            with tracer._lock:
                tracer._execute_counts.append((result, counts))
            return result

        self._patch(HyracksCluster, "execute", traced_execute)
        self.wrap(HyracksCluster, "execute", "hyracks.engine", span=True)

        def clone_wrapper(task, submitted, parent, execute_counts):
            def run_clone():
                started = clock()
                if submitted is not None:
                    tracer.add("task.wait_total_s", started - submitted)
                previous_parent = getattr(tracer._local, "inherited_span", None)
                previous_execute = tracer._current_execute()
                tracer._local.inherited_span = parent
                tracer._local.execute = execute_counts
                timer.enter("hyracks.scheduler")
                try:
                    return task()
                finally:
                    tracer.add("task.total_s", timer.leave())
                    tracer._local.inherited_span = previous_parent
                    tracer._local.execute = previous_execute

            return run_clone

        def traced_map(original, queued):
            # Only the thread pool queues clones; the sequential runner
            # calls them one after another, with no queue to wait in.
            @functools.wraps(original)
            def wrapper(self_, tasks):
                submitted = clock() if queued else None
                parent = tracer._parent_span()
                counts = tracer._current_execute()
                wrapped = [clone_wrapper(t, submitted, parent, counts) for t in tasks]
                timer.enter(BLOCKED if queued else "hyracks.scheduler")
                try:
                    return original(self_, wrapped)
                finally:
                    timer.leave()

            return wrapper

        for runner, queued in ((SequentialTaskRunner, False), (ThreadPoolTaskRunner, True)):
            self._patch(runner, "map", traced_map(runner.__dict__["map"], queued))

        record = StatisticsCollector.__dict__["record_superstep"]

        @functools.wraps(record)
        def traced_record(self_, superstep, job_result):
            with tracer._lock:
                tracer._superstep_results.add(id(job_result))
            return record(self_, superstep, job_result)

        self._patch(StatisticsCollector, "record_superstep", traced_record)

    # -- pregelix driver, checkpoints, DFS ----------------------------------
    def _install_driver(self):
        from repro.hdfs.filesystem import MiniDFS
        from repro.pregelix.checkpoint import Checkpointer
        from repro.pregelix.runtime import PregelixDriver

        tracer = self
        outcomes = self.outcomes = []

        def finished(outcome, _args, _kwargs):
            with tracer._lock:
                outcomes.append(outcome)

        self.wrap(PregelixDriver, "run", "pregelix.runtime", span=True, after=finished)
        self.wrap(PregelixDriver, "resume", "pregelix.runtime", span=True,
                  after=finished)

        def committed(_result, _args, _kwargs):
            tracer.add("checkpoint.commits")

        self.wrap(Checkpointer, "commit", "pregelix.checkpoint", span=True,
                  after=committed)
        for attr in ("checkpoint_plan", "gc", "latest_checkpoint"):
            self.wrap(Checkpointer, attr, "pregelix.checkpoint")

        def wrote(_result, args, _kwargs):
            tracer.add("dfs.write_bytes", len(args[2]))

        def read(result, _args, _kwargs):
            tracer.add("dfs.read_bytes", len(result))

        self.wrap(MiniDFS, "write", "hdfs.filesystem", after=wrote)
        self.wrap(MiniDFS, "append", "hdfs.filesystem", after=wrote)
        self.wrap(MiniDFS, "read", "hdfs.filesystem", after=read)

    # -- serve -----------------------------------------------------------
    def _install_serve(self):
        from repro.serve.admission import AdmissionController
        from repro.serve.batching import BatchFormer
        from repro.serve.cache import LRUCache
        from repro.serve.http import _Handler
        from repro.serve.journal import Journal, LocalJournalStorage
        from repro.serve.queue import FairShareQueue
        from repro.serve.service import JobService

        tracer = self
        add = self.add

        def counted(key):
            def count(_result, _args, _kwargs):
                add(key)

            return count

        self.wrap(_Handler, "do_GET", "serve.http", span=True,
                  after=counted("http.requests"))
        self.wrap(_Handler, "do_POST", "serve.http", span=True,
                  after=counted("http.requests"))
        self.wrap(JobService, "submit", "serve.service", span=True,
                  after=counted("service.submits"))
        for attr in ("_execute", "_run_once", "_execute_batch"):
            self.wrap(JobService, attr, "serve.service", span=True)

        def finalized(result, _args, _kwargs):
            if result:
                add("service.finalized")

        self.wrap(JobService, "_finalize", "serve.service", span=True, after=finalized)

        def batch_run(_result, args, _kwargs):
            add("batch.runs")
            add("batch.lanes", len(args[1]))

        self.wrap(JobService, "_run_batch", "serve.service", span=True, after=batch_run)
        self.wrap(AdmissionController, "decide", "serve.admission")
        self.wrap(FairShareQueue, "push", "serve.queue")
        self.wrap(FairShareQueue, "remove", "serve.queue")

        def appended(_result, args, _kwargs):
            add("journal.appends")

        def stored(_result, args, _kwargs):
            add("journal.bytes", len(args[1]))

        self.wrap(Journal, "append", "serve.journal", after=appended)
        self.wrap(LocalJournalStorage, "append", "serve.journal", after=stored)

        def looked_up(result, _args, _kwargs):
            add("result_cache.lookups")
            if result is not None:
                add("result_cache.hits")

        self.wrap(LRUCache, "get", "serve.cache", after=looked_up)
        self.wrap(LRUCache, "put", "serve.cache")
        self.wrap(BatchFormer, "form", "serve.batching", span=True)

    # ------------------------------------------------------------------
    # cross-checks against what the program publishes
    # ------------------------------------------------------------------
    def _check(self, what, ours, theirs):
        self.crosschecks += 1
        if ours != theirs:
            self.crosscheck_errors.append(
                "%s: wrappers counted %r, the program reports %r" % (what, ours, theirs)
            )

    def take_execute_counts(self):
        with self._lock:
            taken = self._execute_counts
            self._execute_counts = []
            supersteps = self._superstep_results
            self._superstep_results = set()
        return taken, supersteps

    def crosscheck_job(self, outcome, cache_before, cache_after):
        """Compare one direct job's wrapper counts with the program's.

        ``cache_before``/``cache_after`` are per-node
        ``BufferCache.stats.snapshot()`` dicts around the job; the
        node-level page counts must be taken between the same two points
        (call :meth:`mark_nodes` before the job).
        """
        executes, supersteps = self.take_execute_counts()
        ours = Counter()
        for result, counts in executes:
            if id(result) in supersteps:
                ours.update(counts)
        records = outcome.stats.supersteps
        for field, key in (
            ("messages_sent", "messages"),
            ("network_bytes", "network_bytes"),
            ("cache_misses", "misses"),
            ("cache_writebacks", "writebacks"),
        ):
            self._check(
                "SuperstepStats.%s" % field,
                ours[key], sum(getattr(r, field) for r in records),
            )
        counts = self.counts
        for node, after in cache_after.items():
            before = cache_before[node]
            delta = {k: after[k] - before[k] for k in after}
            mine = {kind: counts[("node", node, kind)] - self._node_base[(node, kind)]
                    for kind in ("pins", "misses", "writebacks")}
            self._check("%s pins" % node, mine["pins"], delta["hits"] + delta["misses"])
            self._check("%s misses" % node, mine["misses"], delta["misses"])
            self._check("%s writebacks" % node, mine["writebacks"], delta["writebacks"])

    def mark_nodes(self):
        """Remember the node-level page counts at the start of a job."""
        counts = self.counts
        self._node_base = Counter({
            (key[1], key[2]): value for key, value in counts.items()
            if isinstance(key, tuple)
        })

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def layer_self(self, *layers):
        return sum(self.timer.layers.get(layer, (0, 0.0, 0.0))[2] for layer in layers)

    def metrics(self, operations, program):
        """Per-layer metrics per operation.

        :param operations: jobs (direct) or requests (serve) traced.
        :param program: counters the program publishes over the same
            window: ``evictions``, ``combined``, ``messages``,
            ``join_tuples``, ``index_probes``, ``vertices``,
            ``superstep_s`` (list), ``load_s``, ``dump_s``, ``supersteps``.
        """
        n = float(max(operations, 1))
        c = self.counts

        def per(value):
            return value / n

        pins = c["cache.pins"]
        lookups = c["result_cache.lookups"]
        messages = program.get("messages", 0)
        batch_runs = c["batch.runs"]
        out = {
            "serde.calls": per(self.timer.layers.get(SERDE, (0,))[0]),
            "serde.sizeof_calls": per(c["serde.sizeof_calls"]),
            "serde.bytes": per(c["serde.bytes"]),
            "serde.self_s": per(self.layer_self(SERDE)),
            "cache.pins": per(pins),
            "cache.hit_ratio": (pins - c["cache.misses"]) / pins if pins else 0.0,
            "cache.misses": per(c["cache.misses"]),
            "cache.evictions": per(program.get("evictions", 0)),
            "cache.writebacks": per(c["cache.writebacks"]),
            "cache.pin_s": per(self.layer_self("hyracks.storage.buffer_cache")),
            "btree.ops": per(c["btree.ops"]),
            "btree.s": per(self.layer_self("hyracks.storage.btree")),
            "lsm.flushes": per(c["lsm.flushes"]),
            "lsm.disk_components": float(self.disk_components),
            "lsm.s": per(self.layer_self("hyracks.storage.lsm_btree")),
            "spill.bytes_written": per(c["spill.bytes_written"]),
            "spill.bytes_read": per(c["spill.bytes_read"]),
            "spill.s": per(self.layer_self(
                "hyracks.storage.run_file", "hyracks.storage.file_manager")),
            "groupby.s": per(self.layer_self(
                "hyracks.operators.groupby", "hyracks.operators.sort")),
            "groupby.tuples_in": per(c["groupby.tuples_in"]),
            "groupby.combine_ratio": (
                program.get("combined", 0) / messages if messages else 0.0),
            "sort.runs": per(c["sort.runs"]),
            "connector.s": per(self.layer_self("hyracks.connectors")),
            "connector.bytes": per(c["connector.bytes"]),
            "connector.tuples": per(c["connector.tuples"]),
            "exchange.backpressure_waits": per(c["exchange.backpressure_waits"]),
            "join.s": per(self.layer_self("hyracks.operators.join", "pregelix.operators")),
            "join.tuples": per(program.get("join_tuples", 0)),
            "join.probes": per(program.get("index_probes", 0)),
            "compute.vertices": per(program.get("vertices", 0)),
            "task.s": per(c["task.total_s"]),
            "task.wait_s": per(c["task.wait_total_s"]),
            "engine.execute_calls": per(c["engine.execute_calls"]),
            "engine.execute_s": per(c["engine.execute_total_s"]),
            "driver.load_s": per(program.get("load_s", 0.0)),
            "driver.superstep_s": (
                median(program["superstep_s"]) if program.get("superstep_s") else 0.0),
            "driver.dump_s": per(program.get("dump_s", 0.0)),
            "driver.supersteps": per(program.get("supersteps", 0)),
            "checkpoint.commits": per(c["checkpoint.commits"]),
            "checkpoint.s": per(self.layer_self("pregelix.checkpoint")),
            "dfs.read_bytes": per(c["dfs.read_bytes"]),
            "dfs.write_bytes": per(c["dfs.write_bytes"]),
            "dfs.s": per(self.layer_self("hdfs.filesystem")),
            "http.requests": per(c["http.requests"]),
            "http.handler_s": per(self.layer_self("serve.http")),
            "service.submit_s": per(self._submit_seconds()),
            "journal.appends": per(c["journal.appends"]),
            "journal.append_s": per(self.layer_self("serve.journal")),
            "journal.bytes": per(c["journal.bytes"]),
            "result_cache.hit_ratio": c["result_cache.hits"] / lookups if lookups else 0.0,
            "batch.runs": per(batch_runs),
            "batch.lanes_per_run": c["batch.lanes"] / batch_runs if batch_runs else 0.0,
        }
        return out

    def _submit_seconds(self):
        return sum(
            end - start for name, _layer, start, end, _tid, _sid, _parent in self.spans
            if name == "JobService.submit"
        )

    def table(self, wall_s):
        return self_time_table(self.timer.layers, wall_s)

    def chrome_trace(self):
        """Spans as Chrome ``trace_event`` complete events (microseconds)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[2] for span in self.spans)
        events = []
        for name, layer, start, end, tid, span_id, parent in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": span_id, "parent": parent, "run": self.run_label},
            })
        return {"traceEvents": events}

    def write(self, directory, wall_s):
        """Write ``<label>.trace.json`` and ``<label>.layers.txt``."""
        os.makedirs(directory, exist_ok=True)
        trace_path = os.path.join(directory, "%s.trace.json" % self.run_label)
        with open(trace_path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        table_path = os.path.join(directory, "%s.layers.txt" % self.run_label)
        with open(table_path, "w") as handle:
            handle.write(format_table(self.table(wall_s), wall_s))
        return trace_path, table_path


def program_counters(outcomes, cache_delta):
    """Counters the program publishes for the traced driver runs.

    :param outcomes: the runs' ``JobOutcome`` objects.
    :param cache_delta: per-node ``BufferCache`` stats deltas.
    """
    records = [r for outcome in outcomes for r in outcome.stats.supersteps]
    return {
        "evictions": sum(d["evictions"] for d in cache_delta.values()),
        "messages": sum(r.messages_sent for r in records),
        "combined": sum(r.combined_messages for r in records),
        "join_tuples": sum(r.join_tuples for r in records),
        "index_probes": sum(r.index_probes for r in records),
        "vertices": sum(r.vertices_processed for r in records),
        "superstep_s": [r.elapsed for r in records],
        "load_s": sum(o.load_seconds for o in outcomes),
        "dump_s": sum(o.dump_seconds for o in outcomes),
        "supersteps": sum(o.supersteps for o in outcomes),
    }


def format_table(rows, wall_s):
    lines = [
        "self time by layer over %.3f s of traced wall time "
        "(self = duration minus nested wrapped calls on the same thread;"
        " threads add up)" % wall_s,
        "%-34s %10s %10s %10s %7s" % ("layer", "calls", "total_s", "self_s", "self%"),
    ]
    for layer, calls, total, own, share in rows:
        lines.append("%-34s %10d %10.4f %10.4f %6.1f%%" % (
            layer, calls, total, own, 100.0 * share))
    return "\n".join(lines) + "\n"


def _subclasses(root):
    """``root`` and every class derived from it that is loaded."""
    found = []
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found
