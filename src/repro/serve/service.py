"""The multi-tenant job service: one resident cluster, many jobs.

:class:`JobService` turns the one-shot driver into a long-running server
(the Quegel move: a Pregel engine becomes a query service once jobs
share the loaded infrastructure). It owns a single
:class:`~repro.hyracks.engine.HyracksCluster` and
:class:`~repro.hdfs.MiniDFS`, keeps named datasets resident in the DFS,
and executes submitted jobs concurrently on a pool of dispatcher
threads. Each job gets its own driver and a run-id-scoped temp
namespace (indexes, message files, DFS scratch) over the *shared*,
thread-safe buffer caches and file managers from DESIGN.md §13 — so
concurrent jobs are bit-identical to the same jobs run back to back.

The pipeline per submission is admission → fair-share queue → dispatch
→ (result cache) — see DESIGN.md §14. Job failures route through the
standard failure classification: transient faults are retried (bounded),
fatal ones fail only that job; the service itself never dies with a job.

Crash safety (DESIGN.md §16): with a journal attached, every lifecycle
transition is written ahead to an append-only CRC-framed WAL
(:mod:`repro.serve.journal`), so a service process that dies at any
instant can be restarted and :meth:`JobService.recover` replays the
journal — queued jobs re-enqueue, interrupted running jobs resume from
their last verified checkpoint, finished jobs re-seed the result cache
and never re-execute. Per-job wall-clock deadlines and a stuck-job
watchdog are enforced cooperatively at superstep boundaries, and
overload shedding rejects submissions with a retryable 503 before they
consume admission work.
"""

import contextlib
import hashlib
import importlib
import os
import threading
import time

from repro.common.errors import (
    DeadlineExceeded,
    JobCancelled,
    ReproError,
)
from repro.hdfs import MiniDFS
from repro.hyracks.engine import HyracksCluster
from repro.pregelix.failure import (
    HeartbeatMonitor,
    RetryPolicy,
    failure_cause,
    is_transient,
)
from repro.pregelix.multiquery import MultiQueryProgram
from repro.pregelix.runtime import PregelixDriver
from repro.serve.autoscale import Autoscaler, AutoscalePolicy
from repro.serve.batching import BatchFormer
from repro.serve.admission import (
    ADMIT,
    REJECT,
    AdmissionController,
    TenantQuota,
)
from repro.serve.api import (
    ERROR_KIND_TIMEOUT,
    REJECT_BAD_REQUEST,
    REJECT_DRAINING,
    REJECT_OVERLOADED,
    REJECT_QUARANTINED,
    REJECT_UNKNOWN_ALGORITHM,
    REJECT_UNKNOWN_DATASET,
    SERVABLE_ALGORITHMS,
    AdmissionRejected,
    JobRecord,
    JobRequest,
    JobState,
    Rejection,
    ServiceCrashed,
    advance_job_ids,
    next_job_id,
    result_document,
)
from repro.serve.cache import PlanCache, ResultCache, plan_class, result_digest
from repro.serve.history import HistorySampler
from repro.serve.jobtrace import job_trace_document
from repro.serve.journal import (
    RECORD_CANCELLED,
    RECORD_FINISHED,
    RECORD_STARTED,
    RECORD_SUBMITTED,
    open_journal,
)
from repro.serve.queue import FairShareQueue
from repro.serve.watchdog import StuckJobWatchdog
from repro.telemetry import Telemetry


class Dataset:
    """A graph kept resident in the service's DFS."""

    def __init__(self, name, path, digest, nbytes, num_files):
        self.name = name
        self.path = path
        self.digest = digest
        self.nbytes = nbytes
        self.num_files = num_files

    def to_dict(self):
        return {
            "name": self.name,
            "path": self.path,
            "digest": self.digest,
            "bytes": self.nbytes,
            "files": self.num_files,
        }


class JobService:
    """A long-running, multi-tenant Pregelix job service.

    :param num_nodes: simulated machines in the owned cluster (ignored
        when ``cluster`` is handed in).
    :param workers: dispatcher threads — the job-level concurrency.
    :param parallelism: per-job operator-clone concurrency (DESIGN.md §13).
    :param quotas: ``{tenant: TenantQuota}``.
    :param result_cache_capacity: LRU entries (0 disables result caching).
    :param job_attempts: executions per job before a recoverable failure
        becomes the job's final FAILED state (transients within a run are
        already retried by the driver; this covers whole-run replays).
    :param autoscale: an :class:`~repro.serve.autoscale.AutoscalePolicy`
        or a ``"MIN:MAX"`` string — lets the service grow/shrink the
        cluster with load (nodes join and drain at superstep boundaries;
        results stay byte-identical because the partition *count* is
        pinned at construction, see ``virtual_partitions``).
    :param journal: crash-safety WAL — a
        :class:`~repro.serve.journal.Journal`, a DFS path string
        (``/serve/journal.wal``-style), or a local directory/file path
        (survives ``kill -9``); ``None`` disables journaling.
    :param default_deadline_seconds: wall-clock budget applied to
        submissions that do not carry their own ``deadline_seconds``.
    :param checkpoint_interval: superstep interval forced onto served
        jobs when a journal is attached (resume needs checkpoints to
        land on); jobs that already set one keep theirs. 0 disables.
    :param shed_queue_depth: queue depth at which new submissions are
        shed with a retryable ``overloaded`` rejection (None = never).
    :param shed_append_seconds: rolling journal-append latency at which
        submissions are shed (None = never).
    :param watchdog: ``False`` disables the stuck-job watchdog;
        ``None``/``True`` runs it with defaults; a
        :class:`~repro.serve.watchdog.StuckJobWatchdog` is used as-is.
    :param batch_max: coalesce up to this many compatible queued point
        queries (same dataset × algorithm × plan bit-identity class ×
        limits) into one multi-query dataflow run (DESIGN.md §17); 1
        disables batching.
    :param batch_window: seconds of queue time a batchable leader waits
        for companions before dispatching.
    :param history_interval: seconds between health-history samples
        (queue depth, node counts, cache hit ratio, journal latency,
        per-tenant virtual time — the ``GET /stats/history`` window);
        ``None``/0 disables the sampler.
    :param history_capacity: retained history samples (ring buffer).
    """

    def __init__(
        self,
        num_nodes=4,
        workers=2,
        parallelism=1,
        node_memory_bytes=None,
        quotas=None,
        default_quota=None,
        aging_rate=1.0,
        result_cache_capacity=64,
        job_attempts=2,
        telemetry=None,
        cluster=None,
        dfs=None,
        autoscale=None,
        autoscale_interval=0.25,
        journal=None,
        default_deadline_seconds=None,
        checkpoint_interval=2,
        shed_queue_depth=None,
        shed_append_seconds=None,
        watchdog=None,
        batch_max=1,
        batch_window=0.25,
        history_interval=0.5,
        history_capacity=600,
    ):
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if cluster is None:
            kwargs = {"num_nodes": num_nodes, "telemetry": self.telemetry,
                      "parallelism": parallelism}
            if node_memory_bytes is not None:
                kwargs["node_memory_bytes"] = int(node_memory_bytes)
            cluster = HyracksCluster(**kwargs)
            self._owns_cluster = True
        else:
            self._owns_cluster = False
        self.cluster = cluster
        if getattr(cluster, "virtual_partitions", None) is None:
            # Pin the data-partition count at the starting size: every
            # job keeps the same hash(vid) % N no matter how the node
            # set breathes, so results are byte-stable under scaling.
            cluster.virtual_partitions = cluster.num_partitions
        self.heartbeats = HeartbeatMonitor(cluster, telemetry=self.telemetry)
        self.autoscaler = None
        if autoscale is not None:
            policy = (
                autoscale
                if isinstance(autoscale, AutoscalePolicy)
                else AutoscalePolicy.parse(autoscale)
            )
            self.autoscaler = Autoscaler(self, policy, interval=autoscale_interval)
        self.dfs = dfs if dfs is not None else MiniDFS(datanodes=cluster.node_ids())
        self.admission = AdmissionController(
            cluster, quotas=quotas, default_quota=default_quota,
            telemetry=self.telemetry,
        )
        self.queue = FairShareQueue(aging_rate=aging_rate)
        for tenant, quota in self.admission.quotas.items():
            self.queue.set_weight(tenant, quota.weight)
        self.result_cache = (
            ResultCache(result_cache_capacity, telemetry=self.telemetry)
            if result_cache_capacity
            else None
        )
        self.plan_cache = PlanCache()
        self.job_attempts = max(int(job_attempts), 1)
        self.datasets = {}
        self.jobs = {}
        self.started_at = None
        self._num_workers = max(int(workers), 1)
        self._threads = []
        self._lock = threading.RLock()
        self._capacity = threading.Condition(self._lock)
        self._reserved_bytes = 0
        self._running = {}  # job_id -> JobRecord popped off the queue
        self._executing = {}  # job_id -> JobRecord past the dispatch gate
        self._state = "new"  # new / serving / draining / stopped / crashed
        self._rejections = 0
        self._shed = 0
        self._deadline_exceeded = 0
        self.default_deadline_seconds = default_deadline_seconds
        self.checkpoint_interval = checkpoint_interval
        self.shed_queue_depth = shed_queue_depth
        self.shed_append_seconds = shed_append_seconds
        # Poison-job quarantine: request identity -> strike bookkeeping.
        self._poison_strikes = {}
        self._quarantine = {}
        self.journal = None
        if journal is not None:
            self.journal = open_journal(
                journal,
                telemetry=self.telemetry,
                # Resolved per append: chaos attaches its injector to the
                # DFS after the service is constructed.
                fault_injector=lambda: getattr(self.dfs, "fault_injector", None),
                retry=RetryPolicy(telemetry=self.telemetry),
                dfs=self.dfs,
            )
        self.watchdog = None
        if watchdog is not False:
            self.watchdog = (
                watchdog
                if isinstance(watchdog, StuckJobWatchdog)
                else StuckJobWatchdog(self)
            )
        self.batcher = None
        if batch_max is not None and int(batch_max) > 1:
            self.batcher = BatchFormer(
                self, batch_max=batch_max, batch_window=batch_window
            )
        self.history = None
        if history_interval:
            self.history = HistorySampler(
                self, interval=history_interval, capacity=history_capacity
            )

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def add_dataset(self, name, vertices=None, local_dir=None, num_files=None):
        """Load a graph into the resident DFS under ``/serve/datasets/``.

        :param vertices: an iterable of ``(vid, value, edges)`` tuples, or
        :param local_dir: a directory of part files to ingest verbatim.
        """
        from repro.graphs.io import write_graph_to_dfs

        if (vertices is None) == (local_dir is None):
            raise ReproError("add_dataset needs exactly one of vertices/local_dir")
        path = "/serve/datasets/%s" % name
        if num_files is None:
            num_files = max(len(self.cluster.alive_node_ids()), 1)
        if vertices is not None:
            write_graph_to_dfs(self.dfs, path, iter(vertices), num_files=num_files)
        else:
            part_files = sorted(
                entry for entry in os.listdir(local_dir)
                if os.path.isfile(os.path.join(local_dir, entry))
            )
            if not part_files:
                raise ReproError("no input files in %s" % local_dir)
            for entry in part_files:
                with open(os.path.join(local_dir, entry)) as handle:
                    self.dfs.write("%s/%s" % (path, entry), handle.read())
        digest = hashlib.sha256()
        files = sorted(self.dfs.list_files(path))
        for file_path in files:
            digest.update(file_path.encode())
            digest.update(self.dfs.read(file_path))
        dataset = Dataset(
            name=name,
            path=path,
            digest=digest.hexdigest()[:16],
            nbytes=self.dfs.total_bytes(path),
            num_files=len(files),
        )
        with self._lock:
            self.datasets[name] = dataset
        self.telemetry.event(
            "serve.dataset", category="serve", dataset=name,
            bytes=dataset.nbytes, digest=dataset.digest,
        )
        return dataset

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        with self._lock:
            if self._state == "serving":
                return self
            if self._state == "stopped":
                raise ReproError("service already stopped")
            if self._state == "crashed":
                raise ReproError(
                    "service crashed; build a fresh JobService over the "
                    "same journal and call recover()"
                )
            self._state = "serving"
            self.started_at = time.time()
            for i in range(self._num_workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name="serve-worker-%d" % i,
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        if self.autoscaler is not None:
            # Enter the configured band before serving traffic.
            policy = self.autoscaler.policy
            current = len(self.cluster.schedulable_node_ids())
            target = min(max(current, policy.min_nodes), policy.max_nodes)
            if target != current:
                self.cluster.scale_to(target)
            self.autoscaler.start()
        if self.watchdog is not None:
            self.watchdog.start()
        if self.history is not None:
            self.history.start()
        self.telemetry.event(
            "serve.start", category="serve", workers=self._num_workers,
            nodes=len(self.cluster.nodes),
        )
        return self

    def drain(self, timeout=None):
        """Stop admitting, finish every queued and in-flight job.

        Returns ``True`` when everything completed within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if self._state == "serving":
                self._state = "draining"
        self.telemetry.event("serve.drain", category="serve")
        while True:
            with self._lock:
                if self._state == "crashed":
                    return False  # nothing will finish; the journal has it
                idle = not self._running and len(self.queue) == 0
            if idle:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.01)

    def shutdown(self, drain=True, timeout=None):
        """Drain (optionally), stop the workers, release the cluster."""
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self.watchdog is not None:
            self.watchdog.stop()
        if self.history is not None:
            self.history.stop()
        drained = self.drain(timeout=timeout) if drain else False
        if not drain:
            with self._lock:
                if self._state != "crashed":
                    self._state = "draining"
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._lock:
            if self._state != "crashed":
                self._state = "stopped"
        if self._owns_cluster:
            self.cluster.close()
        self.telemetry.event("serve.stop", category="serve", drained=drained)
        return drained

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # restart recovery (DESIGN.md §16)
    # ------------------------------------------------------------------
    def recover(self):
        """Replay the journal into live state — the restart half.

        Call on a fresh service (datasets re-registered first) built
        over the previous process's journal. Per journaled job:

        * ``finished`` → a terminal record; a succeeded one re-seeds the
          result cache from its journaled key, so the job is never
          re-executed.
        * ``cancelled`` → stays cancelled.
        * ``started`` with no terminal record → re-queued carrying its
          run id and plan signature; it resumes from its last verified
          checkpoint (or restarts fresh under the same pinned plan when
          no checkpoint committed).
        * ``submitted`` only → simply re-queued.

        Also advances the job-id counter past every journaled id.
        Returns a summary document.
        """
        if self.journal is None:
            raise ReproError("recover() requires a journal")
        replay = self.journal.replay()
        jobs = replay.by_job()
        summary = {
            "jobs": len(jobs), "finished": 0, "cancelled": 0,
            "resumed": 0, "requeued": 0, "skipped": 0,
            "torn_bytes": replay.torn_bytes,
        }
        for job_id, entry in jobs.items():
            advance_job_ids(job_id)
            submitted = entry.get(RECORD_SUBMITTED)
            if submitted is None:
                summary["skipped"] += 1
                continue  # cannot reconstruct a request that never logged
            try:
                request = JobRequest.from_dict(submitted.get("request"))
            except ValueError:
                summary["skipped"] += 1
                continue
            record = JobRecord(job_id=job_id, request=request)
            record.recovered = True
            record.deadline_seconds = submitted.get("deadline_seconds")
            record.estimated_bytes = int(submitted.get("estimated_bytes") or 0)
            finished = entry.get(RECORD_FINISHED)
            cancelled = entry.get(RECORD_CANCELLED)
            started = entry.get(RECORD_STARTED)
            with self._lock:
                self.jobs[job_id] = record
            if finished is not None:
                record.run_id = finished.get("run_id")
                record.cache_hit = bool(finished.get("cache_hit"))
                if finished.get("state") == JobState.SUCCEEDED.value:
                    record.result = finished.get("result")
                    record.result_digest = finished.get("digest")
                    key = finished.get("cache_key")
                    if (
                        key is not None
                        and record.result is not None
                        and self.result_cache is not None
                        and request.use_cache
                    ):
                        record.cache_key = tuple(key)
                        self.result_cache.put(record.cache_key, record.result)
                    record.mark(JobState.SUCCEEDED)
                else:
                    record.error = finished.get("error")
                    record.error_kind = finished.get("error_kind")
                    record.mark(JobState.FAILED)
                summary["finished"] += 1
            elif cancelled is not None:
                record.error = cancelled.get("error") or "cancelled"
                record.error_kind = "cancelled"
                record.mark(JobState.CANCELLED)
                summary["cancelled"] += 1
            else:
                if started is not None:
                    record.plan_signature = started.get("plan")
                    if started.get("batch"):
                        # A batched run's checkpoints hold wrapped
                        # multi-lane state, so a member interrupted
                        # mid-batch is never resumed — it re-runs solo
                        # under the journaled plan pin, landing in the
                        # same bit-identity class (hence same digest).
                        # This is the "never a half-batch" invariant:
                        # every member is individually terminal or
                        # individually re-queued.
                        record.no_batch = True
                        summary["requeued"] += 1
                    else:
                        record.resume_run_id = started.get("run_id")
                        summary["resumed"] += 1
                else:
                    summary["requeued"] += 1
                with self._lock:
                    record.mark(JobState.QUEUED)
                    self.queue.push(request.tenant, record)
                    self._observe_queue_depth()
        self.telemetry.event("serve.recover", category="serve", **summary)
        return summary

    # ------------------------------------------------------------------
    # crash simulation (the service.crash chaos site)
    # ------------------------------------------------------------------
    def _crash_check(self, phase, **info):
        """Consult the ``service.crash`` chaos site; die if it fires.

        The injector's ``node`` field carries the lifecycle phase
        (``queued`` / ``dispatch`` / ``running`` / ``finishing``) so a
        drill can pick exactly where the process dies.
        """
        injector = getattr(self.dfs, "fault_injector", None)
        if injector is None:
            injector = getattr(self.cluster, "fault_injector", None)
        if injector is None:
            return
        try:
            injector.check("service.crash", node=phase, **info)
        except ReproError as failure:
            self._simulate_crash(phase)
            raise ServiceCrashed(phase) from failure

    def _simulate_crash(self, phase):
        """Everything a SIGKILL does, minus exiting the test process:
        no more admissions, no more journal writes, worker threads
        unwind at their next control point, queued work is abandoned in
        place. Only the journal (and committed checkpoints) carry the
        service's obligations forward."""
        with self._lock:
            if self._state == "crashed":
                return
            self._state = "crashed"
        if self.journal is not None:
            self.journal.freeze()
        self.queue.close()
        self.telemetry.event("serve.crash", category="serve", phase=phase)
        self.telemetry.registry.counter("serve.crashes").inc()

    # ------------------------------------------------------------------
    # terminal transitions
    # ------------------------------------------------------------------
    def _finalize(self, record, state, error=None, error_kind=None, reason=None):
        """The single path to a terminal state: idempotent mark + WAL.

        Returns ``False`` with no side effects when the record is
        already terminal — this is what makes a cancel racing a
        completion deterministic: whichever transition gets here first
        wins, and the loser observes the winner's state instead of
        silently overwriting it.
        """
        with self._lock:
            if record.state.terminal:
                return False
            if error is not None:
                record.error = error
                record.error_kind = error_kind
            record.mark(state)
        tenant = record.request.tenant
        # serve.succeeded / serve.failed / serve.cancelled
        self.telemetry.registry.counter("serve." + state.value, tenant=tenant).inc()
        self._observe_latency(record, tenant)
        self._journal_finished(record, state, reason=reason)
        return True

    def _observe_latency(self, record, tenant):
        """Per-tenant latency histograms, recorded exactly once per job
        at this single terminal seam. Phases the job never entered
        (a cache hit has no queue wait or run) are simply absent."""
        breakdown = record.span_breakdown()
        for which, key in (
            ("e2e", "end_to_end_seconds"),
            ("queue_wait", "queue_wait_seconds"),
            ("run", "run_seconds"),
        ):
            value = breakdown[key]
            if value is not None:
                self.telemetry.registry.histogram(
                    "serve.latency.%s_seconds" % which, tenant=tenant
                ).observe(value)

    def _journal_finished(self, record, state, reason=None):
        if self.journal is None:
            return
        try:
            if state is JobState.CANCELLED:
                self.journal.append(
                    RECORD_CANCELLED, record.job_id,
                    reason=reason or record.cancel_requested or "user",
                    error=record.error,
                )
                return
            fields = {
                "state": state.value,
                "run_id": record.run_id,
                "cache_hit": record.cache_hit,
            }
            if state is JobState.SUCCEEDED:
                fields["result"] = record.result
                fields["digest"] = record.result_digest
                if record.cache_key is not None:
                    fields["cache_key"] = list(record.cache_key)
            else:
                fields["error"] = record.error
                fields["error_kind"] = record.error_kind
            self.journal.append(RECORD_FINISHED, record.job_id, **fields)
        except ServiceCrashed:
            pass  # frozen journal: the restart will re-drive this job
        except ReproError as error:
            # A journal fault must not turn a finished job into a failed
            # one; worst case the restart re-executes it, landing on the
            # same digest.
            self.telemetry.event(
                "serve.journal.error", category="serve",
                job_id=record.job_id, error=str(error),
            )

    # ------------------------------------------------------------------
    # poison-job quarantine
    # ------------------------------------------------------------------
    def _strike(self, record, error):
        """Count one deterministic failure; quarantine at two strikes."""
        key = record.request.poison_key()
        with self._lock:
            strikes = self._poison_strikes.get(key, 0) + 1
            self._poison_strikes[key] = strikes
            newly_quarantined = strikes >= 2 and key not in self._quarantine
            if newly_quarantined:
                self._quarantine[key] = {
                    "algorithm": record.request.algorithm,
                    "dataset": record.request.dataset,
                    "params_key": record.request.params_key(),
                    "strikes": strikes,
                    "last_error": str(error),
                    "job_id": record.job_id,
                }
            elif key in self._quarantine:
                self._quarantine[key]["strikes"] = strikes
        if newly_quarantined:
            self.telemetry.event(
                "serve.quarantine", category="serve", job_id=record.job_id,
                key=key, strikes=strikes,
            )
            self.telemetry.registry.counter("serve.quarantined").inc()
        return strikes

    def clear_quarantine(self, key=None):
        """Operator hook: forgive one poison key (or all of them)."""
        with self._lock:
            if key is None:
                cleared = len(self._quarantine)
                self._quarantine.clear()
                self._poison_strikes.clear()
            else:
                cleared = 1 if self._quarantine.pop(key, None) is not None else 0
                self._poison_strikes.pop(key, None)
        return cleared

    # ------------------------------------------------------------------
    # watchdog surface
    # ------------------------------------------------------------------
    def executing_records(self):
        """Snapshot of jobs past the dispatch gate (for the watchdog)."""
        with self._lock:
            return list(self._executing.values())

    def flag_stuck(self, record, stall_seconds, threshold_seconds):
        """Watchdog callback: cooperatively cancel a wedged run."""
        with self._lock:
            if record.state.terminal or record.cancel_requested:
                return False
            record.cancel_requested = "stuck"
        self.telemetry.event(
            "serve.watchdog.flag", category="serve", job_id=record.job_id,
            stall_seconds=round(stall_seconds, 3),
            threshold_seconds=round(threshold_seconds, 3),
        )
        self.telemetry.registry.counter("serve.watchdog_flagged").inc()
        return True

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request):
        """Admit ``request``; returns its :class:`JobRecord`.

        Raises :class:`AdmissionRejected` (with a structured
        :class:`Rejection`) instead of queueing work that cannot run.
        A result-cache hit returns an already-SUCCEEDED record without
        touching the queue.
        """
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        self.telemetry.event(
            "serve.submit", category="serve", tenant=request.tenant,
            algorithm=request.algorithm, dataset=request.dataset,
        )
        self.telemetry.registry.counter("serve.submitted", tenant=request.tenant).inc()
        # Overload shedding runs first: when the service is drowning,
        # the cheapest possible answer — before validation even builds a
        # throwaway job — is the retryable 503.
        rejection = self._shed_check()
        if rejection is not None:
            self._shed += 1
            self.telemetry.registry.counter("serve.shed").inc()
            return self._reject(request, rejection)
        rejection = self._validate(request)
        if rejection is not None:
            return self._reject(request, rejection)
        with self._lock:
            quarantined = self._quarantine.get(request.poison_key())
        if quarantined is not None:
            return self._reject(request, Rejection(
                code=REJECT_QUARANTINED,
                reason="request matches a quarantined poison job "
                       "(%d deterministic failures)" % quarantined["strikes"],
                details=dict(quarantined),
            ))

        dataset = self.datasets[request.dataset]
        record = JobRecord(job_id=next_job_id(), request=request)
        record.deadline_seconds = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self.default_deadline_seconds
        )

        # Serve repeats straight from the cache — no admission, no queue.
        cached = self._cached_result(request, dataset)
        if cached is not None:
            record.cache_hit = True
            record.result = dict(cached)
            record.result_digest = result_digest(record.result)
            rejection = self._journal_submitted(record)
            if rejection is not None:
                return self._reject(request, rejection)
            with self._lock:
                self.jobs[record.job_id] = record
            self._complete(record)
            return record

        rejection = None
        with self.telemetry.span(
            "admission", category="serve", job_id=record.job_id,
            tenant=request.tenant,
        ), self._lock:
            decision = self.admission.decide(
                request,
                dataset_bytes=dataset.nbytes,
                running_estimated_bytes=self._reserved_bytes,
                running_by_tenant=self._tenant_running(request.tenant),
                queued_by_tenant=self.queue.depth(request.tenant),
            )
            if decision.action == REJECT:
                pass  # fall through to the structured reject below
            else:
                record.estimated_bytes = decision.estimated_bytes
                # The WAL write happens before the job becomes visible:
                # once a client can observe QUEUED, a crash can no
                # longer lose the submission.
                rejection = self._journal_submitted(record)
                if rejection is None:
                    self.jobs[record.job_id] = record
                    record.mark(JobState.QUEUED)
                    self.queue.push(request.tenant, record)
                    self._observe_queue_depth()
        if decision.action == REJECT:
            return self._reject(request, decision.rejection)
        if rejection is not None:
            return self._reject(request, rejection)
        self._crash_check("queued", job_id=record.job_id)
        self.telemetry.event(
            "serve.admit", category="serve", job_id=record.job_id,
            tenant=request.tenant, action=decision.action,
            estimated_bytes=decision.estimated_bytes, reason=decision.reason,
        )
        return record

    def _shed_check(self):
        """Overload shedding (DESIGN.md §16): a retryable rejection when
        the queue is too deep or the journal's rolling append latency
        says durable writes can no longer keep up with arrivals."""
        if self.shed_queue_depth is not None:
            depth = len(self.queue)
            if depth >= self.shed_queue_depth:
                return Rejection(
                    code=REJECT_OVERLOADED,
                    reason="queue depth %d at shed threshold %d"
                           % (depth, self.shed_queue_depth),
                    details={
                        "queue_depth": depth,
                        "threshold": self.shed_queue_depth,
                        "retry_after_seconds": 1,
                    },
                )
        if self.journal is not None and self.shed_append_seconds is not None:
            avg = self.journal.avg_append_seconds()
            if avg > self.shed_append_seconds:
                return Rejection(
                    code=REJECT_OVERLOADED,
                    reason="journal append latency %.4fs over shed "
                           "threshold %.4fs" % (avg, self.shed_append_seconds),
                    details={
                        "avg_append_seconds": avg,
                        "threshold_seconds": self.shed_append_seconds,
                        "retry_after_seconds": 2,
                    },
                )
        return None

    def _journal_submitted(self, record):
        """WAL the submission; a down journal sheds instead of enqueueing
        work the service could not recover after a crash."""
        if self.journal is None:
            return None
        try:
            self.journal.append(
                RECORD_SUBMITTED, record.job_id,
                request=record.request.to_dict(),
                estimated_bytes=record.estimated_bytes,
                deadline_seconds=record.deadline_seconds,
            )
            return None
        except ServiceCrashed:
            raise
        except ReproError as error:
            self.telemetry.event(
                "serve.journal.error", category="serve",
                job_id=record.job_id, error=str(error),
            )
            return Rejection(
                code=REJECT_OVERLOADED,
                reason="journal unavailable: %s" % error,
                details={"retry_after_seconds": 1},
            )

    def _validate(self, request):
        with self._lock:
            if self._state != "serving":
                return Rejection(
                    code=REJECT_DRAINING,
                    reason="service is %s and not accepting jobs" % self._state,
                    details={"state": self._state},
                )
        if request.algorithm not in SERVABLE_ALGORITHMS:
            return Rejection(
                code=REJECT_UNKNOWN_ALGORITHM,
                reason="unknown algorithm %r" % request.algorithm,
                details={"known": sorted(SERVABLE_ALGORITHMS)},
            )
        if request.dataset not in self.datasets:
            return Rejection(
                code=REJECT_UNKNOWN_DATASET,
                reason="unknown dataset %r" % request.dataset,
                details={"known": sorted(self.datasets)},
            )
        if request.plan is not None:
            try:
                self._parse_plan(request.plan)
            except ValueError as error:
                return Rejection(
                    code=REJECT_BAD_REQUEST,
                    reason=str(error),
                    details={"plan": request.plan},
                )
        try:
            # Front-load parameter errors: a job that cannot even be
            # constructed must never consume a queue slot.
            self._build_job(request)
        except (ReproError, TypeError, ValueError) as error:
            return Rejection(
                code=REJECT_BAD_REQUEST,
                reason=str(error),
                details={"params": dict(request.params)},
            )
        return None

    def _reject(self, request, rejection):
        self._rejections += 1
        self.telemetry.event(
            "serve.reject", category="serve", tenant=request.tenant,
            code=rejection.code, reason=rejection.reason,
        )
        self.telemetry.registry.counter(
            "serve.rejected", tenant=request.tenant, code=rejection.code
        ).inc()
        raise AdmissionRejected(rejection)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id):
        with self._lock:
            return self.jobs.get(job_id)

    def cancel_job(self, job_id, reason="user"):
        """Cancel a job; returns a structured status document.

        ``status`` is one of:

        * ``cancelled`` — the job was still queued; it is now terminal.
        * ``cancelling`` — the job is running; the cooperative cancel
          flag is set and honored at its next superstep boundary.
        * ``terminal`` — the job already finished. Its final state is
          included, so a cancel racing a completion is deterministic:
          whichever transition committed first wins and the caller is
          told exactly what won, never a false ``cancelled``.
        * ``not_found`` — no such job.
        """
        with self._lock:
            record = self.jobs.get(job_id)
            if record is None:
                return {"job_id": job_id, "status": "not_found",
                        "cancelled": False}
            if record.state.terminal:
                return {"job_id": job_id, "status": "terminal",
                        "state": record.state.value, "cancelled": False}
            removed = 0
            if record.state is JobState.QUEUED:
                removed = self.queue.remove(lambda item: item.job_id == job_id)
                if removed:
                    self._observe_queue_depth()
            if not removed:
                # Running, or queued-but-already-popped: cooperative.
                record.cancel_requested = record.cancel_requested or reason
                self.telemetry.event(
                    "serve.cancel", category="serve", job_id=job_id,
                    status="cancelling", reason=reason,
                )
                return {"job_id": job_id, "status": "cancelling",
                        "state": record.state.value, "cancelled": False}
        self._finalize(record, JobState.CANCELLED,
                       error="cancelled while queued",
                       error_kind="cancelled", reason=reason)
        self.telemetry.event(
            "serve.cancel", category="serve", job_id=job_id,
            status="cancelled", reason=reason,
        )
        return {"job_id": job_id, "status": "cancelled",
                "state": record.state.value, "cancelled": True}

    def cancel(self, job_id):
        """Boolean convenience: ``True`` only for a queued-job cancel."""
        return self.cancel_job(job_id)["status"] == "cancelled"

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def scale_to(self, target):
        """Manually resize the cluster (the ``POST /cluster/scale`` path).

        Takes effect at running jobs' next superstep boundaries; new
        jobs see the new size immediately. Returns a summary document.
        """
        target = int(target)
        if self.autoscaler is not None:
            policy = self.autoscaler.policy
            if not policy.min_nodes <= target <= policy.max_nodes:
                raise ValueError(
                    "target %d outside the autoscale range %d:%d"
                    % (target, policy.min_nodes, policy.max_nodes)
                )
        added, draining = self.cluster.scale_to(target)
        self.telemetry.event(
            "serve.scale", category="serve", direction="manual", target=target,
            added=len(added), draining=len(draining),
        )
        return {
            "target": target,
            "added": added,
            "draining": draining,
            "schedulable": len(self.cluster.schedulable_node_ids()),
        }

    def cluster_stats(self):
        """Per-node membership + liveness (the ``/stats`` cluster section)."""
        self.heartbeats.observe()
        self.cluster.reap_draining_nodes()
        nodes = []
        for node_id, node in list(self.cluster.nodes.items()):
            missed = self.heartbeats.missed.get(node_id, 0)
            nodes.append({
                "node": node_id,
                "alive": node.alive,
                "draining": node.draining,
                "inflight": node.inflight,
                "missed_heartbeats": missed,
                "suspect": node_id in self.heartbeats.dead or missed > 0,
            })
        doc = {
            "nodes": nodes,
            "schedulable": len(self.cluster.schedulable_node_ids()),
            "draining": len(self.cluster.draining_node_ids()),
            "retired": list(self.cluster.retired_nodes),
            "epoch": self.cluster.membership_epoch,
            "virtual_partitions": self.cluster.virtual_partitions,
        }
        if self.autoscaler is not None:
            doc["autoscaler"] = self.autoscaler.state()
        return doc

    def stats(self):
        cluster_doc = self.cluster_stats()
        with self._lock:
            by_state = {}
            for record in self.jobs.values():
                by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
            doc = {
                "state": self._state,
                "uptime_seconds": (
                    time.time() - self.started_at if self.started_at else 0.0
                ),
                "workers": self._num_workers,
                "nodes": len(self.cluster.alive_node_ids()),
                "cluster": cluster_doc,
                "jobs": by_state,
                "jobs_total": len(self.jobs),
                "rejected": self._rejections,
                "shed": self._shed,
                "deadline_exceeded": self._deadline_exceeded,
                "quarantine": {
                    key: dict(info) for key, info in self._quarantine.items()
                },
                "running": sorted(self._running),
                "queue_depth": len(self.queue),
                "queue_by_tenant": self.queue.depth_by_tenant(),
                "reserved_bytes": self._reserved_bytes,
                "datasets": {
                    name: ds.to_dict() for name, ds in self.datasets.items()
                },
                "plan_cache_entries": len(self.plan_cache),
            }
            if self.batcher is not None:
                doc["batch"] = self.batcher.stats()
        if self.result_cache is not None:
            doc["result_cache"] = self.result_cache.stats()
        if self.journal is not None:
            doc["journal"] = self.journal.stats()
        if self.watchdog is not None:
            doc["watchdog"] = self.watchdog.state()
        doc["jobs_executed"] = self.cluster.jobs_executed
        doc["latency"] = self.latency_stats()
        return doc

    def latency_stats(self):
        """Per-tenant latency summaries (the ``/stats`` latency section).

        Read from the same histograms ``/metrics`` exposes, so the two
        surfaces always agree on the distribution's sum and count.
        """
        doc = {}
        prefix = "serve.latency."
        for metric in self.telemetry.registry.iter_metrics():
            if metric.kind != "histogram" or not metric.name.startswith(prefix):
                continue
            which = metric.name[len(prefix):]
            if which.endswith("_seconds"):
                which = which[: -len("_seconds")]
            tenant = dict(metric.labels).get("tenant", "")
            doc.setdefault(tenant, {})[which] = metric.summary()
        return doc

    def job_trace(self, job_id):
        """The assembled per-job Chrome trace document, or ``None``.

        Contains the job's engine/driver spans (selected by the scoped
        tracer's ``job_id``/``run_id`` stamps — batched jobs get the
        shared run's spans plus only their own lane) and synthetic
        queue-wait/run/fan-out lifecycle spans from the record's trace
        marks.
        """
        record = self.get(job_id)
        if record is None:
            return None
        return job_trace_document(self.telemetry, record)

    def healthy(self):
        with self._lock:
            return self._state in ("serving", "draining") and bool(
                self.cluster.alive_node_ids()
            )

    def health_document(self):
        """The ``/healthz`` payload: liveness plus per-node degradation.

        ``ok`` keeps its PR-5 meaning (the service can serve at all);
        ``degraded`` flags suspect machines — a node with missed
        heartbeats or one declared dead — without failing the probe, so
        orchestrators keep routing while operators get paged.
        """
        cluster_doc = self.cluster_stats()
        suspects = [n["node"] for n in cluster_doc["nodes"] if n["suspect"]]
        with self._lock:
            state = self._state
        return {
            "ok": self.healthy(),
            "state": state,
            "degraded": bool(suspects),
            "suspect_nodes": suspects,
            "nodes_alive": sum(1 for n in cluster_doc["nodes"] if n["alive"]),
            "nodes_schedulable": cluster_doc["schedulable"],
            "nodes_draining": cluster_doc["draining"],
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _worker_loop(self):
        while True:
            record = self.queue.pop(timeout=0.1)
            with self._lock:
                if self._state == "crashed":
                    # The "process" died. Anything still queued — even a
                    # record just popped — is abandoned in place; only
                    # the journal carries it across the restart.
                    return
            if record is None:
                with self._lock:
                    if self._state in ("draining", "stopped") and len(self.queue) == 0:
                        return
                continue
            if record.state is not JobState.QUEUED:
                continue  # cancelled while queued but before removal
            record.mark_trace("dequeued")
            self._observe_queue_depth()
            members = self.batcher.form(record) if self.batcher is not None else None
            try:
                self._dispatch(members or [record])
            except ServiceCrashed:
                return  # this worker thread died with the process

    def _dispatch(self, members):
        """Gate + execute + release for one run unit of N members.

        The unit reserves its merged working-set estimate (one shared
        dataset scan plus per-lane growth; a lone member's own
        estimate), occupies one worker, and shows every member in
        ``_running``/``_executing`` so drain, stats, tenant quotas and
        the watchdog keep seeing N independent jobs.
        """
        estimate = (
            self.batcher.merged_estimate(members)
            if len(members) > 1 else members[0].estimated_bytes
        )
        with self._capacity:
            for record in members:
                record.mark_trace("dequeued")  # companions left the queue too
                # Visible to drain() from the moment it left the queue.
                self._running[record.job_id] = record
            while not self._may_start(members, estimate):
                self._capacity.wait(timeout=0.5)
            self._reserved_bytes += estimate
            for record in members:
                self._executing[record.job_id] = record
        try:
            if len(members) == 1:
                self._execute(members[0])
            else:
                self._execute_batch(members)
        finally:
            with self._capacity:
                self._reserved_bytes -= estimate
                for record in members:
                    # pop: a re-queued member may already be re-dispatched.
                    self._executing.pop(record.job_id, None)
                    self._running.pop(record.job_id, None)
                self._capacity.notify_all()

    def _may_start(self, members, estimate):
        """Dispatch gate: never over-commit memory or a tenant's run cap."""
        if self._reserved_bytes == 0 and not self._executing:
            return True  # a lone unit may always run (it passed admission)
        for tenant in {record.request.tenant for record in members}:
            quota = self.admission.quota(tenant)
            if self._tenant_running(tenant) >= quota.max_running:
                return False
        capacity = self.admission.aggregate_capacity()
        free = min(self.admission.aggregate_free(), capacity - self._reserved_bytes)
        return estimate <= free

    def _tenant_running(self, tenant):
        return sum(
            1 for record in self._executing.values()
            if record.request.tenant == tenant
        )

    def _observe_queue_depth(self):
        self.telemetry.registry.gauge("serve.queue_depth").set(len(self.queue))

    # ------------------------------------------------------------------
    # execution: one path over a run unit (DESIGN.md §17)
    # ------------------------------------------------------------------
    def _execute(self, record):
        """Execute a solo job: a run unit of one."""
        self._execute_unit([record])

    def _execute_batch(self, members):
        """Execute N>1 batched point queries as one run unit."""
        self._execute_unit(members)

    def _execute_unit(self, members):
        """Drive a run unit until every member is terminal or re-queued.

        Every unit size shares the run body (:meth:`_run_unit`), the
        boundary hook, finalize, and the deadline and cancel handlers.
        Only the policy for a failed run depends on the size, on purpose:

        * N=1 retries transients and takes stuck strikes (one free
          retry, then FAILED ``stuck`` and quarantine), and resumes from
          a journaled checkpoint.
        * N>1 never retries and never resumes: on any failure of the
          shared run — a stuck flag on any live member included — its
          live members re-queue to run solo (``no_batch``), where the
          N=1 rules decide.
        * Spans of an N>1 run carry its run id but no ``job_id``: that
          engine work is every member's, and ``jobtrace`` selects it by
          run id.
        """
        leader = members[0]
        solo = len(members) == 1
        now = time.monotonic()
        for record in members:
            record.mark(JobState.RUNNING)
            # One clock per unit; the hook applies the leader's budget,
            # which batch compatibility makes every member's budget.
            record.deadline_base = now
            self.telemetry.event(
                "serve.job_start", category="serve", job_id=record.job_id,
                tenant=record.request.tenant,
                algorithm=record.request.algorithm,
                deadline_seconds=record.deadline_seconds,
                leader=leader.job_id, size=len(members),
            )
        dataset = self.datasets[leader.request.dataset]
        for attempt in range(1, (self.job_attempts if solo else 1) + 1):
            for record in members:
                record.attempts = attempt
            try:
                if solo:
                    self._run_once(leader, dataset)
                else:
                    self._run_batch(members, dataset)
            except ServiceCrashed:
                # The "process" died mid-run: no terminal mark, no WAL
                # record — exactly the amnesia a real crash leaves.
                # The checkpoints and the journal's `started` records
                # survive for the restarted service to pick up.
                raise
            except DeadlineExceeded as error:
                self._on_deadline(members, error)
                return
            except JobCancelled as error:
                if error.reason != "stuck":
                    self._on_cancel(members, error)
                    return
                if not self._on_failure(members, error, "stuck", attempt):
                    return
            except Exception as error:  # one job's failure never kills the service
                kind = self._failure_kind(error)
                if not self._on_failure(members, error, kind, attempt):
                    return
            else:
                for record in members:
                    self._complete(record)
                return

    def _on_failure(self, members, error, kind, attempt):
        """The per-size policy for a failed run; ``True`` runs it again."""
        live = [record for record in members if not record.state.terminal]
        for record in live:
            self.telemetry.event(
                "serve.job_failure", category="serve", job_id=record.job_id,
                tenant=record.request.tenant, kind=kind, attempt=attempt,
                error=str(error),
            )
        if len(members) > 1 or not live:
            # A shared run never retries: each live member re-runs solo,
            # where a stuck one takes its strikes.
            for record in live:
                if record.cancel_requested == "stuck":
                    record.cancel_requested = None
                self.batcher.requeue(record)
            return False
        record = members[0]
        retry = attempt < self.job_attempts and kind in ("transient", "stuck")
        if kind == "stuck":
            # One free retry: a wedged superstep may have been bad luck
            # (overloaded machine, noisy I/O), not a property of the job.
            retry = self._strike(record, error) < 2 and retry
        if not retry:
            self._finalize(record, JobState.FAILED, error=str(error),
                           error_kind=kind)
            return False
        if record.cancel_requested == "stuck":
            record.cancel_requested = None
        self.telemetry.event(
            "serve.retry", category="serve", job_id=record.job_id,
            attempt=attempt, kind=kind,
        )
        return True

    def _on_deadline(self, members, error):
        """Every live member fails with ``timeout``."""
        for record in members:
            if record.state.terminal:
                continue
            tenant = record.request.tenant
            with self._lock:
                self._deadline_exceeded += 1
            self.telemetry.event(
                "serve.deadline.exceeded", category="serve",
                job_id=record.job_id, tenant=tenant,
                budget_seconds=record.deadline_seconds,
                elapsed_seconds=error.elapsed_seconds,
            )
            self.telemetry.registry.counter(
                "serve.deadline_exceeded", tenant=tenant
            ).inc()
            self._finalize(record, JobState.FAILED, error=str(error),
                           error_kind=ERROR_KIND_TIMEOUT)

    def _on_cancel(self, members, error):
        """Every live member ends CANCELLED (lanes retired at a boundary
        were finalized there)."""
        for record in members:
            if not record.state.terminal:
                self._finalize(record, JobState.CANCELLED, error=str(error),
                               error_kind="cancelled", reason=error.reason)

    def _complete(self, record):
        if self._finalize(record, JobState.SUCCEEDED):
            self.telemetry.event(
                "serve.complete", category="serve", job_id=record.job_id,
                tenant=record.request.tenant, cache_hit=record.cache_hit,
                attempts=record.attempts, digest=record.result_digest,
            )

    @staticmethod
    def _failure_kind(error):
        """``transient`` / ``recoverable`` / ``fatal`` for a whole-run error.

        Reuses the PR 3 classification: transients that exhausted the
        driver's in-place retries are worth one whole-run replay (the
        machine is healthy); attributed machine losses already went
        through checkpoint recovery inside the driver, so if they still
        surface here the run is not salvageable and the job fails.
        """
        if is_transient(error):
            return "transient"
        if failure_cause(error) is not None:
            return "recoverable"
        return "fatal"

    def _run_once(self, record, dataset):
        """One attempt of a solo job."""
        self._run_unit([record], dataset)

    def _run_batch(self, members, dataset):
        """The one shared run of N>1 batched members."""
        self._run_unit(members, dataset)

    def _run_unit(self, members, dataset):
        """The run body for a unit of N members; N>1 shares one dataflow.

        Builds the leader's job under its pinned plan, journals every
        member's ``started`` record, runs (wrapped in a
        :class:`MultiQueryProgram` only when N>1, so a solo run makes
        the plain driver call), then fans the outcome out per member:
        document, digest, cache key, the ``finishing`` crash check, both
        caches, SUCCEEDED. A dead process cleans nothing, so a crash
        leaves the DFS scratch and checkpoints in place.
        """
        leader = members[0]
        request = leader.request
        module = self._algorithm(request)[0]
        # A journaled plan signature (set on replay of an interrupted
        # run) pins the physical plan, so the resumed run lands in the
        # same bit-identity class as the original despite the restarted
        # process's empty plan cache.
        job = self._build_job(request, plan_signature=leader.plan_signature)
        if (
            self.journal is not None
            and self.checkpoint_interval
            and not getattr(job, "checkpoint_interval", 0)
        ):
            # Resume needs checkpoints to land on.
            job.checkpoint_interval = self.checkpoint_interval
        plan_signature = self._plan_signature(job)
        program = None
        if len(members) > 1:
            program = MultiQueryProgram(
                module, [self._algorithm(r.request)[1] for r in members],
                template_job=job,
            )
            job = program.job
            hook = program.boundary_hook(
                self._boundary_hook(members, program.control)
            )
            parse_line, format_record = program.parse_line, program.format_record
            run_id = "serve-batch-%s-x%d" % (leader.job_id, len(members))
            # The shared engine work belongs to every member: its spans
            # carry only the run id the driver stamps.
            job_context = contextlib.nullcontext()
        else:
            hook = self._boundary_hook(members)
            parse_line = getattr(module, "parse_line", None)
            format_record = getattr(module, "format_record", None)
            run_id = leader.resume_run_id or "serve-%s-a%d" % (
                leader.job_id, leader.attempts
            )
            # Scoped tracer context: every span this run records — the
            # driver's phases and supersteps, the engine's job and task
            # spans, storage ops, even spans from pool worker threads —
            # is stamped with this job's id, which is what keeps the
            # shared session's trace separable per job.
            job_context = self.telemetry.tracer.context(
                job_id=leader.job_id, tenant=request.tenant
            )
        for record in members:
            record.plan_signature = plan_signature
            record.run_id = run_id
            record.trace_run_ids.add(run_id)
            self._journal_started(record, run_id, batch=program is not None)
        self._crash_check("dispatch", job_id=leader.job_id, batch=len(members))
        driver = PregelixDriver(self.cluster, self.dfs)
        output_path = "/serve/jobs/%s/out" % leader.job_id
        crashed = False
        try:
            with job_context:
                outcome = (driver.resume if leader.resume_run_id else driver.run)(
                    job, dataset.path, output_path=output_path,
                    parse_line=parse_line, format_record=format_record,
                    run_id=run_id, boundary_hook=hook,
                )
            leader.resume_run_id = None
            lines = driver.read_output(output_path)
            if program is not None:
                lane_lines = program.lane_results(lines)
            for lane, record in enumerate(members):
                if record.state.terminal:
                    continue  # this lane was cancelled at a boundary
                if program is None:
                    span = contextlib.nullcontext()
                    doc = result_document(request.algorithm, job, outcome,
                                          results=lines)
                else:
                    record.mark_trace("fanout_begin")
                    span = self.telemetry.span(
                        "lane:%d" % lane, category="serve", run_id=run_id,
                        job_id=record.job_id,
                    )
                    doc = program.lane_document(
                        lane, request.algorithm, outcome, lane_lines[lane]
                    )
                with span:
                    record.result = doc
                    record.result_digest = result_digest(doc)
                    record.cache_key = ResultCache.make_key(
                        dataset.digest, record.request.algorithm,
                        record.request.params_key(), plan_class(job),
                    )
                    self._crash_check("finishing", job_id=record.job_id, lane=lane)
                    self._remember(record, dataset, job)
                if program is not None:
                    # End the fan-out phase before finalizing: _finalize
                    # stamps "finished", and the synthetic fan-out span
                    # must nest inside the run span, not straddle it.
                    record.mark_trace("fanout_end")
                self._complete(record)
        except ServiceCrashed:
            crashed = True
            raise
        finally:
            # The run's indexes/message files were cleaned by the driver
            # already; the DFS scratch is not needed once the documents
            # are built.
            if not crashed:
                self.dfs.delete("/serve/jobs/%s" % leader.job_id, recursive=True)

    def _journal_started(self, record, run_id, batch=False):
        """WAL the dispatch (run id + resolved plan). A failed append
        fails this attempt — running work the journal does not know
        about would be invisible to a post-crash recovery. Members of a
        shared run add ``batch=True`` so recovery re-queues them for
        solo re-runs instead of resuming wrapped state."""
        if self.journal is None:
            return
        extra = {"batch": True} if batch else {}
        self.journal.append(
            RECORD_STARTED, record.job_id, run_id=run_id,
            plan=record.plan_signature, attempt=record.attempts, **extra,
        )

    def _boundary_hook(self, members, control=None):
        """The cooperative control point, run at every superstep boundary.

        Order matters: progress on every member first (the watchdog must
        see the boundary), then crash simulation (no cleanup —
        checkpoints must survive), then cancellation, then the leader's
        deadline. A user-cancelled member of a shared run retires its
        lane through ``control`` while the other lanes run on; the last
        live lane, a solo job, or a stuck flag on any live member stops
        the whole run instead.
        """
        leader = members[0]

        def hook(superstep):
            for record in members:
                record.note_boundary()
            with self._lock:
                crashed = self._state == "crashed"
            if crashed:
                # Another thread's fault killed the "process"; every
                # running job stops at its next boundary, uncleaned.
                raise ServiceCrashed("running")
            self._crash_check(
                "running", job_id=leader.job_id, superstep=superstep,
                batch=len(members),
            )
            live = [record for record in members if not record.state.terminal]
            cancelled = [record for record in live if record.cancel_requested]
            stuck = [r for r in cancelled if r.cancel_requested == "stuck"]
            if stuck or (cancelled and len(cancelled) == len(live)):
                record = (stuck or cancelled)[0]
                raise JobCancelled(
                    "job %s cancelled (%s) at superstep %d"
                    % (record.job_id, record.cancel_requested, superstep),
                    reason=record.cancel_requested,
                )
            for record in cancelled:
                control.cancel(members.index(record))
                self._finalize(
                    record, JobState.CANCELLED,
                    error="job %s cancelled (%s) at batched superstep %d"
                          % (record.job_id, record.cancel_requested, superstep),
                    error_kind="cancelled", reason=record.cancel_requested,
                )
                self.telemetry.registry.counter("serve.batch.lane_cancelled").inc()
            budget = leader.deadline_seconds
            if budget is not None and leader.deadline_base is not None:
                elapsed = time.monotonic() - leader.deadline_base
                if elapsed > budget:
                    raise DeadlineExceeded(
                        "job %s exceeded its %.3fs deadline at superstep %d "
                        "(%.3fs elapsed)"
                        % (leader.job_id, budget, superstep, elapsed),
                        budget_seconds=budget, elapsed_seconds=elapsed,
                    )

        return hook

    def _algorithm(self, request):
        """The request's algorithm module and validated ``build_job`` kwargs."""
        module_name, param_names = SERVABLE_ALGORITHMS[request.algorithm]
        unknown = set(request.params) - set(param_names)
        if unknown:
            raise ReproError(
                "algorithm %r takes no parameter(s) %s"
                % (request.algorithm, ", ".join(sorted(unknown)))
            )
        kwargs = {
            name: request.params[name]
            for name in param_names
            if name in request.params
        }
        return importlib.import_module(module_name), kwargs

    def _build_job(self, request, plan_signature=None):
        module, kwargs = self._algorithm(request)
        job = module.build_job(**kwargs)
        if request.max_supersteps is not None:
            job.max_supersteps = int(request.max_supersteps)
        if request.plan is not None:
            self._parse_plan(request.plan).apply(job)
        elif plan_signature is not None:
            # A journaled plan pin (resume) outranks the optimizer and
            # the plan cache: the resumed run must land in the plan the
            # interrupted run already committed checkpoints under.
            self._parse_plan(plan_signature).apply(job)
        elif request.optimize:
            job.auto_optimize = True
        else:
            dataset = self.datasets[request.dataset]
            self.plan_cache.apply(dataset.digest, request.algorithm, job)
        return job

    @staticmethod
    def _parse_plan(signature):
        from repro.chaos.differential import PlanChoice

        return PlanChoice.parse(signature)

    @staticmethod
    def _plan_signature(job):
        """The job's resolved plan as a short, parseable signature."""
        from repro.chaos.differential import PlanChoice

        return PlanChoice(
            job.join_strategy, job.groupby_strategy,
            job.connector_policy, job.vertex_storage,
        ).signature()

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------
    def _cached_result(self, request, dataset):
        if self.result_cache is None or not request.use_cache:
            return None
        if request.optimize:
            return None  # the optimizer may end on any plan class
        try:
            job = self._build_job(request)
        except (ReproError, ValueError):
            return None  # invalid request; let admission produce the error
        return self.result_cache.get(ResultCache.make_key(
            dataset.digest, request.algorithm, request.params_key(),
            plan_class(job),
        ))

    def _remember(self, record, dataset, job):
        self.plan_cache.remember(dataset.digest, record.request.algorithm, job)
        if self.result_cache is not None and record.request.use_cache:
            self.result_cache.put(record.cache_key, record.result)
