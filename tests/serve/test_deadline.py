"""Per-job wall-clock deadlines, enforced at superstep boundaries."""

import time

import pytest

from repro.common.errors import DeadlineExceeded, JobCancelled
from repro.pregelix.multiquery import LaneControl
from repro.serve import JobService, JobState
from repro.serve.api import ERROR_KIND_TIMEOUT, JobRecord, JobRequest
from repro.serve.journal import RECORD_SUBMITTED

WAIT = 120

# Enough supersteps that a tiny budget always trips mid-run.
SLOW = {"tenant": "alice", "algorithm": "pagerank", "dataset": "g",
        "params": {"iterations": 60}, "use_cache": False}


@pytest.fixture
def service(serve_graph):
    svc = JobService(num_nodes=3, workers=1)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


class TestDeadlineEnforcement:
    def test_exceeded_deadline_fails_with_structured_timeout(self, service):
        record = service.submit(dict(SLOW, deadline_seconds=0.02))
        assert record.wait(WAIT) is JobState.FAILED
        assert record.error_kind == ERROR_KIND_TIMEOUT
        assert record.deadline_seconds == 0.02
        assert "deadline" in record.error
        assert record.attempts == 1  # a timeout is never retried
        assert service.stats()["deadline_exceeded"] == 1

    def test_timed_out_job_frees_its_worker_slot(self, service):
        # workers=1: if the deadline did not release the slot, the
        # follow-up job could never run.
        doomed = service.submit(dict(SLOW, deadline_seconds=0.02))
        follow_up = service.submit({
            "tenant": "alice", "algorithm": "cc", "dataset": "g",
            "use_cache": False,
        })
        assert doomed.wait(WAIT) is JobState.FAILED
        assert follow_up.wait(WAIT) is JobState.SUCCEEDED

    def test_generous_deadline_does_not_fire(self, service):
        record = service.submit({
            "tenant": "alice", "algorithm": "cc", "dataset": "g",
            "use_cache": False, "deadline_seconds": WAIT,
        })
        assert record.wait(WAIT) is JobState.SUCCEEDED
        assert service.stats()["deadline_exceeded"] == 0


class TestDeadlineDefaults:
    def test_service_default_applies_when_request_is_silent(self, serve_graph):
        svc = JobService(num_nodes=3, workers=1,
                         default_deadline_seconds=0.02)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        try:
            record = svc.submit(dict(SLOW))
            assert record.deadline_seconds == 0.02
            assert record.wait(WAIT) is JobState.FAILED
            assert record.error_kind == ERROR_KIND_TIMEOUT
        finally:
            svc.shutdown(timeout=WAIT)

    def test_request_deadline_overrides_service_default(self, serve_graph):
        svc = JobService(num_nodes=3, workers=1,
                         default_deadline_seconds=0.001)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        try:
            record = svc.submit({
                "tenant": "alice", "algorithm": "cc", "dataset": "g",
                "use_cache": False, "deadline_seconds": WAIT,
            })
            assert record.deadline_seconds == WAIT
            assert record.wait(WAIT) is JobState.SUCCEEDED
        finally:
            svc.shutdown(timeout=WAIT)

    def test_no_deadline_anywhere_means_none(self, service):
        record = service.submit({
            "tenant": "alice", "algorithm": "cc", "dataset": "g",
        })
        assert record.deadline_seconds is None


class TestDeadlineValidation:
    @pytest.mark.parametrize("bad", [0, -1, "soon"])
    def test_bad_deadline_rejected_at_parse(self, bad):
        with pytest.raises(ValueError):
            JobRequest.from_dict({
                "tenant": "a", "algorithm": "cc", "dataset": "g",
                "deadline_seconds": bad,
            })

    def test_string_number_is_coerced(self):
        request = JobRequest.from_dict({
            "tenant": "a", "algorithm": "cc", "dataset": "g",
            "deadline_seconds": "2.5",
        })
        assert request.deadline_seconds == 2.5


class TestBoundaryHook:
    """The hook itself, deterministically — no timing races."""

    def record(self, job_id="job-000001", **kwargs):
        request = JobRequest("t", "pagerank", "g")
        record = JobRecord(job_id=job_id, request=request)
        for key, value in kwargs.items():
            setattr(record, key, value)
        return record

    def test_hook_raises_past_budget(self, service):
        record = self.record(deadline_seconds=0.01,
                             deadline_base=time.monotonic() - 1.0)
        hook = service._boundary_hook([record])
        with pytest.raises(DeadlineExceeded) as excinfo:
            hook(3)
        assert excinfo.value.budget_seconds == 0.01
        assert excinfo.value.elapsed_seconds >= 1.0

    def test_hook_quiet_within_budget(self, service):
        record = self.record(deadline_seconds=60.0,
                             deadline_base=time.monotonic())
        service._boundary_hook([record])(1)  # does not raise

    def test_hook_quiet_with_no_deadline(self, service):
        record = self.record(deadline_base=time.monotonic() - 100.0)
        service._boundary_hook([record])(1)  # does not raise

    def test_hook_counts_progress_for_the_watchdog(self, service):
        record = self.record()
        hook = service._boundary_hook([record])
        hook(1)
        hook(2)
        assert record.progress_superstep == 2
        assert record.progress_boundary_at is not None

    def unit(self):
        return [self.record(job_id="job-%06d" % i) for i in (1, 2, 3)]

    def test_user_cancel_retires_only_that_lane(self, service):
        members, control = self.unit(), LaneControl(3)
        members[1].cancel_requested = "user"
        service._boundary_hook(members, control)(2)  # does not raise
        assert control.pending == {1}
        assert members[1].state is JobState.CANCELLED
        assert members[1].error_kind == "cancelled"
        assert not members[0].state.terminal
        assert not members[2].state.terminal

    def test_hook_raises_once_every_lane_is_cancelled(self, service):
        members, control = self.unit(), LaneControl(3)
        hook = service._boundary_hook(members, control)
        members[1].cancel_requested = "user"
        hook(2)
        members[0].cancel_requested = "user"
        members[2].cancel_requested = "user"
        with pytest.raises(JobCancelled) as excinfo:
            hook(3)
        assert excinfo.value.reason == "user"
        # The last live lanes end with the run, not one lane at a time.
        assert control.pending == {1}

    def test_stuck_flag_on_any_lane_stops_the_shared_run(self, service):
        members, control = self.unit(), LaneControl(3)
        members[2].cancel_requested = "stuck"
        with pytest.raises(JobCancelled) as excinfo:
            service._boundary_hook(members, control)(4)
        assert excinfo.value.reason == "stuck"
        assert control.pending == frozenset()
        assert not any(record.state.terminal for record in members)

    def test_deadline_is_the_leaders_budget(self, service):
        members = self.unit()
        base = time.monotonic() - 1.0
        for record in members:
            record.deadline_base = base
        members[0].deadline_seconds = 60.0
        members[1].deadline_seconds = 0.01
        service._boundary_hook(members, LaneControl(3))(1)  # does not raise
        members[0].deadline_seconds = 0.01
        members[1].deadline_seconds = 60.0
        with pytest.raises(DeadlineExceeded) as excinfo:
            service._boundary_hook(members, LaneControl(3))(1)
        assert excinfo.value.budget_seconds == 0.01


# ----------------------------------------------------------------------
# run units: a solo job and a batch share one execution path
# ----------------------------------------------------------------------
@pytest.fixture
def batched_service(serve_graph):
    svc = JobService(num_nodes=3, workers=1, watchdog=False,
                     batch_max=8, batch_window=0.4,
                     journal="dfs:/serve/journal.wal")
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


def submit_unit(service, size, **extra):
    """``size`` sssp point queries that share one run when ``size`` > 1."""
    return [
        service.submit(dict({
            "tenant": "alice", "algorithm": "sssp", "dataset": "g",
            "params": {"source_id": source}, "use_cache": False,
        }, **extra))
        for source in (0, 3, 7)[:size]
    ]


def cancel_at_first_boundary(service):
    """Every member of a unit is user-cancelled at its first boundary."""
    original = service._boundary_hook

    def hook_for(members, control=None):
        hook = original(members, control)

        def cancelling(superstep):
            for record in members:
                service.cancel_job(record.job_id)
            hook(superstep)

        return cancelling

    service._boundary_hook = hook_for


class TestRunUnit:
    """The same outcomes, per member, for a unit of one and of three."""

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("outcome", ["success", "cancel", "deadline"])
    def test_unit_outcome_per_member(self, batched_service, size, outcome):
        service = batched_service
        extra = {}
        if outcome == "cancel":
            cancel_at_first_boundary(service)
        elif outcome == "deadline":
            extra["deadline_seconds"] = 1e-6
        records = submit_unit(service, size, **extra)
        expected = {
            "success": (JobState.SUCCEEDED, None, "finished"),
            "cancel": (JobState.CANCELLED, "cancelled", "cancelled"),
            "deadline": (JobState.FAILED, ERROR_KIND_TIMEOUT, "finished"),
        }[outcome]
        for record in records:
            assert record.wait(WAIT) is expected[0], record.error
            assert record.error_kind == expected[1]
        # wait() returns at the terminal mark; drain() also waits out
        # the journal append that follows it.
        assert service.drain(timeout=WAIT)
        journal = service.journal.replay().records
        for record in records:
            kinds = [r["type"] for r in journal
                     if r["job_id"] == record.job_id
                     and r["type"] != RECORD_SUBMITTED]
            assert kinds == ["started", expected[2]]
            started = next(r for r in journal if r["job_id"] == record.job_id
                           and r["type"] == "started")
            # N>1 runs are marked for recovery; a unit of one is not.
            assert started.get("batch") is (True if size > 1 else None)
        e2e = service.telemetry.registry.histogram(
            "serve.latency.e2e_seconds", tenant="alice"
        )
        assert e2e.count == size
        # Every timed-out member emits the deadline event, at every size.
        events = [e for e in service.telemetry.events
                  if e.name == "serve.deadline.exceeded"]
        assert sorted(e.args["job_id"] for e in events) == (
            sorted(r.job_id for r in records) if outcome == "deadline" else []
        )
        for event in events:
            assert event.args["tenant"] == "alice"
            assert event.args["budget_seconds"] == 1e-6
            assert event.args["elapsed_seconds"] > 1e-6
