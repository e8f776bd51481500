"""The stuck-job watchdog and the poison-job quarantine it feeds."""

import pytest

from repro.common.errors import JobCancelled
from repro.serve import AdmissionRejected, JobService, JobState
from repro.serve.api import REJECT_QUARANTINED, JobRecord, JobRequest
from repro.serve.watchdog import StuckJobWatchdog

WAIT = 120


class FakeService:
    """Just enough surface for deterministic scan() tests."""

    def __init__(self, records):
        self.records = records
        self.flagged = []

    def executing_records(self):
        return list(self.records)

    def flag_stuck(self, record, stall_seconds, threshold_seconds):
        self.flagged.append(record.job_id)
        record.cancel_requested = "stuck"
        return True


def record_with_rhythm(job_id="job-000001", supersteps=5, avg=0.1,
                       last_boundary=100.0):
    record = JobRecord(job_id=job_id, request=JobRequest("t", "cc", "g"))
    record.progress_superstep = supersteps
    record.progress_avg_seconds = avg
    record.progress_boundary_at = last_boundary
    return record


class TestScan:
    """scan(now=...) against crafted records — no clocks, no sleeps."""

    def test_job_on_rhythm_is_not_flagged(self):
        # avg 0.1s, threshold max(8*0.1, 1.0)=1.0s; stalled only 0.5s.
        service = FakeService([record_with_rhythm()])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=100.5) == []
        assert service.flagged == []

    def test_job_past_threshold_is_flagged(self):
        service = FakeService([record_with_rhythm()])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=101.5) == ["job-000001"]
        assert watchdog.flagged == 1
        assert service.records[0].cancel_requested == "stuck"

    def test_threshold_is_a_multiple_of_the_jobs_own_average(self):
        # A legitimately slow job (avg 2s) is fine 10s into a superstep;
        # a fast job (avg 0.2s) with the same stall is wedged.
        slow = record_with_rhythm("job-000001", avg=2.0)
        fast = record_with_rhythm("job-000002", avg=0.2)
        service = FakeService([slow, fast])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=110.0) == ["job-000002"]

    def test_min_stall_floor_protects_subsecond_supersteps(self):
        # avg 1ms => 8*avg = 8ms, but the 1s floor wins.
        service = FakeService([record_with_rhythm(avg=0.001)])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=100.9) == []
        assert watchdog.scan(now=101.1) == ["job-000001"]

    def test_young_jobs_are_not_trusted(self):
        service = FakeService([record_with_rhythm(supersteps=2)])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=200.0) == []

    def test_already_cancelled_jobs_are_skipped(self):
        record = record_with_rhythm()
        record.cancel_requested = "user"
        service = FakeService([record])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=200.0) == []

    def test_job_before_first_boundary_is_skipped(self):
        record = record_with_rhythm()
        record.progress_boundary_at = None
        service = FakeService([record])
        assert StuckJobWatchdog(service).scan(now=200.0) == []

    def test_state_shape(self):
        watchdog = StuckJobWatchdog(FakeService([]), multiple=4.0)
        state = watchdog.state()
        assert state["multiple"] == 4.0
        assert state["flagged"] == 0
        assert state["running"] is False


@pytest.fixture
def service(serve_graph):
    svc = JobService(num_nodes=3, workers=1, watchdog=False)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


REQUEST = {"tenant": "alice", "algorithm": "cc", "dataset": "g",
           "use_cache": False}


def wedge(service, times):
    """Patch _run_once to raise a stuck-cancel for the first ``times``
    executions, then behave normally."""
    original = service._run_once
    calls = []

    def wedged(record, dataset):
        calls.append(record.job_id)
        if len(calls) <= times:
            raise JobCancelled("wedged in superstep 3", reason="stuck")
        return original(record, dataset)

    service._run_once = wedged
    return calls


class TestStuckRetryAndQuarantine:
    def test_first_stuck_cancel_gets_one_free_retry(self, service):
        calls = wedge(service, times=1)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.SUCCEEDED
        assert record.attempts == 2
        assert len(calls) == 2
        assert service.stats()["quarantine"] == {}

    def test_double_stuck_fails_and_quarantines(self, service):
        wedge(service, times=2)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.FAILED
        assert record.error_kind == "stuck"
        quarantine = service.stats()["quarantine"]
        key = record.request.poison_key()
        assert key in quarantine
        assert quarantine[key]["strikes"] == 2
        assert quarantine[key]["algorithm"] == "cc"

    def test_quarantined_request_is_refused_until_cleared(self, service):
        wedge(service, times=2)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.FAILED
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(dict(REQUEST))
        assert excinfo.value.rejection.code == REJECT_QUARANTINED
        assert excinfo.value.rejection.details["strikes"] == 2
        # Tenant is not part of the poison identity.
        with pytest.raises(AdmissionRejected):
            service.submit(dict(REQUEST, tenant="bob"))

        assert service.clear_quarantine(record.request.poison_key()) == 1
        healthy = service.submit(dict(REQUEST))
        assert healthy.wait(WAIT) is JobState.SUCCEEDED

    def test_clear_quarantine_all(self, service):
        wedge(service, times=2)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.FAILED
        assert service.clear_quarantine() == 1
        assert service.stats()["quarantine"] == {}
        assert service.clear_quarantine() == 0

    def test_user_cancel_is_never_a_strike(self, service):
        original = service._run_once

        def user_cancelled(record, dataset):
            raise JobCancelled("user said stop", reason="user")

        service._run_once = user_cancelled
        try:
            record = service.submit(dict(REQUEST))
            assert record.wait(WAIT) is JobState.CANCELLED
            assert record.attempts == 1
            assert service.stats()["quarantine"] == {}
        finally:
            service._run_once = original


class TestFlagStuck:
    def test_flag_sets_the_cooperative_cancel(self, service):
        record = JobRecord(job_id="job-000042",
                           request=JobRequest("t", "cc", "g"))
        assert service.flag_stuck(record, 5.0, 1.0) is True
        assert record.cancel_requested == "stuck"

    def test_terminal_or_cancelled_records_are_left_alone(self, service):
        record = JobRecord(job_id="job-000043",
                           request=JobRequest("t", "cc", "g"))
        record.mark(JobState.SUCCEEDED)
        assert service.flag_stuck(record, 5.0, 1.0) is False
        assert record.cancel_requested is None


# ----------------------------------------------------------------------
# a stuck flag inside a batched run unit
# ----------------------------------------------------------------------
SOURCES = (0, 3, 7)


def sssp(source):
    return {"tenant": "alice", "algorithm": "sssp", "dataset": "g",
            "params": {"source_id": source}, "use_cache": False}


@pytest.fixture(scope="module")
def solo_digests(serve_graph):
    svc = JobService(num_nodes=3, workers=1, watchdog=False)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    try:
        records = [svc.submit(sssp(source)) for source in SOURCES]
        for record in records:
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        return [record.result_digest for record in records]
    finally:
        svc.shutdown(timeout=WAIT)


@pytest.fixture
def batched_service(serve_graph):
    svc = JobService(num_nodes=3, workers=1, watchdog=False,
                     batch_max=8, batch_window=0.4)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


def wedge_boundaries(service, batched_only):
    """Flag a unit's last member stuck at each boundary, as the watchdog
    would for a wedge; ``batched_only`` wedges just the shared run."""
    original = service._boundary_hook

    def hook_for(members, control=None):
        hook = original(members, control)

        def wedged(superstep):
            if len(members) > 1 or not batched_only:
                service.flag_stuck(members[-1], 5.0, 1.0)
            hook(superstep)

        return wedged

    service._boundary_hook = hook_for


class TestStuckBatchedMember:
    def test_persistent_wedge_fails_and_quarantines_every_member(
        self, batched_service
    ):
        service = batched_service
        wedge_boundaries(service, batched_only=False)
        records = [service.submit(sssp(source)) for source in SOURCES]
        for record in records:
            assert record.wait(WAIT) is JobState.FAILED
            assert record.error_kind == "stuck"
            assert record.attempts == 2  # its solo run took both strikes
        stats = service.stats()
        assert stats["batch"]["formed"] == 1
        assert stats["batch"]["requeued"] == len(SOURCES)
        for record in records:
            assert stats["quarantine"][record.request.poison_key()]["strikes"] == 2

    def test_one_off_wedge_reruns_members_solo_with_no_strike(
        self, batched_service, solo_digests
    ):
        service = batched_service
        wedge_boundaries(service, batched_only=True)
        records = [service.submit(sssp(source)) for source in SOURCES]
        for record, digest in zip(records, solo_digests):
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            assert record.result_digest == digest
            assert "batch" not in record.result
        stats = service.stats()
        assert stats["batch"]["requeued"] == len(SOURCES)
        assert service._poison_strikes == {}
