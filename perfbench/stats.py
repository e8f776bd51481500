"""The benchmark's own arithmetic: percentiles, due-time latency, failure
fractions, self time, the reference kernel and the request mix. Pure
functions and small classes with no dependency on the program, so
``test_perfbench.py`` can check them deterministically.
"""

import math
import struct
import threading
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it (p90 therefore needs 100 samples, p50 needs 20).
MIN_SAMPLES_BEYOND = 10


def percentile(values, q):
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def reportable(count, q, min_beyond=MIN_SAMPLES_BEYOND):
    """Whether the ``q``-th percentile of ``count`` samples has at least
    ``min_beyond`` samples above it."""
    rank = max(math.ceil(q / 100.0 * count), 1)
    return count - rank >= min_beyond


def median(values):
    """The median, averaging the two middle values of an even count."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values):
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


#: Rounds of :func:`reference_kernel`: 11 to 22 ms of one vCPU of a
#: 2.1 GHz Xeon, depending on how busy its host is.
REFERENCE_ROUNDS = 40000


def reference_kernel(rounds=REFERENCE_ROUNDS):
    """CPU seconds the calling thread spends on a fixed computation.

    The computation is interpreter work of the kind the program does
    (dict updates, ``struct`` packing, integer and float arithmetic).
    It is timed with the thread's own CPU clock, so time the thread
    spends waiting for the interpreter lock or for a processor does not
    count; what does count is how fast the processor runs the thread,
    which on a shared host changes by up to 2x within seconds.
    """
    pack = struct.pack
    table = {}
    started = time.thread_time()
    for i in range(rounds):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + len(pack(">qd", i, i * 0.5))
    spent = time.thread_time() - started
    if sum(table.values()) != 16 * rounds:
        raise AssertionError("reference kernel computed a wrong table")
    return spent


#: What :func:`reference_kernel` takes on an idle vCPU of a 2.1 GHz
#: Xeon (Sapphire Rapids, KVM): the speed ``at_reference_speed`` scales to.
REFERENCE_NOMINAL_S = 0.011


def at_reference_speed(seconds, reference_s):
    """``seconds`` of CPU-bound work, measured while the reference
    kernel took ``reference_s``, rescaled to the nominal speed.

    Both are totals (or means) over the same stretch of a run, with the
    kernel interleaved with the work in the same thread, so a host that
    runs everything 1.5x slower for a while leaves the result as it was.
    """
    return seconds * REFERENCE_NOMINAL_S / reference_s


def zipf_counts(total, ranks, exponent):
    """How many of ``total`` draws each of ``ranks`` ranks gets under
    Zipf(``exponent``), by largest remainder: the expected counts with
    the fractions handed out in order. The same for every seed; the
    seed only decides which item holds which rank."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(ranks)]
    scale = total / sum(weights)
    expected = [w * scale for w in weights]
    counts = [int(e) for e in expected]
    order = sorted(range(ranks), key=lambda r: (counts[r] - expected[r], r))
    for rank in order[:total - sum(counts)]:
        counts[rank] += 1
    return counts


class Outcome:
    """How one attempted operation ended, as the client observed it.

    :param due: when the operation was due to start (open loop: its
        scheduled arrival; closed loop: when the previous one ended).
    :param done: when its terminal state was observed, or ``None``.
    :param ok: it completed and its output was checked correct.
    :param refused: the service refused it (HTTP 429/503).
    """

    __slots__ = ("due", "done", "ok", "refused", "wrong")

    def __init__(self, due, done=None, ok=False, refused=False, wrong=False):
        self.due = due
        self.done = done
        self.ok = ok
        self.refused = refused
        self.wrong = wrong

    @property
    def latency(self):
        """Seconds from due to the observed terminal state."""
        if self.done is None:
            return None
        return self.done - self.due


def successful_latencies(outcomes):
    """Due-time latencies of the operations that completed correctly."""
    return [o.latency for o in outcomes if o.ok and not o.wrong]


def error_frac(outcomes):
    """Failed, refused or wrong operations over operations attempted."""
    if not outcomes:
        raise ValueError("no operations attempted")
    bad = sum(1 for o in outcomes if not o.ok or o.refused or o.wrong)
    return bad / len(outcomes)


def slo_miss_frac(outcomes, limit_s):
    """Operations that failed, were refused, were wrong, or took longer
    than ``limit_s`` from due to done, over operations attempted."""
    if not outcomes:
        raise ValueError("no operations attempted")
    missed = 0
    for o in outcomes:
        if not o.ok or o.refused or o.wrong or o.latency > limit_s:
            missed += 1
    return missed / len(outcomes)


class ThreadFrames:
    """One thread's open frames and its per-layer totals.

    ``serde_depth`` and ``serde_off`` belong to the serde wrapper, the
    hottest one, so that it reads a single thread-local per call.
    """

    __slots__ = ("stack", "totals", "serde_depth", "serde_off")

    def __init__(self):
        self.stack = []
        #: layer -> [calls, total seconds, self seconds]
        self.totals = {}
        self.serde_depth = 0
        self.serde_off = False


class SelfTimer:
    """Per-thread nesting of timed frames, accumulated by layer.

    ``enter`` and ``leave`` bracket one call into a layer. When it
    leaves, the frame's duration goes to the layer's total, and the
    duration minus the time of frames nested inside it on the same
    thread goes to the layer's self time, so a layer that calls itself
    (``TupleSerde.dumps`` calling the element serdes) is not counted
    twice. Each thread accumulates into its own :class:`ThreadFrames`,
    so no lock is taken per call. ``clock`` is injectable for tests.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def frames(self):
        """This thread's :class:`ThreadFrames`."""
        try:
            return self._local.frames
        except AttributeError:
            frames = self._local.frames = ThreadFrames()
            with self._lock:
                self._threads.append(frames)
            return frames

    def enter(self, layer, frames=None):
        (frames or self.frames()).stack.append([layer, self.clock(), 0.0])

    def leave(self, frames=None):
        """Close the innermost frame; returns its duration."""
        frames = frames or self.frames()
        stack = frames.stack
        layer, started, nested = stack.pop()
        duration = self.clock() - started
        if stack:
            stack[-1][2] += duration
        totals = frames.totals.get(layer)
        if totals is None:
            totals = frames.totals[layer] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - nested
        return duration

    @property
    def layers(self):
        """layer -> [calls, total seconds, self seconds], all threads."""
        merged = {}
        with self._lock:
            threads = list(self._threads)
        for frames in threads:
            for layer, (calls, total, own) in list(frames.totals.items()):
                into = merged.setdefault(layer, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return merged


def self_time_table(layers, wall_s):
    """Rows ``(layer, calls, total_s, self_s, self share of wall)`` sorted
    by self time, from :attr:`SelfTimer.layers`."""
    rows = []
    for layer, (calls, total, own) in layers.items():
        share = own / wall_s if wall_s > 0 else 0.0
        rows.append((layer, calls, total, own, share))
    rows.sort(key=lambda row: -row[3])
    return rows
