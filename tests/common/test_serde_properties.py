"""Property tests for the ``sizeof`` contract and the bulk edge codec.

Every codec the engine sizes tuples with must satisfy
``sizeof(v) == len(dumps(v))`` without encoding, and
``loads(dumps(v)) == v``. The bulk ``(INT64, FLOAT64)`` packed-list
path must write the same bytes as the element-by-element path.
"""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import (
    connected_components_job,
    list_ranking_job,
    maximal_cliques_job,
    pagerank_job,
    path_merging_job,
    scc_job,
    sssp_job,
)
from repro.algorithms import sssp
from repro.common import serde
from repro.pregelix.multiquery import (
    LaneMapSerde,
    LanePairSerde,
    LaneVectorSerde,
    MultiQueryProgram,
)
from repro.pregelix.physical import PlanGenerator
from repro.pregelix.types import edge_list_serde, vertex_value_serde

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

int64s = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
lane_ids = st.integers(min_value=0, max_value=255)


def values(codec, allow_nan=False):
    """A strategy for values ``codec`` can encode, built from its structure."""
    kind = type(codec)
    if kind is serde.Int64Serde:
        return int64s
    if kind is serde.Float64Serde:
        return st.floats(allow_nan=allow_nan)
    if kind is serde.BoolSerde:
        return st.booleans()
    if kind is serde.StringSerde:
        return st.text(max_size=20)
    if kind is serde.BytesSerde:
        return st.binary(max_size=20)
    if kind is serde.NullSerde:
        return st.none()
    if kind is serde.OptionalSerde:
        return st.none() | values(codec.inner, allow_nan)
    if kind in (serde.TupleSerde, serde.PairSerde):
        return st.tuples(*(values(field, allow_nan) for field in codec.field_serdes))
    if kind is serde.FixedPairSerde:
        return st.tuples(values(codec.first, allow_nan), values(codec.second, allow_nan))
    if kind in (serde.PackedListSerde, serde.ListSerde):
        return st.lists(values(codec.element_serde, allow_nan), max_size=12)
    if kind is LaneVectorSerde:
        slot = st.tuples(st.booleans(), st.none() | values(codec.inner, allow_nan))
        return st.lists(slot, max_size=8)
    if kind is LanePairSerde:
        return st.tuples(lane_ids, values(codec.payload, allow_nan))
    if kind is LaneMapSerde:
        return st.dictionaries(lane_ids, values(codec.value_serde, allow_nan), max_size=8)
    raise TypeError("no value strategy for %r" % (codec,))


def edge_pair():
    return serde.FixedPairSerde(serde.INT64, serde.FLOAT64, 8, 8)


BULK_EDGES = serde.PackedListSerde(edge_pair(), 16)

#: Every codec in ``repro.common.serde``, including both packed-list paths.
SERDE_CODECS = {
    "int64": serde.INT64,
    "float64": serde.FLOAT64,
    "bool": serde.BOOL,
    "string": serde.STRING,
    "bytes": serde.BYTES,
    "null": serde.NULL,
    "optional-padded": serde.OptionalSerde(serde.FLOAT64),
    "optional-framed": serde.OptionalSerde(serde.STRING),
    "optional-tuple": serde.OptionalSerde(serde.TupleSerde(serde.INT64, serde.INT64)),
    "tuple-fixed": serde.TupleSerde(serde.INT64, serde.FLOAT64, serde.BOOL),
    "tuple-variable": serde.TupleSerde(serde.STRING, serde.OptionalSerde(serde.BYTES)),
    "tuple-nested": serde.TupleSerde(
        serde.TupleSerde(serde.INT64, serde.INT64), serde.ListSerde(serde.INT64)
    ),
    "pair": serde.PairSerde(serde.INT64, serde.STRING),
    "fixed-pair": edge_pair(),
    "fixed-pair-mixed": serde.FixedPairSerde(serde.INT64, serde.BOOL, 8, 1),
    "packed-bulk": BULK_EDGES,
    "packed-int-int": serde.PackedListSerde(
        serde.FixedPairSerde(serde.INT64, serde.INT64, 8, 8), 16
    ),
    "packed-float-int": serde.PackedListSerde(
        serde.FixedPairSerde(serde.FLOAT64, serde.INT64, 8, 8), 16
    ),
    "packed-mixed": serde.PackedListSerde(
        serde.FixedPairSerde(serde.INT64, serde.BOOL, 8, 1), 9
    ),
    "packed-scalar": serde.PackedListSerde(serde.INT64, 8),
    "list": serde.ListSerde(serde.FLOAT64),
    "list-of-pairs": serde.ListSerde(serde.PairSerde(serde.INT64, serde.FLOAT64)),
}

JOBS = {
    "pagerank": pagerank_job,
    "sssp": sssp_job,
    "cc": connected_components_job,
    "list-ranking": list_ranking_job,
    "scc": scc_job,
    "path-merging": path_merging_job,
    "maximal-cliques": maximal_cliques_job,
}


def _job_codecs():
    """The vertex, raw-vertex, message and combined tuples of real jobs."""
    codecs = {}
    batched = MultiQueryProgram(sssp, [{"source_id": 1}, {"source_id": 2}]).job
    jobs = {name: build() for name, build in JOBS.items()}
    jobs["multi-sssp"] = batched
    for name, job in jobs.items():
        codecs[name + ":vertex"] = job.vertex_codec()
        plans = PlanGenerator(job, None, "t", None)
        codecs[name + ":raw-vertex"] = plans._raw_vertex_serde()
        # The message and combined tuples _message_groupby builds.
        codecs[name + ":message"] = serde.TupleSerde(serde.INT64, job.msg_serde)
        codecs[name + ":combined"] = serde.TupleSerde(
            serde.BYTES, job.combiner.bundle_serde(job.msg_serde)
        )
    codecs["lane-vector"] = batched.value_serde
    codecs["lane-pair"] = batched.msg_serde
    codecs["lane-map"] = batched.aggregator.value_serde()
    codecs["lane-bundle"] = batched.combiner.bundle_serde(batched.msg_serde)
    codecs["vertex-string-edges"] = vertex_value_serde(serde.FLOAT64, serde.STRING)
    return codecs


CODECS = dict(SERDE_CODECS, **_job_codecs())


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sizeof_is_exact_and_roundtrips(name, data):
    codec = CODECS[name]
    value = data.draw(values(codec))
    encoded = codec.dumps(value)
    assert codec.sizeof(value) == len(encoded)
    assert codec.loads(encoded) == value


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sizeof_never_encodes(name, data):
    codec = CODECS[name]
    value = data.draw(values(codec))
    expected = len(codec.dumps(value))

    def refuse(self, _value):
        raise AssertionError("sizeof encoded a value")

    # Strings are the one leaf whose width is only known once encoded.
    patched = {}
    for cls in _serde_classes():
        if "dumps" in cls.__dict__ and cls is not serde.StringSerde:
            patched[cls] = cls.__dict__["dumps"]
            cls.dumps = refuse
    try:
        assert codec.sizeof(value) == expected
    finally:
        for cls, original in patched.items():
            cls.dumps = original


def _serde_classes():
    pending, seen = [serde.Serde], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


class TestBulkEdgeCodec:
    def test_edge_lists_take_the_bulk_path(self):
        assert BULK_EDGES._pair is not None
        assert edge_list_serde(serde.FLOAT64)._pair is not None
        assert SERDE_CODECS["packed-mixed"]._pair is None
        assert SERDE_CODECS["packed-float-int"]._pair is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(int64s, st.floats()), max_size=30))
    @example([(INT64_MIN, 0.0), (INT64_MAX, -0.0), (0, float("nan"))])
    @example([(-1, float("inf")), (1, float("-inf"))])
    def test_bytes_equal_element_wise(self, edges):
        pair = edge_pair()
        element_wise = struct.pack(">I", len(edges))
        element_wise += b"".join(pair.dumps(edge) for edge in edges)
        assert BULK_EDGES.dumps(edges) == element_wise
        decoded = BULK_EDGES.loads(element_wise)
        assert [vid for vid, _ in decoded] == [vid for vid, _ in edges]
        assert BULK_EDGES.dumps(decoded) == element_wise

    @pytest.mark.parametrize("vid", [INT64_MIN - 1, INT64_MAX + 1])
    def test_out_of_range_vid_rejected_like_element_wise(self, vid):
        with pytest.raises(struct.error):
            edge_pair().dumps((vid, 1.0))
        with pytest.raises(struct.error):
            BULK_EDGES.dumps([(vid, 1.0)])

    @pytest.mark.parametrize("name", ["packed-bulk", "packed-mixed", "packed-scalar"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncated_body_raises(self, name, data):
        codec = CODECS[name]
        value = data.draw(st.lists(values(codec.element_serde), min_size=1, max_size=8))
        encoded = codec.dumps(value)
        cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 4))
        with pytest.raises(ValueError, match="truncated"):
            codec.loads(encoded[:-cut])


ARITY_VALUES = {
    "tuple-fixed": (1, 2.0, True),
    "tuple-variable": ("a", b"b"),
    "pair": (1, "a"),
    "pagerank:message": (1, 0.5),
    "sssp:combined": (b"\x00" * 8, 1.0),
}


class TestTupleArity:
    @pytest.mark.parametrize("name", sorted(ARITY_VALUES))
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_arity_raises_like_dumps(self, name, delta):
        codec = CODECS[name]
        value = ARITY_VALUES[name]
        wrong = value[:-1] if delta < 0 else value + value[-1:]
        with pytest.raises(ValueError) as from_dumps:
            codec.dumps(wrong)
        with pytest.raises(ValueError) as from_sizeof:
            codec.sizeof(wrong)
        assert str(from_sizeof.value) == str(from_dumps.value)

    def test_fixed_tuple_has_constant_size(self):
        codec = CODECS["pagerank:message"]
        assert codec._variable == [] and codec._framed_size == 4 + 8 + 4 + 8
        assert [i for i, _ in CODECS["tuple-variable"]._variable] == [0, 1]

    def test_fixed_tuple_inside_optional_is_not_padded(self):
        # Padding would change the bytes every NULL value is stored as.
        assert CODECS["optional-tuple"].dumps(None) == b"\x00"
