"""The running page byte count matches the page's contents.

``Page.nbytes`` is maintained by every entry operation instead of being
recomputed, so random operation sequences must keep it equal to the
size recomputed from the entries and to the length of the image.
"""

from hypothesis import given, settings, strategies as st

from repro.hyracks.storage.pages import ENTRY_OVERHEAD, PAGE_OVERHEAD, Page, PageId, PageKind

CAPACITY = 1 << 20

# A small key space, so puts replace and removes hit present keys.
keys = st.sampled_from(
    [letter * width for letter in (b"a", b"b", b"c", b"d") for width in (1, 3)]
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, st.binary(max_size=40)),
        st.tuples(st.just("remove"), keys),
        st.tuples(st.just("split"), st.booleans()),
        st.tuples(st.just("reload")),
    ),
    max_size=60,
)


def recomputed(page):
    return PAGE_OVERHEAD + sum(
        ENTRY_OVERHEAD - 4 + len(key) + len(value) for key, value in page.entries()
    )


def check(page):
    assert page.nbytes == recomputed(page) == len(page.to_bytes())


@settings(max_examples=150, deadline=None)
@given(ops)
def test_running_count_tracks_every_operation(operations):
    page = Page(PageId(0, 0), PageKind.LEAF, CAPACITY)
    next_page_no = 1
    for op in operations:
        if op[0] == "put":
            fits = page.fits(op[1], op[2])
            replaced = page.find(op[1]) is not None
            before = page.nbytes
            page.put(op[1], op[2])
            if not replaced:
                assert fits == (page.nbytes <= CAPACITY)
                assert page.nbytes - before == ENTRY_OVERHEAD - 4 + len(op[1]) + len(op[2])
        elif op[0] == "remove":
            page.remove(op[1])
        elif op[0] == "split" and page.num_entries >= 2:
            right = Page(PageId(0, next_page_no), PageKind.LEAF, CAPACITY)
            next_page_no += 1
            page.split_into(right)
            check(right)
            if op[1]:
                page = right
        elif op[0] == "reload":
            page = Page.from_bytes(page.page_id, page.to_bytes(), CAPACITY)
        check(page)


def test_fits_is_exact_at_capacity():
    page = Page(PageId(0, 0), PageKind.LEAF, PAGE_OVERHEAD + 2 * (ENTRY_OVERHEAD - 4 + 2))
    assert page.fits(b"a", b"1")
    page.put(b"a", b"1")
    assert page.fits(b"b", b"2")
    page.put(b"b", b"2")
    assert not page.fits(b"c", b"")
    assert page.nbytes == page.capacity == len(page.to_bytes())
