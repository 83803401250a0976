"""The page-fault simulator against its per-page reference.

Three guarantees for the bitmap/LRU accounting core of
:mod:`repro.monet.buffer`:

* **differential fuzz** — random access scripts drive the production
  :class:`BufferManager` and the per-page ``OrderedDict`` loop kept in
  ``buffer_reference.py`` side by side; every counter agrees after
  every step, in unbounded and budgeted mode;
* **pinned traces** — the cold-run ``faults`` of all 15 TPC-D queries
  equal the values the reference produced before the rewrite, and
  their ``hits`` and the budgeted Figure 9 spill run of Q1 are pinned
  explicitly, so Figures 9/10 cannot move silently;
* **cost gate** — accounting switched on costs a prepared Q6/Q14 at
  most 2.5x (it was ~5x), and switched off it costs nothing.
"""

import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buffer_reference import ReferenceBufferManager
from repro.monet import buffer
from repro.monet.buffer import BufferManager, use
from repro.monet.column import FixedColumn, VarColumn
from repro.sql.runtime import prepare_sql
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES, generate, load_tpcd


# ----------------------------------------------------------------------
# differential fuzz
# ----------------------------------------------------------------------
def _columns():
    """A persistent and a transient column of each kind; their six
    heaps (three of them transient) are what the scripts touch — few
    enough that random steps keep landing on the same heap."""
    rng = np.random.default_rng(5)
    words = ["w%03d" % i * (1 + i % 7) for i in range(300)]

    def strings():
        return VarColumn.from_values(
            "string", [words[i] for i in rng.integers(0, 300, 2000)])

    columns = [FixedColumn("long", rng.integers(0, 1000, 5000)),
               strings(),
               FixedColumn("int", rng.integers(0, 1000, 3000)),
               strings()]
    for column in columns[:2]:
        for heap in column.heaps:
            heap.persistent = True
    return columns


COLUMNS = _columns()
HEAPS = [heap for column in COLUMNS for heap in column.heaps]
TRANSIENT = next(index for index, heap in enumerate(HEAPS)
                 if not heap.persistent)

heap_index = st.integers(0, len(HEAPS) - 1)
column_index = st.integers(0, len(COLUMNS) - 1)
width = st.sampled_from([1, 4, 8, 24, 4096, 5000])


@st.composite
def position_lists(draw):
    """Sorted, unsorted, duplicated and empty position sets."""
    values = draw(st.lists(st.integers(0, 6000), max_size=40))
    shape = draw(st.sampled_from(["raw", "sorted", "doubled", "run"]))
    if shape == "sorted":
        values = sorted(values)
    elif shape == "doubled":
        values = values + values
    elif shape == "run" and values:
        values = list(range(values[0], values[0] + 700))
    as_array = draw(st.booleans())
    return np.asarray(values, dtype=np.int64) if as_array else values


steps = st.one_of(
    st.tuples(st.just("range"), heap_index, st.integers(0, 50000),
              st.one_of(st.none(), st.integers(-5, 30000))),
    st.tuples(st.just("heap"), heap_index),
    st.tuples(st.just("positions"), heap_index, position_lists(), width),
    st.tuples(st.just("probes"), heap_index, st.integers(0, 40),
              st.integers(0, 20000), width),
    st.tuples(st.just("column"), column_index,
              st.one_of(st.none(), position_lists())),
    st.tuples(st.just("evict_heap"), heap_index),
    st.tuples(st.just("evict_all")),
    st.tuples(st.just("enter"), st.sampled_from("abc")),
    st.tuples(st.just("exit")),
)


def _apply(manager, open_labels, step):
    """One script step; ``open_labels`` holds the entered (nested)
    ``operator()`` contexts, innermost last."""
    kind, args = step[0], step[1:]
    if kind == "range":
        manager.access_range(HEAPS[args[0]], args[1], args[2])
    elif kind == "heap":
        manager.access_heap(HEAPS[args[0]])
    elif kind == "positions":
        manager.access_positions(HEAPS[args[0]], args[1], args[2])
    elif kind == "probes":
        manager.access_probes(HEAPS[args[0]], *args[1:])
    elif kind == "column":
        manager.access_column(COLUMNS[args[0]], args[1])
    elif kind == "evict_heap":
        manager.evict_heap(HEAPS[args[0]])
    elif kind == "evict_all":
        manager.evict_all()
    elif kind == "enter":
        label = manager.operator(args[0])
        label.__enter__()
        open_labels.append(label)
    elif open_labels:
        open_labels.pop().__exit__(None, None, None)


def _state(manager):
    touched = {
        heap_id: (set(np.flatnonzero(pages).tolist())
                  if isinstance(pages, np.ndarray) else set(pages))
        for heap_id, pages in manager.heap_pages.items()}
    return {"faults": manager.faults, "hits": manager.hits,
            "evictions": manager.evictions,
            "op_faults": dict(manager.op_faults),
            "heap_pages": {k: v for k, v in touched.items() if v},
            "touched": {k: v for k, v in
                        manager.touched_page_counts().items() if v},
            "resident": manager.resident_pages()}


def _assert_same_accounting(script, **options):
    fast, slow = BufferManager(**options), \
        ReferenceBufferManager(**options)
    fast_labels, slow_labels = [], []
    # trailing exits close whatever the script left open
    for number, step in enumerate(script + [("exit",)] * len(script)):
        _apply(fast, fast_labels, step)
        _apply(slow, slow_labels, step)
        assert _state(fast) == _state(slow), (number, step)


@settings(max_examples=200, deadline=None)
@given(script=st.lists(steps, max_size=40),
       memory_pages=st.sampled_from([None, 1, 7, 64]),
       track_pages=st.booleans(),
       page_size=st.sampled_from([4096, 1000]))
def test_accounting_matches_the_per_page_reference(
        script, memory_pages, track_pages, page_size):
    _assert_same_accounting(script, page_size=page_size,
                            memory_pages=memory_pages,
                            track_pages=track_pages)


#: the corners a random script reaches rarely: a spilled transient
#: heap re-touched in part, then in whole, then evicted again; and a
#: bitmap that has to grow past pages already set
EDGE_SCRIPTS = {
    "spill-partial-retouch": [
        ("enter", "a"),
        ("range", TRANSIENT, 0, 16384), ("evict_heap", TRANSIENT),
        ("range", TRANSIENT, 0, 8192), ("range", TRANSIENT, 0, 16384),
        ("evict_heap", TRANSIENT), ("evict_heap", TRANSIENT),
        ("positions", TRANSIENT, [0, 3000, 900], 8),
        ("evict_all",), ("heap", TRANSIENT)],
    "bitmap-growth": [
        ("positions", TRANSIENT, [1], 8),
        ("evict_heap", TRANSIENT),
        ("positions", TRANSIENT, [6000, 1, 2], 5000),
        ("positions", 0, [3], 8), ("probes", 0, 3, 20000, 8),
        ("positions", 0, [5999, 3], 4096), ("heap", 0),
        ("evict_heap", 0), ("range", 0, 4000, None)],
}


@pytest.mark.parametrize("memory_pages", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(EDGE_SCRIPTS))
def test_edge_scripts_match_the_per_page_reference(name, memory_pages):
    _assert_same_accounting(EDGE_SCRIPTS[name], track_pages=True,
                            memory_pages=memory_pages)


def test_disabled_manager_accounts_nothing():
    manager = BufferManager(enabled=False)
    for step in (("heap", 0), ("positions", 1, [1, 2, 3], 8),
                 ("probes", 0, 2, 99, 8), ("column", 2, [5, 6])):
        _apply(manager, [], step)
    assert (manager.faults, manager.hits, manager.resident_pages()) \
        == (0, 0, 0)


# ----------------------------------------------------------------------
# pinned traces (Figures 9 and 10 do not move)
# ----------------------------------------------------------------------
#: query -> (faults, hits) of a cold run, queries executed in order on
#: one freshly loaded database (scale 0.0005, seed 11).  The faults
#: were recorded with the per-page reference implementation before the
#: rewrite and have not moved since; the hits were re-pinned when the
#: optimizer's passes and synced joins removed recomputed statements
#: and copied intermediates (re-reads of shared columns are hits).
COLD_TRACE = {
    1: (48, 174), 2: (23, 12), 3: (43, 54), 4: (25, 41), 5: (56, 33),
    6: (45, 38), 7: (38, 44), 8: (43, 37), 9: (93, 53), 10: (60, 49),
    11: (11, 16), 12: (41, 78), 13: (49, 26), 14: (36, 61),
    15: (42, 115),
}

#: Q1 under a 40-page budget right after the runs above:
#: (faults, hits, evictions, resident pages).  Re-pinned with the
#: optimizer's passes from (250, 106, 612, 40): fewer transient
#: intermediates compete for the 40 pages, so fewer spill re-reads.
Q1_SPILL_TRACE = (82, 140, 156, 40)


def test_cold_fault_traces_equal_their_recorded_values():
    db, _report = load_tpcd(generate(scale=0.0005, seed=11))
    trace = {}
    for number in sorted(QUERIES):
        manager = BufferManager()
        with use(manager):
            QUERIES[number].run(db)
        assert manager.evictions == 0
        trace[number] = (manager.faults, manager.hits)
    assert trace == COLD_TRACE
    tight = BufferManager(page_size=4096, memory_pages=40)
    with use(tight):
        QUERIES[1].run(db)
    assert (tight.faults, tight.hits, tight.evictions,
            tight.resident_pages()) == Q1_SPILL_TRACE


# ----------------------------------------------------------------------
# cost gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gate_db():
    db, _report = load_tpcd(generate(scale=0.005, seed=11))
    return db


def _median_ms(run, reps=7):
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        run()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


@pytest.mark.parametrize("number", [6, 14])
def test_accounting_on_costs_at_most_2_5x(gate_db, number):
    prepared = prepare_sql(gate_db, sql_text(number))

    def accounted():
        with use(BufferManager()):
            prepared.run()

    accounted()
    ratios = []
    for _attempt in range(3):            # a noisy host gets two retries
        off = min(_median_ms(prepared.run), _median_ms(prepared.run))
        ratios.append(_median_ms(accounted) / off)
        if ratios[-1] <= 2.5:
            break
    assert min(ratios) <= 2.5, ratios


def test_disabled_manager_is_never_touched(gate_db, monkeypatch):
    touches = []
    monkeypatch.setattr(
        BufferManager, "_touch_pages",
        lambda self, heap, pages: touches.append(heap))
    assert buffer.get_manager() is buffer._DISABLED
    for number in (1, 6, 14):
        prepare_sql(gate_db, sql_text(number)).run()
    assert touches == []
    with use(BufferManager()):           # the probe itself works
        prepare_sql(gate_db, sql_text(6)).run()
    assert touches
