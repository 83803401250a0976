"""The key domain the kernels in :mod:`repro.monet.vectorized` rely on.

The kernels take no object or unsigned keys: every key array comes
from a column's ``keys()`` or from ``equality_keys``, and those are
bool, int16/32/64 or float32/64 arrays.  These tests pin that
precondition from both ends:

* every registered atom, in fixed, void, same-heap var and cross-heap
  var columns, produces keys inside the domain;
* the 21 SQL plans and the Moa set-operation texts of
  ``test_commute.QUERIES`` hand the kernels nothing else (each kernel
  wrapped, as ``plan_oracle.CountingCalls`` wraps a function, and the
  dtype of every array argument recorded);
* every kernel the module exports has a caller in the engine.
"""

import ast
import pathlib
import sys
from collections import Counter

import numpy as np

from moa.test_commute import QUERIES
from plan_oracle import CountingCalls, sql_texts
from repro.monet import vectorized as vz
from repro.monet.atoms import ATOMS
from repro.monet.column import VoidColumn, column_from_values, equality_keys
from repro.sql.runtime import execute_sql

DOMAIN = {"bool", "int16", "int32", "int64", "float32", "float64"}

#: sample values per atom storage: numpy dtype kind, or var-sized
_VALUES = {"b": [True, False, True], "i": [3, 0, 3], "f": [0.5, 2.0, 0.5],
           "var": ["b", "a", "b"]}


def _columns(atom):
    """(left, right) column pairs of ``atom`` as the engine compares
    them: two columns of one layout, and for var atoms both a shared
    heap and two separate ones."""
    if atom.name == "void":
        return [(VoidColumn(0, 3), VoidColumn(1, 3)),
                (VoidColumn(0, 3), column_from_values("oid", [2, 0]))]
    kind = "var" if atom.varsized else atom.dtype.kind
    values = _VALUES[kind]
    if atom.name == "char":
        values = [v[0] for v in values]
    left = column_from_values(atom, values)
    pairs = [(left, column_from_values(atom, values[:2]))]
    if atom.varsized:
        pairs.append((left, left.take(np.asarray([1, 0]))))
        assert pairs[-1][1].heap is left.heap
        assert pairs[0][1].heap is not left.heap
    return pairs


def test_every_atom_layout_keys_lie_in_the_domain():
    for atom in ATOMS.values():
        for left, right in _columns(atom):
            keyed = [left.keys(), right.keys(), *equality_keys(left, right)]
            assert {keys.dtype.name for keys in keyed} <= DOMAIN, atom.name


class DtypeCalls(CountingCalls):
    """:class:`CountingCalls` that also records the dtype of every
    array argument, keyed by kernel name."""

    def __init__(self, name, func, seen):
        super().__init__(func)
        self.name = name
        self.seen = seen

    def __call__(self, *args, **kwargs):
        for arg in args:
            if isinstance(arg, np.ndarray):
                self.seen[self.name, arg.dtype.name] += 1
        return super().__call__(*args, **kwargs)


def _wrap_kernels(monkeypatch):
    """Record every kernel call in every loaded engine module."""
    seen = Counter()
    kernels = {name: getattr(vz, name) for name in vz.__all__
               if name not in ("MultiMap", "pin_malloc_thresholds")}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for name, func in kernels.items():
            if getattr(module, name, None) is func:
                monkeypatch.setattr(module, name,
                                    DtypeCalls(name, func, seen))
    for method in ("__init__", "match", "lookup_first"):
        original = getattr(vz.MultiMap, method)
        counting = DtypeCalls("MultiMap." + method, original, seen)
        # a plain function, so that it binds to the instance
        monkeypatch.setattr(vz.MultiMap, method,
                            lambda *args, _call=counting: _call(*args))
    return seen


def _outside(seen):
    return {key for key in seen if key[1] not in DOMAIN}


def test_engine_hands_the_kernels_only_domain_keys(tiny_tpcd_db,
                                                   monkeypatch):
    seen = _wrap_kernels(monkeypatch)
    for text in sql_texts().values():
        execute_sql(tiny_tpcd_db, text)
    setops = [q for q in QUERIES
              if q.startswith(("union(", "difference(", "intersection("))]
    assert len(setops) == 9
    for text in setops:
        tiny_tpcd_db.query(text)
    kernels = {name for name, _dtype in seen}
    assert {"MultiMap.__init__", "MultiMap.match", "membership_mask",
            "factorize", "grouping", "refine_codes",
            "sorted_lookup"} <= kernels
    assert _outside(seen) == set()
    # the recorder is live: one object array is caught
    vz.membership_mask(np.asarray([1, 2], dtype=object),
                       np.asarray([2], dtype=object))
    assert ("membership_mask", "object") in _outside(seen)


def test_every_exported_kernel_has_an_engine_caller():
    src = pathlib.Path(vz.__file__).resolve().parents[1]
    imported = set()
    for path in src.rglob("*.py"):
        if path.name == "vectorized.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").endswith("vectorized"):
                imported.update(alias.name for alias in node.names)
    assert set(vz.__all__) - imported == set()
