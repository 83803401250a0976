"""TPC-D substrate: generator, nested schema, queries, baselines.

The paper "slightly adapted TPC-D to fit an object-oriented context"
(section 1); this package contains everything needed to rerun its
section 6 experiments at laptop scale: a deterministic DBGEN
equivalent, the Figure 1 nested MOA schema, MOA formulations of
Q1-Q15, the bulk-load pipeline, and an n-ary row-store baseline
playing the role of the relational comparator.  Both engines' answers
are checked against the sqlite oracle of :mod:`repro.sql.oracle`.
"""

from .dbgen import CURRENT_DATE, TPCDDataset, generate
from .loader import (LoadReport, load_tpcd, open_tpcd, peek_tpcd_meta,
                     save_tpcd)
from .queries import QUERIES, TPCDQuery
from .rowstore import RowStore
from .schema import tpcd_schema

__all__ = [
    "CURRENT_DATE", "TPCDDataset", "generate",
    "LoadReport", "load_tpcd", "open_tpcd", "peek_tpcd_meta",
    "save_tpcd",
    "QUERIES", "TPCDQuery",
    "RowStore",
    "tpcd_schema",
]
