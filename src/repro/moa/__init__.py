"""MOA: the Magnum Object Algebra layer (paper sections 3 and 4).

The logical object data model (base types + SET/TUPLE/OBJECT), its
formally specified flattening onto BATs, the MOA query algebra with
the paper's textual syntax, the MOA -> MIL term rewriter, and the
reference evaluator used to check the Figure 6 commuting diagram.
"""

from .evaluator import Evaluator, evaluate
from .mapping import FlattenedDatabase, flatten
from .parser import parse
from .schema import ClassDef, Schema, ref, setof, tupleof
from .session import MOADatabase, QueryResult
from .structures import (AtomRep, InlineAtomRep, InlineRefRep, Materializer,
                         Mirrored, ObjectRep, RefRep, SetRep, TupleRep,
                         ViaRep, materialize)
from .typecheck import ResolvedQuery, resolve
from .types import (BOOLEAN, CHAR, DOUBLE, FLOAT, INSTANT, INT, LONG,
                    STRING, BaseType, ClassRef, MOAType, SetType, TupleType)
from .rewriter import RewriteResult, Rewriter, rewrite
from .values import (Bag, Ref, Row, RowBatch, equivalent,
                     sequences_equivalent)

__all__ = [
    "Evaluator", "evaluate",
    "FlattenedDatabase", "flatten",
    "parse",
    "ClassDef", "Schema", "ref", "setof", "tupleof",
    "MOADatabase", "QueryResult",
    "AtomRep", "InlineAtomRep", "InlineRefRep", "Materializer", "Mirrored",
    "ObjectRep", "RefRep", "SetRep", "TupleRep", "ViaRep", "materialize",
    "ResolvedQuery", "resolve",
    "BOOLEAN", "CHAR", "DOUBLE", "FLOAT", "INSTANT", "INT", "LONG",
    "STRING", "BaseType", "ClassRef", "MOAType", "SetType", "TupleType",
    "RewriteResult", "Rewriter", "rewrite",
    "Bag", "Ref", "Row", "RowBatch", "equivalent",
    "sequences_equivalent",
]
