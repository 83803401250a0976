"""MOADatabase: the end-to-end facade (schema -> load -> query).

Wires the whole pipeline of the paper's Figure 6 together::

    db = MOADatabase(schema)
    db.load(data)                      # flatten into BATs (section 3.3)
    result = db.query('select[...](Item)')   # parse -> resolve ->
                                              # rewrite -> MIL -> rep ->
                                              # materialise

``db.query`` executes the *physical* path (MIL on the Monet kernel);
``db.evaluate`` executes the *logical* path (reference evaluator);
``db.check_commutes`` runs both and compares — the paper's correctness
criterion.
"""

import time

from ..monet.buffer import use as use_buffer
from ..monet.kernel import MonetKernel
from ..monet.mil import MILInterpreter, Var
from .evaluator import evaluate
from .mapping import (create_datavectors, flatten, objects_to_columns,
                      reorder_on_tail)
from .parser import parse
from .structures import Materializer
from .typecheck import resolve
from .rewriter import rewrite
from .values import sequences_equivalent
from . import ast


class QueryResult:
    """Result of one physical query execution."""

    def __init__(self, rows, program, trace, rep, elapsed_ms):
        #: materialised logical values (list; ordered for sort/top)
        self.rows = rows
        #: the MIL program that ran
        self.program = program
        #: per-statement trace (ms, faults, sizes)
        self.trace = trace
        #: the result structure function
        self.rep = rep
        self.elapsed_ms = elapsed_ms


class MOADatabase:
    """A MOA schema + Monet kernel + loaded data."""

    def __init__(self, schema, kernel=None):
        self.schema = schema.validate()
        self.kernel = kernel if kernel is not None else MonetKernel()
        self.flat = None

    # ------------------------------------------------------------------
    def load(self, data, datavectors=False, reorder=False):
        """Flatten logical data into the kernel (section 3.3 / 6)."""
        self.flat = flatten(self.schema,
                            objects_to_columns(self.schema, data),
                            self.kernel, datavectors=datavectors,
                            reorder=reorder, data=data)
        return self.flat

    def build_accelerators(self):
        """Section 6 pipeline: datavectors, then reorder on tail."""
        create_datavectors(self.flat)
        reorder_on_tail(self.flat)

    # ------------------------------------------------------------------
    def prepare(self, query_text):
        """Parse + resolve a query (no execution)."""
        tree = parse(query_text) if isinstance(query_text, str) \
            else query_text
        return resolve(tree, self.schema)

    def compile(self, query_text):
        """Parse, resolve and rewrite to a MIL program."""
        resolved = self.prepare(query_text)
        return resolved, rewrite(resolved, self.flat)

    def run_compiled(self, compiled):
        """Execute an already-compiled :class:`RewriteResult`.

        The hot path of the query service: a cached plan (MIL program
        + result rep) re-executes against the current kernel without
        re-parsing, re-resolving, or re-rewriting the query text.
        Returns the materialised rows (or the scalar for
        aggregate-rooted queries) — no trace, no QueryResult wrapper.
        """
        interpreter = MILInterpreter(self.kernel)
        interpreter.run(compiled.program)
        if compiled.scalar_var is not None:
            return interpreter.value(compiled.scalar_var)
        return Materializer(interpreter.resolve).top_level(compiled.rep)

    def query(self, query_text, trace=False, buffer_manager=None):
        """Execute the physical path; returns a :class:`QueryResult`."""
        if self.flat is None:
            raise RuntimeError("no data loaded")
        resolved, result = self.compile(query_text)
        interpreter = MILInterpreter(self.kernel)
        started = time.perf_counter()
        if buffer_manager is not None:
            with use_buffer(buffer_manager):
                mil_trace = interpreter.run(result.program, trace=True)
        else:
            mil_trace = interpreter.run(result.program, trace=True)
        elapsed = (time.perf_counter() - started) * 1000.0
        if result.scalar_var is not None:
            value = interpreter.value(result.scalar_var)
            return QueryResult(value, result.program, mil_trace, None,
                               elapsed)
        rows = Materializer(interpreter.resolve).top_level(result.rep)
        return QueryResult(rows, result.program, mil_trace, result.rep,
                           elapsed)

    def evaluate(self, query_text):
        """Execute the logical path (reference evaluator)."""
        resolved = self.prepare(query_text)
        result = evaluate(resolved, self.flat.data)
        root = resolved.root
        if isinstance(root, ast.Aggregate):
            return result
        return result

    # ------------------------------------------------------------------
    def check_commutes(self, query_text, tolerance=1e-6):
        """Figure 6: both gray paths must yield the same result.

        Returns (physical, logical) on success; raises AssertionError
        with a diff summary on mismatch.
        """
        resolved = self.prepare(query_text)
        ordered = isinstance(resolved.root, (ast.Sort, ast.Top))
        physical = self.query(query_text).rows
        logical = self.evaluate(query_text)
        if isinstance(resolved.root, ast.Aggregate):
            ok = _scalar_equal(physical, logical, tolerance)
        else:
            ok = sequences_equivalent(physical, logical,
                                      tolerance=tolerance, ordered=ordered)
        if not ok:
            raise AssertionError(
                "Figure 6 diagram does not commute for %r:\n"
                "physical (%s rows): %r\nlogical (%s rows): %r"
                % (query_text,
                   len(physical) if hasattr(physical, "__len__") else "-",
                   physical,
                   len(logical) if hasattr(logical, "__len__") else "-",
                   logical))
        return physical, logical

    # ------------------------------------------------------------------
    def mil_text(self, query_text):
        """The MIL translation of a query, as text (Figure 10 style)."""
        _resolved, result = self.compile(query_text)
        return result.program.render()


def _scalar_equal(left, right, tolerance):
    if left is None or right is None:
        return left is right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return abs(float(left) - float(right)) <= tolerance * max(
            1.0, abs(float(left)), abs(float(right)))
    return left == right
