"""Plan optimization: the compile-time MIL passes and the run-time
operator dispatch switch (paper sections 2 and 5.1).

**Compile time.**  Every plan the Moa rewriter emits goes through
:func:`optimize` before it is verified and cached — no switch, always
on.  MIL here is straight-line and its operators are pure, so the
passes are equations over statement lists, each with its side
conditions stated (in the style of Henglein et al., *The Programming
of Algebra*):

1. *Common subexpressions* (value numbering)::

       x := f(a...); ...; y := f(a...)   ==>   x := f(a...); ...  [y/x]

   when ``f``'s signature is ``pure``, ``f``'s typed literals are equal
   (``1``, ``1.0`` and ``True`` differ, and so do ``0.0`` and
   ``-0.0``), every operand has the same value number, no variable of
   the program is assigned twice (so ``x`` still holds ``f(a...)``
   wherever ``y`` was read), and ``y`` is not a root the result rep
   reads by name.  Later reads of ``y`` are renamed to ``x``.
2. *Dead code*::

       ...; z := g(b...); ...   ==>   ...; ...

   when no root depends, transitively, on ``z`` (the analysis layer's
   liveness pass).

The paper's Figure 10 plan for Q13 has neither a recomputed value nor
a dead statement, so it leaves the pipeline statement for statement.

**Run time.**  "The Monet kernel generally contains multiple
implementations for each algebraic operation. ... Depending on the
state of the system, and the state of the operands, a run-time choice
between the available algorithms can be made."  The dispatch *policy*
lives inside each operator module (it inspects operand properties and
accelerators); this module provides a process-global switch to disable
property-driven dispatch (every operator then falls back to its
generic hash/scan implementation; ablation benchmark A2) and records
which implementation ran, so tests can assert that the expected
variant was chosen and benchmarks can report dispatch statistics.
"""

import contextlib
from collections import Counter


class Optimizer:
    """Dispatch switch + per-implementation and per-pass counters."""

    def __init__(self, dynamic=True):
        #: When False, operators ignore properties/accelerators and use
        #: their generic implementation (ablation A2).
        self.dynamic = dynamic
        #: Counter of "op:impl" strings, plus "cse:removed" and
        #: "dce:removed" statement counts from :func:`optimize`.
        self.stats = Counter()
        #: Most recent implementation per op, for tests.
        self.last = {}

    def record(self, op, impl):
        """Note that operator ``op`` executed implementation ``impl``."""
        self.stats["%s:%s" % (op, impl)] += 1
        self.last[op] = impl

    def reset(self):
        self.stats.clear()
        self.last.clear()


_current = Optimizer()


def get_optimizer():
    return _current


@contextlib.contextmanager
def use(optimizer):
    """Temporarily install a different optimizer (or policy switch)."""
    global _current
    previous = _current
    _current = optimizer
    try:
        yield optimizer
    finally:
        _current = previous


@contextlib.contextmanager
def dispatch_disabled():
    """Run a block with property-driven dispatch switched off."""
    opt = Optimizer(dynamic=False)
    with use(opt):
        yield opt


# ----------------------------------------------------------------------
# compile-time passes
# ----------------------------------------------------------------------
def optimize(program, roots):
    """Run the pass pipeline over ``program`` in place.

    ``roots`` are the variable names whose final values the caller
    reads (the rewriter's result rep and scalar).  Returns the number
    of statements removed.
    """
    before = len(program.stmts)
    merged = merge_common_subexpressions(program, roots)
    dead = drop_dead_statements(program, roots)
    stats = _current.stats
    if merged:
        stats["cse:removed"] += merged
    if dead:
        stats["dce:removed"] += dead
    return before - len(program.stmts)


#: Literal types whose values key an expression as ``(type, value)``.
_PLAIN_LITERALS = frozenset((bool, int, str, type(None)))


def merge_common_subexpressions(program, roots):
    """Equation 1 of the module docstring; returns statements removed."""
    # imported here: the analysis layer imports monet at module scope
    from ..analysis.signatures import SIGNATURES
    from .mil import MILStmt, Var
    stmts = program.stmts
    if len({stmt.target for stmt in stmts}) != len(stmts):
        return 0
    pure = {op for op, signature in SIGNATURES.items() if signature.pure}
    rename = {}          # dropped target -> the first definition's target
    defined = set()
    first = {}           # expression key -> target of its first definition
    kept = []
    for stmt in stmts:
        target = stmt.target
        mergeable = stmt.op in pure
        key = [stmt.op, stmt.fn]
        args = []
        renamed = False
        for arg in stmt.args:
            kind = type(arg)
            if kind is Var:
                name = arg.name
                if name in rename:
                    name = rename[name]
                    arg = Var(name)
                    renamed = True
                # a defined name is its own value number (targets are
                # unique); a catalog name is tagged so that it can never
                # collide with a target of the same spelling
                key.append(name if name in defined else ("catalog", name))
            elif kind is float:
                key.append((float, arg.hex()))       # keeps -0.0 apart
            elif kind in _PLAIN_LITERALS:
                key.append((kind, arg))
            else:
                mergeable = False                    # an opaque literal
            args.append(arg)
        if renamed:
            stmt = MILStmt(target, stmt.op, args, fn=stmt.fn,
                           comment=stmt.comment)
        defined.add(target)
        if mergeable:
            earlier = first.setdefault(tuple(key), target)
            if earlier != target and target not in roots:
                rename[target] = earlier
                continue
        kept.append(stmt)
    program.stmts = kept
    return len(stmts) - len(kept)


def drop_dead_statements(program, roots):
    """Equation 2 of the module docstring; returns statements removed."""
    from ..analysis.verify import live_statements
    live = live_statements(program, roots=roots)
    removed = len(program.stmts) - len(live)
    if removed:
        program.stmts = [program.stmts[index] for index in live]
    return removed
