"""MIL: the Monet Interface Language (paper section 4.2).

A :class:`MILProgram` is a straight-line sequence of assignments; each
assignment applies one BAT-algebra primitive to variables and/or
catalog BATs.  The MOA rewriter emits MIL programs, and the
:class:`MILInterpreter` executes them against a
:class:`~repro.monet.kernel.MonetKernel`, recording a per-statement
trace (elapsed milliseconds, simulated page faults, result size) in the
format of the paper's Figure 10.
"""

import time

from ..errors import MILError
from .operators import (aggregate_all, antijoin, fill_zero, group1,
                        group2, ident, join, mark, multiplex, number,
                        pairjoin, select_eq, select_range, semijoin,
                        set_aggregate, slice_bunches, sort_positions, union,
                        unique)
from .buffer import get_manager


class Var:
    """A reference to a MIL variable or catalog BAT, by name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self):
        return hash(("Var", self.name))


class MILStmt:
    """``target := op(args...)``; ``fn`` names the multiplexed or
    aggregated function for ``multiplex``/``aggr`` statements."""

    __slots__ = ("target", "op", "args", "fn", "comment")

    def __init__(self, target, op, args, fn=None, comment=None):
        self.target = target
        self.op = op
        self.args = list(args)
        self.fn = fn
        self.comment = comment

    def referenced_vars(self):
        """Names of the :class:`Var` references this statement reads
        (variables *or* catalog BATs — the resolver decides which)."""
        return [arg.name for arg in self.args if isinstance(arg, Var)]

    def render(self):
        """MIL-style text, e.g. ``years := [year](join(a, b))``."""
        rendered_args = ", ".join(_render_arg(a) for a in self.args)
        if self.op == "multiplex":
            call = "[%s](%s)" % (self.fn, rendered_args)
        elif self.op == "aggr":
            call = "{%s}(%s)" % (self.fn, rendered_args)
        elif self.op == "aggr_all":
            call = "%s(%s)" % (self.fn, rendered_args)
        else:
            call = "%s(%s)" % (self.op, rendered_args)
        text = "%s := %s" % (self.target, call)
        if self.comment:
            text += "  # " + self.comment
        return text

    def __repr__(self):
        return "MILStmt(%s)" % self.render()


def _render_arg(arg):
    if isinstance(arg, Var):
        return arg.name
    if isinstance(arg, str):
        return '"%s"' % arg
    if isinstance(arg, bool):
        return "true" if arg else "false"
    if arg is None:
        return "nil"
    return repr(arg)


class MILProgram:
    """A straight-line MIL program with a tiny emit API."""

    def __init__(self):
        self.stmts = []
        self._counter = 0

    def fresh(self, hint="t"):
        """A fresh variable name."""
        self._counter += 1
        return "%s%d" % (hint, self._counter)

    def emit(self, op, args, fn=None, target=None, hint="t", comment=None):
        """Append a statement; returns the target :class:`Var`."""
        target = target or self.fresh(hint)
        self.stmts.append(MILStmt(target, op, args, fn=fn, comment=comment))
        return Var(target)

    def render(self):
        return "\n".join(stmt.render() for stmt in self.stmts)

    def __len__(self):
        return len(self.stmts)

    def __iter__(self):
        return iter(self.stmts)


class TraceRow:
    """One executed statement: text, elapsed ms, faults, result size."""

    __slots__ = ("text", "elapsed_ms", "faults", "size")

    def __init__(self, text, elapsed_ms, faults, size):
        self.text = text
        self.elapsed_ms = elapsed_ms
        self.faults = faults
        self.size = size


class MILTrace:
    """Execution trace in the shape of the paper's Figure 10."""

    def __init__(self, rows):
        self.rows = rows

    @property
    def total_ms(self):
        return sum(row.elapsed_ms for row in self.rows)

    @property
    def total_faults(self):
        return sum(row.faults for row in self.rows)

    def format_table(self):
        lines = ["%9s %7s %8s   %s" % ("elapsed", "faults", "size",
                                       "MIL statement"),
                 "%9s %7s %8s" % ("ms", "", "BUNs")]
        for row in self.rows:
            lines.append("%9.2f %7d %8s   %s"
                         % (row.elapsed_ms, row.faults,
                            "-" if row.size is None else str(row.size),
                            row.text))
        lines.append("%9.2f %7d            (total)"
                     % (self.total_ms, self.total_faults))
        return "\n".join(lines)


class MILInterpreter:
    """Executes MIL programs against a kernel catalog."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.env = {}

    def resolve(self, ref):
        """A variable from the environment or the kernel catalog."""
        if isinstance(ref, Var):
            if ref.name in self.env:
                return self.env[ref.name]
            if ref.name in self.kernel:
                return self.kernel.get(ref.name)
            raise MILError("unbound MIL variable %r" % ref.name)
        return ref

    def run(self, program, trace=False):
        """Execute; returns a :class:`MILTrace` when tracing."""
        rows = []
        manager = get_manager()
        for stmt in program:
            args = [self.resolve(a) for a in stmt.args]
            handler = _OPS.get(stmt.op)
            if handler is None:
                raise MILError("unknown MIL op %r" % stmt.op)
            faults_before = manager.faults
            started = time.perf_counter()
            try:
                result = handler(stmt, args)
            except Exception as exc:
                raise MILError("MIL statement failed: %s (%s)"
                               % (stmt.render(), exc)) from exc
            elapsed = (time.perf_counter() - started) * 1000.0
            self.env[stmt.target] = result
            if trace:
                size = len(result) if hasattr(result, "__len__") else None
                rows.append(TraceRow(stmt.render(), elapsed,
                                     manager.faults - faults_before, size))
        return MILTrace(rows)

    def value(self, name):
        """Fetch a result variable after a run."""
        if name not in self.env:
            raise MILError("no MIL variable %r after execution" % name)
        return self.env[name]


# ----------------------------------------------------------------------
# op table
# ----------------------------------------------------------------------
def _op_select(stmt, args):
    if len(args) == 2:
        return select_eq(args[0], args[1], name=stmt.target)
    if len(args) == 3:
        return select_range(args[0], args[1], args[2], name=stmt.target)
    if len(args) == 5:
        return select_range(args[0], args[1], args[2], name=stmt.target,
                            low_inclusive=args[3], high_inclusive=args[4])
    raise MILError("select expects 2, 3 or 5 arguments")


def _op_group(stmt, args):
    if len(args) == 1:
        return group1(args[0], name=stmt.target)
    if len(args) == 2:
        return group2(args[0], args[1], name=stmt.target)
    raise MILError("group expects 1 or 2 arguments")


def _op_sortby(stmt, args):
    """sortby(carrier, key1, desc1, key2, desc2, ...) — reorder the
    carrier BAT by the tail values of synced key BATs."""
    carrier = args[0]
    columns = []
    descending = []
    rest = args[1:]
    if len(rest) % 2:
        raise MILError("sortby expects (key, desc) pairs")
    for i in range(0, len(rest), 2):
        key_bat, desc = rest[i], rest[i + 1]
        if len(key_bat) != len(carrier):
            raise MILError("sortby key not aligned with carrier")
        columns.append(key_bat.tail)
        descending.append(bool(desc))
    order = sort_positions(columns, descending)
    return carrier.take(order, name=stmt.target)


_OPS = {
    "select": _op_select,
    "join": lambda s, a: join(a[0], a[1], name=s.target),
    "semijoin": lambda s, a: semijoin(a[0], a[1], name=s.target),
    "antijoin": lambda s, a: antijoin(a[0], a[1], name=s.target),
    "mirror": lambda s, a: a[0].mirror(),
    "ident": lambda s, a: ident(a[0], name=s.target),
    "unique": lambda s, a: unique(a[0], name=s.target),
    "group": _op_group,
    "multiplex": lambda s, a: multiplex(s.fn, *a, name=s.target),
    "aggr": lambda s, a: set_aggregate(s.fn, a[0], name=s.target),
    "fillzero": lambda s, a: fill_zero(a[0], a[1], name=s.target),
    "aggr_all": lambda s, a: aggregate_all(s.fn, a[0]),
    "mark": lambda s, a: mark(a[0], a[1] if len(a) > 1 else 0,
                              name=s.target),
    "number": lambda s, a: number(a[0], a[1] if len(a) > 1 else 0,
                                  name=s.target),
    "pairjoin": lambda s, a: pairjoin(a, name=s.target),
    "sortby": _op_sortby,
    "slice": lambda s, a: slice_bunches(a[0], a[1], a[2], name=s.target),
    "union": lambda s, a: union(a[0], a[1], name=s.target),
}
