"""The MIL plan verifier: types, def-use, liveness, static bounds.

``verify_program`` walks a straight-line :class:`~repro.monet.mil.MILProgram`
once, carrying an abstract environment of
:class:`~repro.analysis.signatures.BatType` values:

* every statement is checked against the operator-signature registry
  (:data:`~repro.analysis.signatures.SIGNATURES`) — unknown ops, wrong
  arities and statically certain type violations become findings;
* references are resolved the way the interpreter resolves them
  (environment first, then catalog): a name that neither an earlier
  statement nor the catalog defines is an ``undefined-ref`` (or, when
  a *later* statement defines it, a ``use-before-def``) — this is
  exactly the set of plans on which ``MILInterpreter.resolve`` raises;
* a statement that assigns a catalog BAT's name is a
  ``shadows-catalog`` warning: later references resolve to the new
  variable, earlier ones read the catalog, and the catalog itself is
  never written (the interpreter assigns only its environment);
* dead statements (results never observed) are reported as warnings
  and exposed through :func:`live_statements`, which is also the
  engine of the optimizer's flag-enabled dead-code elimination;
* per-statement cardinality and byte bounds are propagated from
  catalog stats and scored as page-fault bounds with the section
  5.2.2 cost model (:mod:`repro.costmodel.iomodel`), giving admission
  control a static budget to enforce **before** a worker executes
  anything.

The verifier is sound for acceptance: a plan it rejects with an
``error`` finding is certain to raise at execution time.  It is
deliberately *not* complete — data dependent failures still surface
at run time.
"""

import math
import time

from ..costmodel.iomodel import CostModelParams
from ..errors import PlanBudgetExceededError, PlanVerificationError
from ..monet.mil import Var
from .signatures import (ANY, BatType, ScalarType, SignatureError,
                         SIGNATURES)

#: Bytes per page of the static page-fault bound (the cost model's).
_PAGE_SIZE = CostModelParams().page_size


class Finding:
    """One verifier diagnosis, anchored to a statement."""

    __slots__ = ("level", "code", "index", "message")

    def __init__(self, level, code, index, message):
        self.level = level            # "error" | "warning"
        self.code = code
        self.index = index            # statement index, or None
        self.message = message

    @property
    def is_error(self):
        return self.level == "error"

    def render(self):
        where = "plan" if self.index is None else "stmt %d" % self.index
        return "%s [%s] %s: %s" % (self.level, self.code, where,
                                   self.message)

    def __repr__(self):
        return "Finding(%s)" % self.render()


class PlanBudget:
    """Static admission limits for one plan.

    ``max_rows`` bounds the largest single intermediate (BUNs),
    ``max_bytes`` the total bytes materialised across all statements,
    ``max_pages`` the total page-fault bound in the cost model's
    4096-byte pages.  ``None`` disables a limit.  A bound the verifier
    cannot derive (missing catalog stats) counts as exceeding any
    configured limit — admission control must be conservative, not
    hopeful.  A budget pickles, so a server ships it to its workers
    as it is.
    """

    __slots__ = ("max_rows", "max_bytes", "max_pages")

    def __init__(self, max_rows=None, max_bytes=None, max_pages=None):
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.max_pages = max_pages

    def describe(self):
        parts = []
        if self.max_rows is not None:
            parts.append("rows<=%d" % self.max_rows)
        if self.max_bytes is not None:
            parts.append("bytes<=%d" % self.max_bytes)
        if self.max_pages is not None:
            parts.append("pages<=%d" % self.max_pages)
        return ", ".join(parts) or "unlimited"


class VerifiedPlan:
    """The result of one verification pass."""

    __slots__ = ("program", "findings", "var_types", "stmt_bounds",
                 "max_rows", "total_bytes", "total_pages", "verify_ms")

    def __init__(self, program, findings, var_types, stmt_bounds,
                 max_rows, total_bytes, total_pages, verify_ms):
        self.program = program
        self.findings = findings
        #: final abstract value per variable name
        self.var_types = var_types
        #: per-statement (rows, bytes) bounds (entries may be None)
        self.stmt_bounds = stmt_bounds
        #: largest single intermediate, total bytes, total page bound
        #: (each None when underivable)
        self.max_rows = max_rows
        self.total_bytes = total_bytes
        self.total_pages = total_pages
        self.verify_ms = verify_ms

    @property
    def errors(self):
        return [f for f in self.findings if f.is_error]

    @property
    def warnings(self):
        return [f for f in self.findings if not f.is_error]

    @property
    def ok(self):
        return not self.errors

    def raise_for_errors(self):
        """Raise :class:`~repro.errors.PlanVerificationError` when any
        error finding exists (budget findings raise the budget
        subclass)."""
        failed = self.errors
        if not failed:
            return self
        if all(f.code == "budget" for f in failed):
            raise PlanBudgetExceededError(
                "; ".join(f.message for f in failed), findings=failed)
        raise PlanVerificationError(
            "plan verification failed with %d error(s): %s"
            % (len(failed),
               "; ".join(f.render() for f in failed[:5])
               + ("; ..." if len(failed) > 5 else "")),
            findings=failed)


# ----------------------------------------------------------------------
# catalog stats
# ----------------------------------------------------------------------
def _props_flag(value):
    return True if value else None


def _column_atom(column):
    """The stored atom name: ``void`` for virtual dense-oid columns,
    the atom name otherwise."""
    from ..monet.column import VoidColumn
    if isinstance(column, VoidColumn):
        return "void"
    return column.atom.name


def catalog_stats_from_kernel(kernel):
    """Abstract types for every BAT in a live kernel catalog: atoms
    (virtual columns report ``void``), exact counts and the declared
    key/order properties.  A served worker derives them once from the
    catalog it maps and checks every plan kind against them."""
    stats = {}
    for name in kernel.names():
        bat = kernel.get(name)
        stats[name] = BatType(
            _column_atom(bat.head), _column_atom(bat.tail), len(bat),
            count_exact=True,
            hkey=_props_flag(bat.props.hkey),
            tkey=_props_flag(bat.props.tkey),
            hordered=_props_flag(bat.props.hordered),
            tordered=_props_flag(bat.props.tordered))
    return stats


# ----------------------------------------------------------------------
# liveness
# ----------------------------------------------------------------------
def live_statements(program, roots=None):
    """Indices of statements whose effect is observable.

    ``roots`` is the set of variable names whose *final* values must
    survive (e.g. the rewriter's result variables, or a request's
    fetch list); ``None`` means every variable's final value is
    observable (the conservative default used for lint warnings).  A
    statement is live when it computes a root's final value or feeds,
    transitively, a live statement.  Single backward pass — programs
    are straight-line.
    """
    stmts = list(program)
    if roots is None:
        needed = set(stmt.target for stmt in stmts)
    else:
        needed = set(roots)
    live = []
    for index in range(len(stmts) - 1, -1, -1):
        stmt = stmts[index]
        if stmt.target in needed:
            live.append(index)
            needed.discard(stmt.target)
            needed.update(stmt.referenced_vars())
    live.reverse()
    return live


# ----------------------------------------------------------------------
# the verifier
# ----------------------------------------------------------------------
def verify_program(program, catalog=None, budget=None, roots=None):
    """Statically verify a MIL program; returns a :class:`VerifiedPlan`.

    ``catalog`` maps BAT names to :class:`BatType` stats (see
    :func:`catalog_stats_from_kernel`); without it, unresolved names
    are assumed well-typed and reference checking is skipped.
    ``budget`` is an optional :class:`PlanBudget`; ``roots`` narrows
    the liveness analysis to the variables a caller will actually
    fetch.
    """
    started = time.perf_counter()
    findings = []
    env = {}
    defined_at = {}
    stmts = list(program)
    all_targets = set(stmt.target for stmt in stmts)
    stmt_bounds = []
    max_rows = 0
    total_bytes = 0
    rows_unknown = bytes_unknown = False

    for index, stmt in enumerate(stmts):
        abstract_args = []
        for arg in stmt.args:
            if not isinstance(arg, Var):
                abstract_args.append(arg)
                continue
            name = arg.name
            if name in env:
                abstract_args.append(env[name])
            elif catalog is not None and name in catalog:
                abstract_args.append(catalog[name])
            elif catalog is None:
                abstract_args.append(ANY)
            else:
                code = ("use-before-def" if name in all_targets
                        else "undefined-ref")
                findings.append(Finding(
                    "error", code, index,
                    "%r is not defined %s (statement: %s)"
                    % (name,
                       "yet" if code == "use-before-def"
                       else "by the plan or the catalog",
                       stmt.render())))
                abstract_args.append(ANY)

        if catalog is not None and stmt.target in catalog:
            findings.append(Finding(
                "warning", "shadows-catalog", index,
                "shadows catalog BAT %r" % stmt.target))

        signature = SIGNATURES.get(stmt.op)
        if signature is None:
            findings.append(Finding(
                "error", "unknown-op", index,
                "unknown MIL op %r" % stmt.op))
            result = ANY
        else:
            try:
                result = signature.check(stmt, abstract_args)
            except SignatureError as exc:
                findings.append(Finding("error", "type", index,
                                        str(exc)))
                result = ANY
        env[stmt.target] = result
        defined_at[stmt.target] = index

        rows = bytes_ = None
        if isinstance(result, BatType):
            rows = result.count
            width = result.byte_width()
            if rows is not None and width is not None:
                bytes_ = rows * width
            if rows is None:
                rows_unknown = True
            else:
                max_rows = max(max_rows, rows)
            if bytes_ is None:
                bytes_unknown = True
            else:
                total_bytes += bytes_
        stmt_bounds.append((rows, bytes_))

    live = set(live_statements(program, roots=roots))
    for index, stmt in enumerate(stmts):
        if index not in live:
            findings.append(Finding(
                "warning", "dead-instruction", index,
                "result %r is never used (statement: %s)"
                % (stmt.target, stmt.render())))

    plan_rows = None if rows_unknown else max_rows
    plan_bytes = None if bytes_unknown else total_bytes
    plan_pages = None
    if not bytes_unknown:
        plan_pages = sum(
            math.ceil(b / _PAGE_SIZE) for _r, b in stmt_bounds if b)
    if budget is not None:
        _check_budget(budget, plan_rows, plan_bytes, plan_pages,
                      findings)
    verify_ms = (time.perf_counter() - started) * 1000.0
    return VerifiedPlan(program, findings, env, stmt_bounds,
                        plan_rows, plan_bytes, plan_pages, verify_ms)


def _check_budget(budget, plan_rows, plan_bytes, plan_pages, findings):
    checks = (("rows", budget.max_rows, plan_rows,
               "largest intermediate"),
              ("bytes", budget.max_bytes, plan_bytes,
               "total materialised bytes"),
              ("pages", budget.max_pages, plan_pages,
               "total page-fault bound"))
    for unit, limit, bound, label in checks:
        if limit is None:
            continue
        if bound is None:
            findings.append(Finding(
                "error", "budget", None,
                "static %s bound is underivable (missing catalog "
                "stats) but a %s budget of %d is configured"
                % (label, unit, limit)))
        elif bound > limit:
            findings.append(Finding(
                "error", "budget", None,
                "static %s bound %d exceeds the %s budget %d"
                % (label, bound, unit, limit)))


def check_program(program, catalog=None, budget=None, roots=None):
    """Verify and raise on errors; returns the :class:`VerifiedPlan`.

    The one-call form the rewriter and the served ``mil`` kind use:
    :class:`~repro.errors.PlanVerificationError` for malformed plans,
    :class:`~repro.errors.PlanBudgetExceededError` for well-formed
    plans that blow the static budget.
    """
    plan = verify_program(program, catalog=catalog, budget=budget,
                          roots=roots)
    return plan.raise_for_errors()
