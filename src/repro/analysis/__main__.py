"""``python -m repro.analysis`` — the static-analysis front end.

Three modes, combinable with budget knobs:

``--selfcheck``
    Run the project-invariant lint (:mod:`repro.analysis.selfcheck`)
    over the repository tree; non-zero exit on any finding.
``--tpcd``
    Compile every TPC-D query (all phases) against a TPC-D database
    and verify each plan, reporting per-plan findings, statement
    counts before -> after the optimizer's passes, static bounds, and
    verifier wall time — the QueryTorque-style per-plan report.  A
    plan the passes made longer fails.
    ``--db-dir`` reopens a saved database (warm, no dbgen); without
    it a tiny dataset is generated in memory.
``FILE``
    Lint one textual MOA query (read from FILE, or ``-`` for stdin)
    against the TPC-D schema.

``--max-rows`` / ``--max-bytes`` / ``--max-pages`` attach a
:class:`~repro.analysis.verify.PlanBudget`, so the same command
answers "would the server admit this plan under budget B?".
Exit status: 0 = clean, 1 = findings/errors.
"""

import argparse
import sys

from . import selfcheck
from .verify import PlanBudget, catalog_stats_from_kernel, verify_program


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="MIL plan verifier and project-invariant linter")
    parser.add_argument("file", nargs="?", default=None,
                        help="MOA query file to lint ('-' = stdin)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the project-invariant lint")
    parser.add_argument("--tpcd", action="store_true",
                        help="verify every TPC-D query plan")
    parser.add_argument("--db-dir", default=None,
                        help="saved TPC-D database directory to reopen "
                             "(default: generate a tiny dataset)")
    parser.add_argument("--sf", type=float, default=0.0005,
                        help="scale factor when generating (default "
                             "0.0005)")
    parser.add_argument("--seed", type=int, default=11,
                        help="dbgen seed when generating (default 11)")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="budget: largest intermediate, in BUNs")
    parser.add_argument("--max-bytes", type=int, default=None,
                        help="budget: total materialised bytes")
    parser.add_argument("--max-pages", type=int, default=None,
                        help="budget: total page-fault bound")
    parser.add_argument("--warnings", action="store_true",
                        help="count warnings as failures too")
    return parser


def _budget(args):
    if args.max_rows is None and args.max_bytes is None \
            and args.max_pages is None:
        return None
    return PlanBudget(max_rows=args.max_rows, max_bytes=args.max_bytes,
                      max_pages=args.max_pages)


def _database(args):
    if args.db_dir:
        from ..tpcd import open_tpcd
        db, _report = open_tpcd(args.db_dir)
        return db
    from ..tpcd import load_tpcd
    from ..tpcd.dbgen import generate
    db, _report = load_tpcd(generate(scale=args.sf, seed=args.seed))
    return db


def _report_plan(label, plan, fail_on_warnings, emitted=None):
    """One report line; ``emitted`` is the statement count the rewriter
    produced before the optimizer's passes (a plan the passes grew
    fails)."""
    errors, warnings = plan.errors, plan.warnings
    grew = emitted is not None and len(plan.program) > emitted
    status = "FAIL" if errors or grew or (fail_on_warnings and warnings) \
        else "ok"
    bounds = "rows<=%s bytes<=%s pages<=%s" % (
        plan.max_rows if plan.max_rows is not None else "?",
        plan.total_bytes if plan.total_bytes is not None else "?",
        plan.total_pages if plan.total_pages is not None else "?")
    stmts = "%3d" % len(plan.program) if emitted is None \
        else "%3d -> %3d" % (emitted, len(plan.program))
    print("%-10s %-4s %s stmts  %s  %.2fms"
          % (label, status, stmts, bounds, plan.verify_ms))
    if grew:
        print("    the optimizer's passes grew the plan")
    for finding in errors + warnings:
        print("    " + finding.render())
    return status == "ok"


def _lint_tpcd(args):
    from ..moa.rewriter import Rewriter
    from ..tpcd import QUERIES
    db = _database(args)
    stats = catalog_stats_from_kernel(db.kernel)
    budget = _budget(args)
    clean = True
    for number in sorted(QUERIES):
        for phase, text in enumerate(QUERIES[number].texts()):
            resolved, result = db.compile(text)
            emitted = len(Rewriter(resolved, db.flat).rewrite().program)
            plan = verify_program(result.program, catalog=stats,
                                  budget=budget)
            label = "Q%d" % number if phase == 0 \
                else "Q%d.%d" % (number, phase)
            clean &= _report_plan(label, plan, args.warnings, emitted)
    return clean


def _lint_file(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    db = _database(args)
    stats = catalog_stats_from_kernel(db.kernel)
    _resolved, result = db.compile(text)
    plan = verify_program(result.program, catalog=stats,
                          budget=_budget(args))
    return _report_plan(args.file, plan, args.warnings)


def _run_selfcheck():
    findings = selfcheck.run_selfcheck()
    for finding in findings:
        print(finding.render())
    print("selfcheck: %d finding(s)" % len(findings))
    return not findings


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (args.selfcheck or args.tpcd or args.file):
        _parser().error("nothing to do: pass --selfcheck, --tpcd, "
                        "or a query file")
    clean = True
    if args.selfcheck:
        clean &= _run_selfcheck()
    if args.tpcd:
        clean &= _lint_tpcd(args)
    if args.file:
        clean &= _lint_file(args)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
