"""``python -m repro.sql`` — the SQL front-end's command line.

Three modes, sharing the dataset knobs (``--sf``/``--seed``):

``--suite`` (the default when no QUERY is given)
    Run the differential suite: every SQL formulation of the
    reproduced TPC-D queries, plus the ``EXTRAS`` constructs, executed
    through the Moa/MIL pipeline *and* through an in-memory sqlite3
    oracle over the same generated rows, asserting row-set equality.
    Each reproduced query's hand-written Moa driver (``q3/moa``) and
    row-store baseline (``q3/rowstore``) answers are diffed against
    sqlite's the same way.  Non-zero exit on any mismatch.
``--plan``
    Print the lowered phases (the MOA trees and py-phase arithmetic)
    for QUERY (a SQL file, ``-`` for stdin, or a suite name like
    ``q3`` / ``in_list``) without executing anything.
``QUERY``
    Execute QUERY against a freshly generated TPC-D database and
    print the rows (and, with ``--oracle``, check it against sqlite
    first).

Exit status: 0 = clean, 1 = mismatch/typed SQL error.
"""

import argparse
import sys

from ..errors import SqlError


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.sql",
        description="SQL front-end: parse -> bind -> lower to "
                    "Moa/MIL, with a sqlite differential oracle")
    parser.add_argument("query", nargs="?", default=None,
                        help="SQL file ('-' = stdin) or a suite name "
                             "(q1..q15, or an EXTRAS name)")
    parser.add_argument("--suite", action="store_true",
                        help="run the full differential suite")
    parser.add_argument("--plan", action="store_true",
                        help="print the lowered phases, do not run")
    parser.add_argument("--oracle", action="store_true",
                        help="check the query against sqlite too")
    parser.add_argument("--sf", type=float, default=0.003,
                        help="TPC-D scale factor (default 0.003)")
    parser.add_argument("--seed", type=int, default=11,
                        help="dbgen seed (default 11)")
    return parser


def _query_text(name):
    """SQL text for a suite name, a file path, or stdin (``-``)."""
    from .suite import EXTRAS, sql_text
    lowered = name.lower()
    if lowered.startswith("q") and lowered[1:].isdigit():
        return sql_text(int(lowered[1:]))
    if lowered in EXTRAS:
        return EXTRAS[lowered]
    if name == "-":
        return sys.stdin.read()
    with open(name, "r", encoding="utf-8") as handle:
        return handle.read()


def _print_plan(text):
    from .lower import lower_sql
    from .parser import parse_sql
    lowered = lower_sql(parse_sql(text))
    print(lowered.render())


def _dataset(args):
    from ..tpcd.dbgen import generate
    from ..tpcd.loader import load_tpcd
    dataset = generate(scale=args.sf, seed=args.seed)
    db, _report = load_tpcd(dataset)
    return dataset, db


def _check(name, check):
    """Run one suite check and print its line; True when it passed."""
    try:
        rows = check()
    except (AssertionError, SqlError) as exc:
        print("%-16s FAIL %s: %s" % (name, type(exc).__name__, exc))
        return False
    print("%-16s ok (%d rows)" % (name, rows))
    return True


def _run_suite(args):
    from ..tpcd.queries import QUERIES
    from ..tpcd.rowstore import RowStore
    from .oracle import check_query, check_result, load_oracle
    from .suite import EXTRAS, sql_queries
    dataset, db = _dataset(args)
    conn = load_oracle(dataset)
    store = RowStore(dataset)
    passed = []
    for n, text in sorted(sql_queries().items()):
        query = QUERIES[n]
        passed += [
            _check("q%d" % n, lambda: check_query(db, conn, text)),
            _check("q%d/moa" % n,
                   lambda: check_result(conn, text, query.run(db))),
            _check("q%d/rowstore" % n, lambda: check_result(
                conn, text, store.run(n, query.params())))]
    passed += [_check(name, lambda: check_query(db, conn, text))
               for name, text in sorted(EXTRAS.items())]
    failures = passed.count(False)
    print("suite: %d checks, %d failure(s)" % (len(passed), failures))
    return 1 if failures else 0


def _run_query(args, text):
    from ..moa.values import RowBatch
    from .runtime import execute_sql
    if args.oracle:
        from .oracle import check_query, load_oracle
        dataset, db = _dataset(args)
        conn = load_oracle(dataset)
        check_query(db, conn, text)
        print("oracle: ok")
    else:
        _dataset_, db = _dataset(args)
    result = execute_sql(db, text)
    if isinstance(result, (list, RowBatch)):
        for row in result:
            print(row)
        print("(%d rows)" % len(result))
    else:
        print(result)
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.suite or args.query is None:
            return _run_suite(args)
        text = _query_text(args.query)
        if args.plan:
            _print_plan(text)
            return 0
        return _run_query(args, text)
    except SqlError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("oracle mismatch: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
