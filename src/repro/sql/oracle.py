"""SQLite differential oracle: the query-level answer key.

The same generated TPC-D dataset is loaded into an in-memory stdlib
``sqlite3`` database (keys are the object oids, dates are epoch-day
integers — the ``instant`` atom's representation), and an answer
computed by any engine is compared with sqlite's answer to the same
SQL text (:func:`check_result`): the SQL path through parse -> lower
-> Moa/MIL (:func:`check_query`), the hand-written Moa drivers of
:mod:`repro.tpcd.queries` and the row-store baseline of
:mod:`repro.tpcd.rowstore`.  Row *sets* must match (after canonical
ordering and float tolerance); order is deliberately not compared for
unsorted queries, since SQL leaves it unspecified.

The oracle runs the **parsed AST**, re-rendered into sqlite dialect by
:func:`to_sqlite` — so both engines execute the identical tree:

* aliases are double-quoted (``as "order"`` — reserved words are fine
  as Moa-compatible output names),
* ``date '...'`` literals become epoch-day integers,
* ``extract(year from x)`` becomes ``strftime`` over epoch seconds,
* ``LIKE`` becomes ``GLOB`` (sqlite's LIKE is case-insensitive; GLOB
  matches the case-sensitive semantics of the MOA string calls).
"""

import sqlite3

from ..errors import SqlUnsupportedError
from ..moa.values import Ref, Row
from . import ast

_TABLES = ("region", "nation", "part", "supplier", "partsupp",
           "customer", "orders", "lineitem")

_SCHEMAS = {
    "region": "r_regionkey INTEGER, r_name TEXT, r_comment TEXT",
    "nation": "n_nationkey INTEGER, n_name TEXT, n_regionkey INTEGER",
    "part": ("p_partkey INTEGER, p_name TEXT, p_mfgr TEXT, "
             "p_brand TEXT, p_type TEXT, p_size INTEGER, "
             "p_container TEXT, p_retailprice REAL"),
    "supplier": ("s_suppkey INTEGER, s_name TEXT, s_address TEXT, "
                 "s_phone TEXT, s_acctbal REAL, s_nationkey INTEGER"),
    "partsupp": ("ps_suppkey INTEGER, ps_partkey INTEGER, "
                 "ps_supplycost REAL, ps_availqty INTEGER"),
    "customer": ("c_custkey INTEGER, c_name TEXT, c_address TEXT, "
                 "c_phone TEXT, c_acctbal REAL, c_nationkey INTEGER, "
                 "c_mktsegment TEXT"),
    "orders": ("o_orderkey INTEGER, o_custkey INTEGER, "
               "o_orderstatus TEXT, o_totalprice REAL, "
               "o_orderdate INTEGER, o_orderpriority TEXT, "
               "o_clerk TEXT, o_shippriority TEXT"),
    "lineitem": ("l_orderkey INTEGER, l_partkey INTEGER, "
                 "l_suppkey INTEGER, l_quantity INTEGER, "
                 "l_extendedprice REAL, l_discount REAL, l_tax REAL, "
                 "l_returnflag TEXT, l_linestatus TEXT, "
                 "l_shipdate INTEGER, l_commitdate INTEGER, "
                 "l_receiptdate INTEGER, l_shipinstruct TEXT, "
                 "l_shipmode TEXT"),
}


def load_oracle(dataset):
    """Load a generated TPC-D dataset into in-memory sqlite; returns
    the connection.  Keys are row indices (= the loader's oids)."""
    conn = sqlite3.connect(":memory:")
    tables = dataset.tables
    for name in _TABLES:
        conn.execute("CREATE TABLE %s (%s)" % (name, _SCHEMAS[name]))

    def rows(table, *columns):
        n = len(table[columns[0]])
        for i in range(n):
            yield (i,) + tuple(_py(table[c][i]) for c in columns)

    region = tables["region"]
    conn.executemany(
        "INSERT INTO region VALUES (?, ?, ?)",
        [(i, str(name), "region %d" % i)
         for i, name in enumerate(region["name"])])
    conn.executemany(
        "INSERT INTO nation VALUES (?, ?, ?)",
        rows(tables["nation"], "name", "region"))
    conn.executemany(
        "INSERT INTO part VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        rows(tables["part"], "name", "manufacturer", "brand", "type",
             "size", "container", "retailprice"))
    conn.executemany(
        "INSERT INTO supplier VALUES (?, ?, ?, ?, ?, ?)",
        rows(tables["supplier"], "name", "address", "phone", "acctbal",
             "nation"))
    ps = tables["partsupp"]
    conn.executemany(
        "INSERT INTO partsupp VALUES (?, ?, ?, ?)",
        [(_py(ps["supplier"][i]), _py(ps["part"][i]),
          _py(ps["cost"][i]), _py(ps["available"][i]))
         for i in range(len(ps["part"]))])
    conn.executemany(
        "INSERT INTO customer VALUES (?, ?, ?, ?, ?, ?, ?)",
        rows(tables["customer"], "name", "address", "phone", "acctbal",
             "nation", "mktsegment"))
    conn.executemany(
        "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        rows(tables["orders"], "cust", "status", "totalprice",
             "orderdate", "orderpriority", "clerk", "shippriority"))
    item = tables["item"]
    item_cols = ("order", "part", "supplier", "quantity",
                 "extendedprice", "discount", "tax", "returnflag",
                 "linestatus", "shipdate", "commitdate", "receiptdate",
                 "shipinstruct", "shipmode")
    conn.executemany(
        "INSERT INTO lineitem VALUES "
        "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        [tuple(_py(item[c][i]) for c in item_cols)
         for i in range(len(item["order"]))])
    conn.commit()
    return conn


def _py(value):
    """numpy scalar -> plain python for sqlite binding."""
    item = getattr(value, "item", None)
    return item() if item is not None else value


# ----------------------------------------------------------------------
# AST -> sqlite dialect
# ----------------------------------------------------------------------
def to_sqlite(node):
    if isinstance(node, ast.SelectStmt):
        parts = ["SELECT %s" % ", ".join(
            to_sqlite(i) for i in node.items)]
        parts.append("FROM %s" % ", ".join(
            to_sqlite(f) for f in node.from_items))
        if node.where is not None:
            parts.append("WHERE %s" % to_sqlite(node.where))
        if node.group_by:
            parts.append("GROUP BY %s" % ", ".join(
                to_sqlite(e) for e in node.group_by))
        if node.having is not None:
            parts.append("HAVING %s" % to_sqlite(node.having))
        if node.order_by:
            parts.append("ORDER BY %s" % ", ".join(
                "%s %s" % (to_sqlite(e), "DESC" if d else "ASC")
                for e, d in node.order_by))
        if node.limit is not None:
            parts.append("LIMIT %d" % node.limit)
        return " ".join(parts)
    if isinstance(node, ast.SelectItem):
        if node.alias is None:
            return to_sqlite(node.expr)
        return '%s AS "%s"' % (to_sqlite(node.expr), node.alias)
    if isinstance(node, ast.Star):
        return "*"
    if isinstance(node, ast.TableRef):
        if node.alias == node.name:
            return node.name
        return "%s %s" % (node.name, node.alias)
    if isinstance(node, ast.DerivedTable):
        return "(%s) %s" % (to_sqlite(node.select), node.alias)
    if isinstance(node, ast.ColumnRef):
        return node.render()
    if isinstance(node, ast.NumberLit):
        return repr(node.value)
    if isinstance(node, ast.StringLit):
        return "'%s'" % node.value.replace("'", "''")
    if isinstance(node, ast.DateLit):
        return str(node.days)
    if isinstance(node, ast.BinExpr):
        return "(%s %s %s)" % (to_sqlite(node.left), node.op,
                               to_sqlite(node.right))
    if isinstance(node, ast.UnExpr):
        return "(%s %s)" % (node.op, to_sqlite(node.operand))
    if isinstance(node, ast.FuncCall):
        return "%s(%s)" % (node.name, ", ".join(
            to_sqlite(a) for a in node.args))
    if isinstance(node, ast.Extract):
        return ("CAST(strftime('%%Y', (%s) * 86400, 'unixepoch') "
                "AS INTEGER)" % to_sqlite(node.expr))
    if isinstance(node, ast.CaseExpr):
        body = " ".join("WHEN %s THEN %s" % (to_sqlite(c), to_sqlite(v))
                        for c, v in node.whens)
        tail = "" if node.else_ is None \
            else " ELSE %s" % to_sqlite(node.else_)
        return "CASE %s%s END" % (body, tail)
    if isinstance(node, ast.LikeExpr):
        if any(c in node.pattern for c in "*?["):
            raise SqlUnsupportedError(
                "oracle cannot express LIKE pattern %r as GLOB"
                % node.pattern)
        glob = node.pattern.replace("%", "*").replace("_", "?")
        op = "NOT GLOB" if node.negated else "GLOB"
        return "(%s %s '%s')" % (to_sqlite(node.expr), op,
                                 glob.replace("'", "''"))
    if isinstance(node, ast.InList):
        op = "NOT IN" if node.negated else "IN"
        return "(%s %s (%s))" % (to_sqlite(node.expr), op, ", ".join(
            to_sqlite(v) for v in node.values))
    if isinstance(node, ast.InSelect):
        op = "NOT IN" if node.negated else "IN"
        return "(%s %s (%s))" % (to_sqlite(node.expr), op,
                                 to_sqlite(node.select))
    if isinstance(node, ast.Exists):
        op = "NOT EXISTS" if node.negated else "EXISTS"
        return "(%s (%s))" % (op, to_sqlite(node.select))
    if isinstance(node, ast.ScalarSelect):
        return "(%s)" % to_sqlite(node.select)
    raise SqlUnsupportedError("cannot render %r for sqlite" % node)


# ----------------------------------------------------------------------
# canonical comparison
# ----------------------------------------------------------------------
def _canon_value(value):
    if isinstance(value, Ref):
        return value.oid
    item = getattr(value, "item", None)
    if item is not None:                      # numpy scalar
        value = item()
    if hasattr(value, "toordinal"):           # datetime.date
        from ..monet.atoms import date_to_days
        return date_to_days(value.isoformat())
    if isinstance(value, bool):
        return int(value)
    return value


def canonical_rows(result):
    """Query result (ours or sqlite's) -> list of plain value tuples."""
    if result is None or isinstance(result, (int, float, str)):
        return [(_canon_value(result),)]
    out = []
    for row in result:
        if isinstance(row, Row):
            out.append(tuple(_canon_value(v) for v in row.values))
        elif isinstance(row, (tuple, list)):
            out.append(tuple(_canon_value(v) for v in row))
        else:
            out.append((_canon_value(row),))
    return out


def _float_columns(*sides):
    """Positions holding a float in any row of any side."""
    return {i for rows in sides for row in rows
            for i, value in enumerate(row) if isinstance(value, float)}


def _sort_key(row, floats):
    """Exact non-float values first, floats after, unrounded: values
    within the tolerance then sort to the same position on both sides
    (rounding would split a pair straddling a rounding boundary)."""
    def key(value):
        if value is None:     # sorts as the 0 _values_match pairs it with
            return (1, 0)
        if isinstance(value, str):
            return (2, value)
        return (1, value)
    return ([key(v) for i, v in enumerate(row) if i not in floats],
            [key(v) for i, v in enumerate(row) if i in floats])


def _values_match(ours, theirs):
    if ours is None or theirs is None:
        # SUM over an empty set is NULL in SQL but 0/0.0 in the MOA
        # drivers' convention; accept either pairing of "nothing".
        return ours in (None, 0, 0.0) and theirs in (None, 0, 0.0)
    if isinstance(ours, str) or isinstance(theirs, str):
        return ours == theirs
    import math
    return math.isclose(float(ours), float(theirs),
                        rel_tol=1e-6, abs_tol=1e-6)


def rows_equivalent(ours, theirs):
    """Multiset equality of canonical rows under float tolerance."""
    if len(ours) != len(theirs):
        return False
    floats = _float_columns(ours, theirs)
    ours = sorted(ours, key=lambda row: _sort_key(row, floats))
    theirs = sorted(theirs, key=lambda row: _sort_key(row, floats))
    for mine, other in zip(ours, theirs):
        if len(mine) != len(other):
            return False
        if not all(_values_match(a, b) for a, b in zip(mine, other)):
            return False
    return True


def check_result(conn, text, result, sqlite_text=None):
    """Compare an already computed ``result`` with sqlite's answer to
    the SQL ``text``; returns the row count on success, raises
    AssertionError with details otherwise.  ``sqlite_text`` overrides
    the oracle side (tests use it to prove the harness catches an
    injected divergence)."""
    if sqlite_text is None:
        from .parser import parse_sql
        sqlite_text = to_sqlite(parse_sql(text))
    ours = canonical_rows(result)
    theirs = canonical_rows(conn.execute(sqlite_text).fetchall())
    if not rows_equivalent(ours, theirs):
        raise AssertionError(
            "divergence from sqlite for:\n%s\nours (%d rows): %r\n"
            "oracle (%d rows): %r"
            % (text.strip(), len(ours), ours[:5], len(theirs),
               theirs[:5]))
    return len(ours)


def check_query(db, conn, text, sqlite_text=None):
    """:func:`check_result` of ``text`` run through the SQL path."""
    from .runtime import execute_sql
    return check_result(conn, text, execute_sql(db, text), sqlite_text)
