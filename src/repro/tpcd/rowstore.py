"""N-ary row-store baseline: the paper's "relational strategy".

Section 5.2.2 compares Monet's decomposed storage against "a
relational strategy where the database table is stored without
decomposition": rows of ``(n+1)*w`` bytes, selections through an
inverted-list index of ``2w``-byte entries, and *unclustered* row
fetches afterwards.  This module implements exactly that engine over
the columnar TPC-D arrays:

* every table is one row-major heap of ``(n_cols + 1) * w`` bytes per
  row — touching **any** column of a row faults the whole row in,
  which is the asymmetry the paper exploits;
* every column has an inverted-list index (value-sorted permutation),
  charged at ``2w`` bytes per entry, the ``C_inv`` of the model;
* the planner picks index-selection vs full scan on estimated
  selectivity, then fetches qualifying rows unclustered.

All 15 TPC-D queries are implemented against this engine, so Figure 9
can report baseline wall-clock *and* simulated page faults next to the
flattened Monet execution.
"""

import numpy as np

from ..monet.atoms import date_to_days
from ..monet.buffer import get_manager
from ..monet.heap import Heap
from ..moa.values import Ref, Row

#: uniform value width of the cost model (section 5.2.2: w = 4)
VALUE_WIDTH = 4


class _TableHeap(Heap):
    def __init__(self, nbytes, label):
        super().__init__(label)
        self._nbytes = nbytes
        self.persistent = True

    @property
    def nbytes(self):
        return self._nbytes


class RowTable:
    """One n-ary table: row heap + per-column inverted lists."""

    def __init__(self, name, columns):
        self.name = name
        self.columns = columns
        self.n_rows = len(next(iter(columns.values()))) if columns else 0
        self.row_width = (len(columns) + 1) * VALUE_WIDTH
        self.heap = _TableHeap(self.n_rows * self.row_width,
                               "row:" + name)
        self._indexes = {}

    def index(self, column):
        """(sorted values, permutation) inverted list for a column."""
        cached = self._indexes.get(column)
        if cached is None:
            values = self.columns[column]
            order = np.argsort(values, kind="stable")
            cached = (values[order], order,
                      _TableHeap(self.n_rows * 2 * VALUE_WIDTH,
                                 "inv:%s.%s" % (self.name, column)))
            self._indexes[column] = cached
        return cached


class RowStore:
    """The baseline engine + its 15 query implementations.

    Constructed from a generated :class:`~repro.tpcd.dbgen.TPCDDataset`
    or from a plain ``{table: {column: array}}`` dict.
    """

    def __init__(self, dataset):
        tables = getattr(dataset, "tables", dataset)
        self.dataset = dataset if hasattr(dataset, "tables") else None
        self.tables = {name: RowTable(name, columns)
                       for name, columns in tables.items()}

    # ------------------------------------------------------------------
    # access paths (where the page charging happens)
    # ------------------------------------------------------------------
    def select_rows(self, table_name, column, lo=None, hi=None, eq=None,
                    isin=None):
        """Qualifying row ids via inverted list or scan (cost-based)."""
        table = self.tables[table_name]
        manager = get_manager()
        values = table.columns[column]
        if eq is not None:
            mask = values == eq
        elif isin is not None:
            mask = np.isin(values, list(isin))
        else:
            mask = np.ones(table.n_rows, dtype=bool)
            if lo is not None:
                mask &= values >= lo
            if hi is not None:
                mask &= values < hi
        row_ids = np.nonzero(mask)[0]
        selectivity = len(row_ids) / max(1, table.n_rows)
        with manager.operator("rel.select"):
            if isin is None and selectivity < 0.5:
                # inverted list: touch ceil(s*X / C_inv) index pages
                _sorted, _perm, index_heap = table.index(column)
                manager.access_range(index_heap, 0,
                                     len(row_ids) * 2 * VALUE_WIDTH)
            else:
                manager.access_heap(table.heap)
        return row_ids

    def fetch(self, table_name, row_ids, columns):
        """Unclustered row fetch: whole rows fault in (the row-store
        penalty); returns the requested column arrays."""
        table = self.tables[table_name]
        manager = get_manager()
        with manager.operator("rel.fetch"):
            manager.access_positions(table.heap, row_ids,
                                     table.row_width)
        return {column: table.columns[column][row_ids]
                for column in columns}

    def scan(self, table_name, columns):
        """Full scan: the whole row heap faults in."""
        table = self.tables[table_name]
        manager = get_manager()
        with manager.operator("rel.scan"):
            manager.access_heap(table.heap)
        return {column: table.columns[column] for column in columns}

    # ------------------------------------------------------------------
    # query implementations
    # ------------------------------------------------------------------
    def run(self, number, params):
        return getattr(self, "q%d" % number)(params)

    def q1(self, params):
        cutoff = date_to_days(params["date"])
        rows = self.select_rows("item", "shipdate", hi=cutoff + 1)
        cols = self.fetch("item", rows,
                          ["returnflag", "linestatus", "quantity",
                           "extendedprice", "discount", "tax"])
        keys = list(zip(cols["returnflag"], cols["linestatus"]))
        disc_price = cols["extendedprice"] * (1.0 - cols["discount"])
        charge = disc_price * (1.0 + cols["tax"])
        groups = {}
        for position, key in enumerate(keys):
            groups.setdefault(key, []).append(position)
        out = []
        for key in sorted(groups):
            g = groups[key]
            out.append(Row([
                ("returnflag", key[0]), ("linestatus", key[1]),
                ("sum_qty", int(cols["quantity"][g].sum())),
                ("sum_base_price", float(cols["extendedprice"][g].sum())),
                ("sum_disc_price", float(disc_price[g].sum())),
                ("sum_charge", float(charge[g].sum())),
                ("avg_qty", float(cols["quantity"][g].mean())),
                ("avg_price", float(cols["extendedprice"][g].mean())),
                ("avg_disc", float(cols["discount"][g].mean())),
                ("count_order", len(g))]))
        return out

    def q2(self, params):
        part_rows = self.select_rows("part", "size", eq=params["size"])
        part_cols = self.fetch("part", part_rows,
                               ["type", "name", "manufacturer"])
        type_ok = np.array([t.endswith(params["type"])
                            for t in part_cols["type"]], dtype=bool)
        parts = part_rows[type_ok]
        nat = self.scan("nation", ["region", "name"])
        reg = self.scan("region", ["name"])
        sup = self.scan("supplier", ["nation", "acctbal", "name",
                                     "address", "phone"])
        supp_ok = reg["name"][nat["region"][sup["nation"]]] \
            == params["region"]
        ps_rows = self.select_rows("partsupp", "part", isin=set(parts))
        ps = self.fetch("partsupp", ps_rows,
                        ["part", "supplier", "cost"])
        ok = supp_ok[ps["supplier"]]
        mincost = {}
        for p, c in zip(ps["part"][ok], ps["cost"][ok]):
            if p not in mincost or c < mincost[p]:
                mincost[int(p)] = float(c)
        name_of = dict(zip(part_rows.tolist(), part_cols["name"]))
        mfgr_of = dict(zip(part_rows.tolist(), part_cols["manufacturer"]))
        out = []
        for p, s, c in zip(ps["part"][ok], ps["supplier"][ok],
                           ps["cost"][ok]):
            if abs(float(c) - mincost[int(p)]) > 1e-9:
                continue
            out.append(Row([
                ("s_acctbal", float(sup["acctbal"][s])),
                ("s_name", sup["name"][s]),
                ("n_name", nat["name"][sup["nation"][s]]),
                ("p_name", name_of[int(p)]),
                ("p_mfgr", mfgr_of[int(p)]),
                ("s_address", sup["address"][s]),
                ("s_phone", sup["phone"][s]),
                ("cost", float(c))]))
        out.sort(key=lambda r: (-r["s_acctbal"], r["n_name"], r["p_name"]))
        return out[:100]

    def q3(self, params):
        cutoff = date_to_days(params["date"])
        cust = self.scan("customer", ["mktsegment"])
        order_rows = self.select_rows("orders", "orderdate", hi=cutoff)
        orders = self.fetch("orders", order_rows,
                            ["cust", "orderdate", "shippriority"])
        seg_ok = cust["mktsegment"][orders["cust"]] == params["segment"]
        ok_orders = set(order_rows[seg_ok].tolist())
        item_rows = self.select_rows("item", "shipdate", lo=cutoff + 1)
        items = self.fetch("item", item_rows,
                           ["order", "extendedprice", "discount"])
        odate = dict(zip(order_rows[seg_ok].tolist(),
                         orders["orderdate"][seg_ok].tolist()))
        oship = dict(zip(order_rows[seg_ok].tolist(),
                         orders["shippriority"][seg_ok]))
        revenue = {}
        for o, p, d in zip(items["order"], items["extendedprice"],
                           items["discount"]):
            o = int(o)
            if o in ok_orders:
                revenue[o] = revenue.get(o, 0.0) + float(p) * (1 - d)
        out = [Row([("order", Ref("Order", o)), ("revenue", v),
                    ("odate", int(odate[o])), ("ship", oship[o])])
               for o, v in revenue.items()]
        out.sort(key=lambda r: (-r["revenue"], r["odate"]))
        return out[:10]

    def q4(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        item = self.scan("item", ["order", "commitdate", "receiptdate"])
        late = set(item["order"][item["commitdate"]
                                 < item["receiptdate"]].tolist())
        order_rows = self.select_rows("orders", "orderdate", lo=lo, hi=hi)
        orders = self.fetch("orders", order_rows, ["orderpriority"])
        counts = {}
        for row_id, priority in zip(order_rows, orders["orderpriority"]):
            if int(row_id) in late:
                counts[priority] = counts.get(priority, 0) + 1
        return [Row([("orderpriority", p), ("order_count", c)])
                for p, c in sorted(counts.items())]

    def q5(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        order_rows = self.select_rows("orders", "orderdate", lo=lo, hi=hi)
        orders = self.fetch("orders", order_rows, ["cust"])
        cust = self.scan("customer", ["nation"])
        sup = self.scan("supplier", ["nation"])
        nat = self.scan("nation", ["region", "name"])
        reg = self.scan("region", ["name"])
        order_ok = set(order_rows.tolist())
        cnat_of = dict(zip(order_rows.tolist(),
                           cust["nation"][orders["cust"]].tolist()))
        item = self.scan("item", ["order", "supplier", "extendedprice",
                                  "discount"])
        revenue = {}
        region_names = reg["name"][nat["region"]]
        for o, s, p, d in zip(item["order"], item["supplier"],
                              item["extendedprice"], item["discount"]):
            o = int(o)
            if o not in order_ok:
                continue
            snat = int(sup["nation"][s])
            if snat != cnat_of[o]:
                continue
            if region_names[snat] != params["region"]:
                continue
            key = nat["name"][snat]
            revenue[key] = revenue.get(key, 0.0) + float(p) * (1 - d)
        out = [Row([("nation", n), ("revenue", v)])
               for n, v in revenue.items()]
        out.sort(key=lambda r: -r["revenue"])
        return out

    def q6(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        rows = self.select_rows("item", "shipdate", lo=lo, hi=hi)
        cols = self.fetch("item", rows,
                          ["discount", "quantity", "extendedprice"])
        mask = ((cols["discount"] >= float(params["disc_lo"]) - 1e-9)
                & (cols["discount"] <= float(params["disc_hi"]) + 1e-9)
                & (cols["quantity"] < params["qty"]))
        return float((cols["extendedprice"][mask]
                      * cols["discount"][mask]).sum())

    def q7(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        rows = self.select_rows("item", "shipdate", lo=lo, hi=hi + 1)
        items = self.fetch("item", rows, ["order", "supplier",
                                          "extendedprice", "discount",
                                          "shipdate"])
        sup = self.scan("supplier", ["nation"])
        nat = self.scan("nation", ["name"])
        orders = self.scan("orders", ["cust"])
        cust = self.scan("customer", ["nation"])
        snation = nat["name"][sup["nation"][items["supplier"]]]
        cnation = nat["name"][cust["nation"][orders["cust"][
            items["order"]]]]
        n1, n2 = params["nation1"], params["nation2"]
        mask = (((snation == n1) & (cnation == n2))
                | ((snation == n2) & (cnation == n1)))
        years = (np.asarray(items["shipdate"][mask],
                            dtype="datetime64[D]")
                 .astype("datetime64[Y]").astype(int) + 1970)
        revenue = {}
        volume = (items["extendedprice"][mask]
                  * (1 - items["discount"][mask]))
        for key, v in zip(zip(snation[mask], cnation[mask],
                              years.tolist()), volume):
            revenue[key] = revenue.get(key, 0.0) + float(v)
        out = [Row([("supp_nation", k[0]), ("cust_nation", k[1]),
                    ("lyear", k[2]), ("revenue", v)])
               for k, v in revenue.items()]
        out.sort(key=lambda r: (r["supp_nation"], r["cust_nation"],
                                r["lyear"]))
        return out

    def q8(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        part_rows = self.select_rows("part", "type", eq=params["type"])
        part_set = set(part_rows.tolist())
        item = self.scan("item", ["part", "order", "supplier",
                                  "extendedprice", "discount"])
        orders = self.scan("orders", ["cust", "orderdate"])
        cust = self.scan("customer", ["nation"])
        sup = self.scan("supplier", ["nation"])
        nat = self.scan("nation", ["region", "name"])
        reg = self.scan("region", ["name"])
        odate = orders["orderdate"][item["order"]]
        cregion = reg["name"][nat["region"][cust["nation"][
            orders["cust"][item["order"]]]]]
        mask = (np.isin(item["part"], part_rows)
                & (cregion == params["region"])
                & (odate >= lo) & (odate <= hi))
        years = (np.asarray(odate[mask], dtype="datetime64[D]")
                 .astype("datetime64[Y]").astype(int) + 1970)
        snation = nat["name"][sup["nation"][item["supplier"]]][mask]
        volume = (item["extendedprice"][mask]
                  * (1 - item["discount"][mask]))
        total, national = {}, {}
        for y, n, v in zip(years.tolist(), snation, volume):
            total[y] = total.get(y, 0.0) + float(v)
            if n == params["nation"]:
                national[y] = national.get(y, 0.0) + float(v)
        return [Row([("oyear", y),
                     ("mkt_share", national.get(y, 0.0) / total[y])])
                for y in sorted(total)]

    def q9(self, params):
        part = self.scan("part", ["name"])
        colour = params["colour"]
        part_ok = np.array([colour in n for n in part["name"]],
                       dtype=bool)
        item = self.scan("item", ["part", "supplier", "order",
                                  "quantity", "extendedprice",
                                  "discount"])
        ps = self.scan("partsupp", ["part", "supplier", "cost"])
        orders = self.scan("orders", ["orderdate"])
        sup = self.scan("supplier", ["nation"])
        nat = self.scan("nation", ["name"])
        cost_of = {(int(p), int(s)): float(c)
                   for p, s, c in zip(ps["part"], ps["supplier"],
                                      ps["cost"])}
        mask = part_ok[item["part"]]
        years = (np.asarray(orders["orderdate"][item["order"]],
                            dtype="datetime64[D]")
                 .astype("datetime64[Y]").astype(int) + 1970)
        snation = nat["name"][sup["nation"][item["supplier"]]]
        profit = {}
        for position in np.nonzero(mask)[0]:
            cost = cost_of[(int(item["part"][position]),
                            int(item["supplier"][position]))]
            amount = (float(item["extendedprice"][position])
                      * (1 - float(item["discount"][position]))
                      - cost * float(item["quantity"][position]))
            key = (snation[position], int(years[position]))
            profit[key] = profit.get(key, 0.0) + amount
        out = [Row([("nation", k[0]), ("oyear", k[1]), ("profit", v)])
               for k, v in profit.items()]
        out.sort(key=lambda r: (r["nation"], -r["oyear"]))
        return out

    def q10(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        item_rows = self.select_rows("item", "returnflag", eq="R")
        items = self.fetch("item", item_rows,
                           ["order", "extendedprice", "discount"])
        orders = self.scan("orders", ["cust", "orderdate"])
        cust = self.scan("customer", ["name", "acctbal", "nation"])
        nat = self.scan("nation", ["name"])
        odate = orders["orderdate"][items["order"]]
        mask = (odate >= lo) & (odate < hi)
        custs = orders["cust"][items["order"]][mask]
        revenue = {}
        volume = (items["extendedprice"][mask]
                  * (1 - items["discount"][mask]))
        for c, v in zip(custs.tolist(), volume):
            revenue[c] = revenue.get(c, 0.0) + float(v)
        out = [Row([("cust", Ref("Customer", c)),
                    ("c_name", cust["name"][c]),
                    ("c_acctbal", float(cust["acctbal"][c])),
                    ("n_name", nat["name"][cust["nation"][c]]),
                    ("revenue", v)])
               for c, v in revenue.items()]
        out.sort(key=lambda r: -r["revenue"])
        return out[:20]

    def q11(self, params):
        sup = self.scan("supplier", ["nation"])
        nat = self.scan("nation", ["name"])
        ps = self.scan("partsupp", ["part", "supplier", "cost",
                                    "available"])
        german = nat["name"][sup["nation"][ps["supplier"]]] \
            == params["nation"]
        value = ps["cost"] * ps["available"]
        total = float(value[german].sum())
        threshold = total * params["fraction"]
        stock = {}
        for p, v in zip(ps["part"][german].tolist(), value[german]):
            stock[p] = stock.get(p, 0.0) + float(v)
        out = [Row([("part", Ref("Part", p)), ("stock", v)])
               for p, v in stock.items() if v > threshold]
        out.sort(key=lambda r: -r["stock"])
        return out

    def q12(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        rows = self.select_rows("item", "receiptdate", lo=lo, hi=hi)
        items = self.fetch("item", rows,
                           ["shipmode", "commitdate", "receiptdate",
                            "shipdate", "order"])
        mask = (((items["shipmode"] == params["mode1"])
                 | (items["shipmode"] == params["mode2"]))
                & (items["commitdate"] < items["receiptdate"])
                & (items["shipdate"] < items["commitdate"]))
        orders = self.scan("orders", ["orderpriority"])
        priority = orders["orderpriority"][items["order"][mask]]
        urgent = np.isin(priority, ["1-URGENT", "2-HIGH"])
        modes = items["shipmode"][mask]
        high, low = {}, {}
        for m, u in zip(modes, urgent):
            high[m] = high.get(m, 0) + int(u)
            low[m] = low.get(m, 0) + int(not u)
        return [Row([("shipmode", m), ("high_count", high[m]),
                     ("low_count", low[m])]) for m in sorted(high)]

    def q13(self, params):
        order_rows = self.select_rows("orders", "clerk",
                                      eq=params["clerk"])
        orders = self.fetch("orders", order_rows, ["orderdate"])
        odate_of = dict(zip(order_rows.tolist(),
                            orders["orderdate"].tolist()))
        item_rows = self.select_rows("item", "order",
                                     isin=set(order_rows.tolist()))
        items = self.fetch("item", item_rows,
                           ["order", "returnflag", "extendedprice",
                            "discount"])
        mask = items["returnflag"] == "R"
        loss = {}
        for o, p, d in zip(items["order"][mask],
                           items["extendedprice"][mask],
                           items["discount"][mask]):
            year = (np.datetime64(int(odate_of[int(o)]), "D")
                    .astype("datetime64[Y]").astype(int) + 1970)
            loss[int(year)] = loss.get(int(year), 0.0) \
                + float(p) * (1 - d)
        return [Row([("year", y), ("loss", loss[y])])
                for y in sorted(loss)]

    def q14(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        rows = self.select_rows("item", "shipdate", lo=lo, hi=hi)
        items = self.fetch("item", rows,
                           ["part", "extendedprice", "discount"])
        part = self.scan("part", ["type"])
        revenue = items["extendedprice"] * (1 - items["discount"])
        promo = np.array([t.startswith("PROMO")
                          for t in part["type"][items["part"]]],
                         dtype=bool)
        total = float(revenue.sum())
        if total == 0:
            return 0.0
        return 100.0 * float(revenue[promo].sum()) / total

    def q15(self, params):
        lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
        rows = self.select_rows("item", "shipdate", lo=lo, hi=hi)
        items = self.fetch("item", rows,
                           ["supplier", "extendedprice", "discount"])
        sup = self.scan("supplier", ["name", "address", "phone"])
        revenue = {}
        volume = items["extendedprice"] * (1 - items["discount"])
        for s, v in zip(items["supplier"].tolist(), volume):
            revenue[s] = revenue.get(s, 0.0) + float(v)
        if not revenue:
            return []
        best = max(revenue.values())
        out = [Row([("s_name", sup["name"][s]),
                    ("s_address", sup["address"][s]),
                    ("s_phone", sup["phone"][s]),
                    ("total_revenue", v)])
               for s, v in revenue.items() if v >= best * (1 - 1e-9)]
        out.sort(key=lambda r: r["s_name"])
        return out
