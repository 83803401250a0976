"""The five benchmark workloads: request templates, expected answers,
timed set-up and the closed-loop operation each one measures.

Everything here is derived from ``--seed``: the dbgen data, the
substitution-parameter draws and the per-round shuffles.  Expected
answers are recomputed at set-up by a *different path* than the one
timed (the hand-written Moa drivers, in-process ``execute_sql``, or the
kernel's own column), never hard-coded.
"""

import os
import random
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

# The benchmark measures the package beside BENCHMARK.json and needs no
# PYTHONPATH; where src/ is missing this import fails, and with it the
# run, before anything is printed.
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.analysis.verify import PlanBudget, catalog_stats_from_kernel  # noqa: E402
from repro.monet import MILProgram, Var  # noqa: E402
from repro.monet.multiproc import result_checksum, ship_value  # noqa: E402
from repro.server import QueryClient  # noqa: E402
from repro.sql import execute_sql, prepare_sql  # noqa: E402
from repro.sql.suite import sql_text  # noqa: E402
from repro.tpcd import QUERIES, generate, load_tpcd, text  # noqa: E402

#: Server worker processes, and the ceiling on client connections.
PROCS = 2

#: TPC-D templates cheap enough to run thousands of times at SF 0.01.
ADHOC_TEMPLATES = (2, 4, 6, 11, 13, 14, 15)

#: Parameter draws per ad-hoc template.  Texts repeat across rounds,
#: which is harmless: the direct path has no plan cache, so every
#: operation pays parse -> bind -> lower -> resolve -> rewrite -> verify.
ADHOC_DRAWS = 24

ROWS_WIDE_SQL = ("select l_orderkey, l_partkey, l_quantity, "
                 "l_extendedprice from lineitem where l_quantity < %d")
# Three sizes each for the two wide workloads: with an odd number of
# equally frequent templates the median operation sits inside the
# middle template's latencies, not in the gap between two of them.
ROWS_WIDE_K = (2, 3, 5)

COLS_WIDE = {"cols1": ("Item_quantity",),
             "cols2": ("Item_quantity", "Item_extendedprice"),
             "cols4": ("Item_order", "Item_part", "Item_quantity",
                       "Item_extendedprice")}

#: Ceiling on warm-up rounds (see ``_warm_up``).
MAX_WARMUP_ROUNDS = 12

#: Upper slice bound that covers any column (``slice`` clamps).
_WHOLE_COLUMN = 2 ** 31 - 1


class Template:
    """One request template; ``group`` is the name latencies are
    grouped under (``latency_slowest_ms``, the waterfall rows)."""

    __slots__ = ("group", "kind", "text", "program", "fetch", "number",
                 "overrides", "columns", "expected")

    def __init__(self, group, kind, text=None, program=None, fetch=None,
                 number=None, overrides=None, columns=None):
        self.group = group
        self.kind = kind                # "sql" | "mil"
        self.text = text
        self.program = program
        self.fetch = fetch
        self.number = number            # TPC-D number, when one exists
        self.overrides = overrides
        self.columns = columns
        self.expected = None            # sha1, filled by expect()


class Workload:
    """Name, TPC-D scale factor, path and client count; the one-line
    reason for each is in BENCHMARK.json, the long one in README.md."""

    __slots__ = ("name", "scale", "served", "clients", "adhoc")

    def __init__(self, name, scale, served, clients, adhoc=False):
        self.name = name
        self.scale = scale
        self.served = served
        self.clients = clients
        #: True: every operation compiles its text afresh
        self.adhoc = adhoc


WORKLOADS = {w.name: w for w in (
    Workload("direct_sql_mix", 0.02, served=False, clients=1),
    Workload("direct_adhoc_sql", 0.01, served=False, clients=1,
             adhoc=True),
    Workload("served_sql_mix", 0.01, served=True, clients=2),
    Workload("served_rows_wide", 0.01, served=True, clients=1),
    Workload("served_cols_wide", 0.01, served=True, clients=1),
)}


# ----------------------------------------------------------------------
# templates
# ----------------------------------------------------------------------
def _month(rng, last_month):
    """A (year, month) in 1993-01 .. 1997-<last_month>."""
    index = rng.randrange(4 * 12 + last_month)
    return 1993 + index // 12, index % 12 + 1


def _first_of(year, month, plus=0):
    month += plus
    return "%04d-%02d-01" % (year + (month - 1) // 12,
                             (month - 1) % 12 + 1)


def _draw(number, rng, scale):
    """TPC-D substitution parameters for one ad-hoc template."""
    if number == 2:
        return {"size": rng.randint(1, 50),
                "type": rng.choice(text.TYPE_SYLLABLE_3),
                "region": rng.choice(text.REGIONS)}
    if number in (4, 15):
        year, month = _month(rng, 10)
        return {"d1": _first_of(year, month),
                "d2": _first_of(year, month, 3)}
    if number == 6:
        year = rng.randint(1993, 1997)
        discount = rng.randint(2, 9)
        return {"d1": _first_of(year, 1), "d2": _first_of(year + 1, 1),
                "disc_lo": "%.2f" % ((discount - 1) / 100.0),
                "disc_hi": "%.2f" % ((discount + 1) / 100.0),
                "qty": rng.choice((24, 25))}
    if number == 11:
        return {"nation": rng.choice(text.NATIONS)[0]}
    if number == 13:
        clerks = max(1, int(scale * 1000))
        return {"clerk": text.clerk_name(rng.randint(1, clerks))}
    if number == 14:
        year, month = _month(rng, 12)
        return {"d1": _first_of(year, month),
                "d2": _first_of(year, month, 1)}
    raise ValueError("no ad-hoc draw for Q%d" % number)


def build_templates(workload, seed):
    """The workload's request templates (no expected answers yet)."""
    rng = random.Random("%s/%d/templates" % (workload.name, seed))
    if workload.name in ("direct_sql_mix", "served_sql_mix"):
        return [Template("Q%d" % n, "sql", text=sql_text(n), number=n)
                for n in sorted(QUERIES)]
    if workload.adhoc:
        templates = []
        for number in ADHOC_TEMPLATES:
            for _ in range(ADHOC_DRAWS):
                overrides = _draw(number, rng, workload.scale)
                templates.append(Template(
                    "Q%d" % number, "sql", number=number,
                    text=sql_text(number, overrides),
                    overrides=overrides))
        return templates
    if workload.name == "served_rows_wide":
        return [Template("k%d" % k, "sql", text=ROWS_WIDE_SQL % k)
                for k in ROWS_WIDE_K]
    templates = []
    for group, columns in COLS_WIDE.items():
        program = MILProgram()
        fetch = []
        for column in columns:
            program.emit("slice", [Var(column), 0, _WHOLE_COLUMN],
                         target="c_" + column)
            fetch.append("c_" + column)
        templates.append(Template(group, "mil", program=program,
                                  fetch=fetch, columns=columns))
    return templates


def expect(templates, db):
    """Fill each template's expected checksum from the in-process
    database, by another path than the timed one."""
    for template in templates:
        if template.kind == "mil":
            value = {name: ship_value(db.kernel.get(column))
                     for name, column in zip(template.fetch,
                                             template.columns)}
        elif template.number is not None:
            value = ship_value(QUERIES[template.number].run(
                db, template.overrides))
        else:
            value = ship_value(execute_sql(db, template.text))
        template.expected = result_checksum(value)


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.server`` as a child process, so client-side
    decoding does not share an interpreter lock with the server."""

    def __init__(self, db_dir, work_dir):
        port_file = os.path.join(work_dir, "server.port")
        self.log_path = os.path.join(work_dir, "server.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.server", "--db-dir",
                 db_dir, "--port", "0", "--port-file", port_file,
                 "--procs", str(PROCS)],
                stdout=log, stderr=subprocess.STDOUT, env=env)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(port_file):
            if self.process.poll() is not None \
                    or time.monotonic() > deadline:
                self.stop()
                with open(self.log_path) as log:
                    raise RuntimeError("server did not come up:\n"
                                       + log.read())
            time.sleep(0.01)
        with open(port_file) as handle:
            host, port = handle.read().split()
        self.address = (host, int(port))

    def stop(self):
        """Drain (SIGTERM), then wait until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()

    def peak_rss_mb(self, worker_pids):
        """Summed VmHWM of the server and its workers."""
        total_kb = 0
        for pid in [self.process.pid] + list(worker_pids):
            with open("/proc/%d/status" % pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
class Context:
    """One set-up instance: the loaded database, the server and its
    clients (served workloads), and what each set-up phase cost."""

    def __init__(self):
        self.db = None
        self.db_dir = None
        self.server = None
        self.clients = []
        self.ops = []               # one callable(template) per client
        self.phases = {}            # phase name -> seconds
        self.warmup_rounds = 0
        self.setup_s = None

    def close(self):
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None


def _served_op(client):
    def op(template):
        if template.kind == "sql":
            return client.sql(template.text).checksum
        return client.mil(template.program, template.fetch).checksum
    return op


def _adhoc_op(db):
    # a budget no plan here exceeds: what is measured is that the
    # admission verifier runs on every compile, as the server's does
    budget = PlanBudget(max_rows=2 ** 62)
    catalog = catalog_stats_from_kernel(db.kernel)

    def op(template):
        return prepare_sql(db, template.text, budget=budget,
                           catalog=catalog).run()
    return op


def _prepared_op(db, templates):
    prepared = {id(template): prepare_sql(db, template.text)
                for template in templates}

    def op(template):
        return prepared[id(template)].run()
    return op


def _warm_up(context, templates):
    """One round of every template per client; returns the number of
    rounds the first client ran.

    In-process paths are warm after that.  The server hands each
    request to the worker that has been idle longest, so while one
    client sends one request at a time, ``PROCS`` back-to-back sends of
    a text reach every worker once — the first client's round does
    that.  Served SQL is warm once *every* worker has compiled *every*
    text, which the plan-cache miss count (= texts x workers) confirms;
    plain rounds top it up should the hand-off order ever differ.
    """
    served = bool(context.clients)
    for index, op in enumerate(context.ops):
        for template in templates:
            for _ in range(PROCS if served and index == 0 else 1):
                op(template)
    sql_texts = sum(template.kind == "sql" for template in templates)
    rounds = 1
    while served and sql_texts and rounds < MAX_WARMUP_ROUNDS and \
            context.clients[0].stats()["plan_cache"]["misses"] \
            < sql_texts * PROCS:
        for template in templates:
            context.ops[0](template)
        rounds += 1
    return rounds


def set_up(workload, seed, templates, work_dir, scale):
    """The timed set-up: dbgen, load + save, (served) server start and
    connect, then one warm-up round per client.  Returns a
    :class:`Context` whose ``setup_s`` ends at the first timed request.
    """
    context = Context()
    context.db_dir = os.path.join(work_dir, "db")
    started = time.perf_counter()
    try:
        dataset = generate(scale=scale, seed=seed)
        generated = time.perf_counter()
        context.db, _report = load_tpcd(dataset, db_dir=context.db_dir)
        loaded = time.perf_counter()
        if workload.served:
            context.server = Server(context.db_dir, work_dir)
            for _ in range(workload.clients):
                client = QueryClient(*context.server.address, retries=2,
                                     backoff_base=0.02)
                context.clients.append(client)
                context.ops.append(_served_op(client))
        elif workload.adhoc:
            context.ops.append(_adhoc_op(context.db))
        else:
            context.ops.append(_prepared_op(context.db, templates))
        ready = time.perf_counter()
        context.warmup_rounds = _warm_up(context, templates)
        ended = time.perf_counter()
    except BaseException:
        context.close()
        raise
    context.phases = {"generate_s": generated - started,
                      "load_save_s": loaded - generated,
                      "start_s": ready - loaded,
                      "warmup_s": ended - ready}
    context.setup_s = ended - started
    return context
