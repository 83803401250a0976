"""``python -m repro.server``: serve a saved catalog over a socket.

Example::

    python -m repro.server --db-dir /data/tpcd --port 7777 --procs 4

``--port 0`` binds an ephemeral port; the bound address is printed on
stdout (and written to ``--port-file`` when given, which is how the
CI smoke job discovers it).  The process serves until interrupted:
``SIGTERM`` drains gracefully (stop accepting, finish in-flight work
up to ``--drain-timeout`` seconds, answer stragglers with typed
``ServerDrainingError`` frames), ``SIGINT`` stops immediately.
"""

import argparse
import os
import signal
import sys
import threading

from ..analysis.verify import PlanBudget
from ..monet.multiproc import DEFAULT_PROCS
from .server import QueryServer
from .service import QueryService
from .tasks import DEFAULT_PLAN_CACHE_SIZE


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="concurrent Moa/MIL query server over a shared "
                    "mmap catalog")
    parser.add_argument("--db-dir", required=True,
                        help="saved database directory (see "
                             "repro.monet.storage); every worker "
                             "mmap-reopens it at its session's pinned "
                             "generation")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7777,
                        help="TCP port (0 = ephemeral, printed on "
                             "stdout)")
    parser.add_argument("--procs", type=int, default=DEFAULT_PROCS,
                        help="worker processes per generation pool: "
                             "the requests a pool runs at once")
    parser.add_argument("--plan-cache", type=int,
                        default=DEFAULT_PLAN_CACHE_SIZE,
                        metavar="N",
                        help="per-worker LRU plan-cache capacity "
                             "(0 disables)")
    parser.add_argument("--result-cache-bytes", type=int, default=0,
                        metavar="BYTES",
                        help="parent-side byte-weighted result-cache "
                             "budget (0 = off); a result weighs its "
                             "encoded reply's bytes")
    parser.add_argument("--max-queue", type=int, default=32,
                        help="requests that may wait for a worker, "
                             "per pool")
    parser.add_argument("--timeout", type=float, default=None,
                        help="default per-query timeout in seconds "
                             "(overdue workers are killed and "
                             "respawned)")
    parser.add_argument("--drain-timeout", type=float, default=5.0,
                        metavar="S",
                        help="seconds SIGTERM waits for in-flight "
                             "requests before forcing shutdown")
    parser.add_argument("--auth-token", default=None,
                        help="require this shared secret on every "
                             "connection (default: open; also "
                             "settable via REPRO_AUTH_TOKEN)")
    parser.add_argument("--quota-rps", type=float, default=0.0,
                        help="per-connection executable requests per "
                             "second (0 = unlimited)")
    parser.add_argument("--quota-burst", type=float, default=None,
                        help="per-connection burst allowance "
                             "(default: max(1, quota-rps))")
    parser.add_argument("--port-file", default=None,
                        help="write 'host port' here once bound")
    parser.add_argument("--max-plan-rows", type=int, default=None,
                        help="admission budget: reject plans whose "
                             "largest static intermediate exceeds "
                             "this many BUNs")
    parser.add_argument("--max-plan-bytes", type=int, default=None,
                        help="admission budget: reject plans whose "
                             "total static byte bound exceeds this")
    parser.add_argument("--max-plan-pages", type=int, default=None,
                        help="admission budget: reject plans whose "
                             "static page-fault bound exceeds this")
    args = parser.parse_args(argv)
    auth_token = args.auth_token \
        if args.auth_token is not None \
        else os.environ.get("REPRO_AUTH_TOKEN") or None
    plan_budget = None
    if args.max_plan_rows is not None \
            or args.max_plan_bytes is not None \
            or args.max_plan_pages is not None:
        plan_budget = PlanBudget(max_rows=args.max_plan_rows,
                                 max_bytes=args.max_plan_bytes,
                                 max_pages=args.max_plan_pages)

    service = QueryService(
        args.db_dir, procs=args.procs,
        plan_cache_size=args.plan_cache,
        result_cache_bytes=args.result_cache_bytes,
        max_queue=args.max_queue,
        default_timeout=args.timeout, plan_budget=plan_budget)
    server = QueryServer(service, host=args.host, port=args.port,
                         auth_token=auth_token,
                         quota_rps=args.quota_rps,
                         quota_burst=args.quota_burst)
    server.start()
    host, port = server.address
    print("repro.server: serving %s on %s:%d (procs=%d running and "
          "max_queue=%d waiting per pool, plan_cache=%d, "
          "result_cache_bytes=%d)"
          % (args.db_dir, host, port, args.procs, args.max_queue,
             args.plan_cache, args.result_cache_bytes),
          flush=True)
    if args.port_file:
        # write-then-rename: pollers that see the file see its content
        with open(args.port_file + ".tmp", "w") as handle:
            handle.write("%s %d\n" % (host, port))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(args.port_file + ".tmp", args.port_file)

    stop = threading.Event()
    graceful = threading.Event()

    def _interrupt(_signum, _frame):
        stop.set()

    def _terminate(_signum, _frame):
        graceful.set()
        stop.set()

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _terminate)
    stop.wait()
    if graceful.is_set():
        print("repro.server: draining (timeout %.1fs)"
              % args.drain_timeout, flush=True)
        drained = server.drain(args.drain_timeout)
        print("repro.server: %s" % ("drained cleanly" if drained
                                    else "drain timed out"),
              flush=True)
    else:
        print("repro.server: shutting down", flush=True)
        server.stop()
    service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
