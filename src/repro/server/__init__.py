"""Concurrent query service over the shared mmap catalog.

The paper positions the flattened BAT algebra as the high-throughput
kernel behind multi-user front-ends; this package is that serving
layer.  A :class:`QueryServer` accepts Moa and MIL queries from many
concurrent clients over a length-prefixed socket protocol
(:mod:`repro.server.protocol`) — JSON requests, and results as one
**binary columnar message** that ships columns as raw little-endian
buffers — and executes them through a :class:`QueryService`: per-generation warm
worker pools (workers ``MonetKernel.open`` the catalog once, stay
resident, and encode every result once), an LRU plan cache per
worker keyed by query text, plan verification in the worker for every
plan kind, an optional byte-weighted result cache over the encoded
replies, admission control (max in-flight, bounded queue, per-query
timeout), and a stats endpoint
exposing latency percentiles, cache hit rates, and merged
buffer-manager fault accounting.

Quickstart::

    python -m repro.server --db-dir /path/to/db --port 7777

    from repro.server import QueryClient
    with QueryClient("127.0.0.1", 7777) as client:
        reply = client.moa('count(Item)')
        print(reply.value, reply.generation, reply.plan_cached)

Every result ships with a sha1 checksum over the same canonical form
the multi-process dispatcher uses (:func:`repro.monet.multiproc.
result_checksum`), and :class:`QueryClient` re-verifies it after
decoding — a served result is byte-contract-identical to serial
execution.

The serving path is hardened end to end (see the README's
"Operations & failure modes"): :class:`QueryClient` retries
idempotent reads over lost connections and shed load
(``retries=N``, exponential backoff + jitter, per-request ids);
:class:`QueryServer` supports shared-secret auth, per-connection
request quotas, typed error frames for oversized requests, and
graceful SIGTERM draining; :class:`QueryService` transparently
resubmits requests whose worker crashed mid-query before degrading
to a typed ``ServerOverloadedError``.  Every failure mode is
injectable through :mod:`repro.faults` and swept by the
``tests/chaos`` suite.
"""

from .cache import CacheStats, WeightedLRU
from .client import ClientReply, QueryClient
from .protocol import (MAX_FRAME_BYTES, decode_binary_message,
                       decode_program, decode_value,
                       encode_binary_message, encode_program,
                       encode_value, recv_frame, send_binary_frame,
                       send_frame, send_reply)
from .server import PROTOCOL_VERSION, QueryServer
from .service import QueryService, Session

__all__ = [
    "CacheStats", "WeightedLRU",
    "ClientReply", "QueryClient",
    "MAX_FRAME_BYTES", "PROTOCOL_VERSION",
    "QueryServer", "QueryService", "Session",
    "decode_binary_message", "decode_program", "decode_value",
    "encode_binary_message", "encode_program", "encode_value",
    "recv_frame", "send_binary_frame", "send_frame", "send_reply",
]
