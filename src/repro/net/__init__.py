"""repro.net — live asyncio transport for the overlay.

The simulator (:mod:`repro.sim`) delivers messages by direct Python
calls; this package runs the *same* engine and algorithms over real TCP
sockets.  The pieces:

* :mod:`repro.net.codec` — versioned, length-prefixed binary wire
  format for every overlay message and its payload records;
* :mod:`repro.net.frames` — routing envelopes and the bootstrap/join
  control frames exchanged between peers;
* :mod:`repro.net.peer` — one asyncio peer per overlay node: TCP
  server, pooled outbound connections, timeouts, retry/backoff with
  successor fallback, and the bounded in-flight credit ledger;
* :mod:`repro.net.health` — heartbeat failure detection: suspect silent
  peers, route around them, probe until they return;
* :mod:`repro.net.chaos` — seeded TCP-level fault injection (resets,
  refusals, truncation/garbling, partitions, live crash/restart) and
  the soak that proves exactly-once delivery under all of it;
* :mod:`repro.net.cluster` — spin up an N-node localhost ring, drive a
  workload through it and compare against the simulator oracle
  (``python -m repro.net.cluster``, ``--chaos`` for the fault soak);
* :mod:`repro.net.loadgen` — sustained live load generator: pipelined
  tuple/query streams, notifications/sec and p50/p95/p99 end-to-end
  latency (``python -m repro.net.loadgen``; the committed live points
  are gated by ``python -m repro.expdb gate``).

The seam that makes this possible is :class:`repro.transport.Transport`:
the engine sends through ``engine.transport`` and never notices whether
the implementation is the simulator's :class:`repro.chord.routing.Router`
or :class:`repro.net.peer.SocketTransport`.
"""

from .codec import (
    PROTOCOL_VERSION,
    decode,
    decode_frame,
    encode,
    encode_frame,
    encode_frame_into,
)

__all__ = [
    "PROTOCOL_VERSION",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
    "encode_frame_into",
]
