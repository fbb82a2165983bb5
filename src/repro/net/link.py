"""The one place a live peer dials another: :func:`open_link`.

The bootstrap handshake (:meth:`~repro.net.cluster.LiveCluster._join_via`),
an outbox's reconnect (:meth:`~repro.net.peer._Outbox._recover`) and the
failure detector's probe (:meth:`~repro.net.health.FailureDetector._probe`)
all connect through it, so a transport other than localhost TCP has one
function to replace.
"""

from __future__ import annotations

import asyncio
import socket
from contextlib import suppress

from .frames import PeerInfo

#: Ceiling on one dial (bootstrap and reconnect).
CONNECT_TIMEOUT = 5.0
#: Ceiling on one write drain, and on the bootstrap's reply.
IO_TIMEOUT = 10.0


def set_nodelay(stream) -> None:
    """Disable Nagle's algorithm on the socket under a stream writer or
    a transport (one without a real socket is left alone).

    Batching is *our* policy (the outbox coalesces frames explicitly);
    letting the kernel hold small writes back as well would stack an
    uncontrolled delay on top.
    """
    sock = stream.get_extra_info("socket")
    if sock is not None:
        with suppress(OSError, AttributeError):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


async def open_link(
    info: PeerInfo, timeout: float
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect to the peer at ``info`` within ``timeout`` seconds,
    Nagle off; raises ``OSError`` or ``asyncio.TimeoutError``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(info.host, info.port), timeout
    )
    set_nodelay(writer)
    return reader, writer
