"""Hot path 11: one frame across one live loopback link.

Joinbench's ``live_stream`` pays ~65 TCP hops per event, so the cost of
one hop *in this process* — post, flush callback, socket write, the
receiver's ``data_received``, deframe, decode, handler — sets live
throughput (DESIGN.md §11, §13).  Two live peers, one link: the sender
posts ``batch`` direct frames in one loop turn (they coalesce into one
write and arrive as one chunk) and waits for the last one's handler.  The
row is wall time per frame; batch 1 is the latency-bound case (one
write, one chunk, one wake-up per frame), batch 64 the throughput-bound
one (``MAX_BATCH_FRAMES`` per write).
"""

from __future__ import annotations

import asyncio
import time

from repro.net.cluster import ClusterConfig, LiveCluster
from repro.sim.messages import UnsubscribeMessage

from _common import report

BATCHES = (1, 8, 64)


async def _measure(frames: int) -> dict[int, float]:
    cluster = LiveCluster(ClusterConfig(n_nodes=2))
    await cluster.start()
    try:
        source, target = cluster.network.nodes
        loop = asyncio.get_running_loop()
        # The last frame of a round resolves a future: waiting for it
        # costs one wake-up, where ``cluster.drain()`` would add a
        # ``wait_for`` task and timer to every round being timed.
        state = {"left": 0, "done": None}

        def handler(node, message) -> None:
            state["left"] -= 1
            if not state["left"]:
                state["done"].set_result(None)

        target.register_handler("unsubscribe", handler)
        message = UnsubscribeMessage(query_key="bench-link")
        send = cluster.transport.send_direct
        seconds = {}
        for batch in (1, *BATCHES):  # the leading round dials and warms up
            rounds = max(1, frames // batch)
            start = time.perf_counter()
            for _ in range(rounds):
                state["left"], state["done"] = batch, loop.create_future()
                for _ in range(batch):
                    send(source, message, target)
                await state["done"]
            seconds[batch] = (time.perf_counter() - start) / (rounds * batch)
        await cluster.drain()
        return seconds
    finally:
        await cluster.stop()


def run(frames: int = 4096) -> list[dict]:
    seconds = asyncio.run(_measure(frames))
    return [
        report(f"link.frame_batch{batch}", seconds[batch] * 1e9, frames=frames)
        for batch in BATCHES
    ]


if __name__ == "__main__":
    for row in run():
        print(row)
