"""Hot path 6: wire codec encode/decode of representative frames.

The live transport spends most of its CPU turning frames into bytes and
back; this suite times the frames that dominate real traffic — a
``JoinMessage`` carrying rewritten queries inside a routed envelope, a
``MultiFrame`` sweep, and a ``NotificationMessage`` batch — so a codec
regression shows up in ``run_all`` without spinning up a live cluster.

Those frames re-encode one group of one, whose shape is always already
sealed (and, decoding, already interned).  The ``join_group64`` rows put
a 64-member group on both sides of that cache: ``.sealed_fresh`` /
``.shape_new`` pay for the whole shape every time (a group that just
changed, a shape no peer has seen), ``.reused`` / ``.interned`` are the
steady state — one ``join()`` per trigger of an unchanged group.

Runnable under pytest too (``pytest benchmarks/micro/test_codec_encode.py``):
the test function asserts round-trip identity for every shape (the wire
bytes themselves are pinned by ``tests/net/golden_wire_frames.json``).
"""

from __future__ import annotations

import random

from repro.core.notifications import Notification
from repro.net import codec
from repro.net.codec import decode_frame, encode_frame
from repro.net.frames import MultiFrame, RouteFrame
from repro.sim.messages import JoinMessage, NotificationMessage, VLIndexMessage
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, RIGHT, Subscriber, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

from _common import best_of, report
from bench_rewrite import _group

R = Relation("R", ("A", "B", "C"))
SUB = Subscriber("bench", 1, "10.0.0.1")


def _group64_frame() -> RouteFrame:
    """One ``join()`` of a 64-member group (two select lists), routed."""
    record = rewrite(_group(64), LEFT, DataTuple(R, (7, 11, 13), 1.0))
    return RouteFrame(
        target_ident=2**120, message=JoinMessage(rewritten=(record,)), hops=2
    )


def _frames() -> dict[str, object]:
    """Representative frames, deterministic across runs."""
    rng = random.Random(23)
    query = parse_query(
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"
    ).with_subscription("bench#0", 0.0, SUB)
    tuples = [
        DataTuple(
            R,
            (rng.randrange(900), rng.randrange(900), rng.randrange(900)),
            float(i),
        )
        for i in range(8)
    ]
    join = JoinMessage(
        rewritten=tuple(rewrite(query, LEFT, tup) for tup in tuples[:4]),
        projections=(),
    )
    notifications = tuple(
        Notification(
            query_key="bench#0",
            subscriber_ident=1,
            row=(tup.values[0], tup.values[1]),
            join_value_repr=repr(tup.values[1]),
            trigger_pub_time=tup.pub_time,
            match_pub_time=0.5,
            created_at=1.5,
        )
        for tup in tuples[:4]
    )
    return {
        "join_routed": RouteFrame(
            target_ident=2**120, message=join, hops=2
        ),
        "vl_index_sweep": MultiFrame(
            pairs=tuple(
                (rng.randrange(2**160), VLIndexMessage(tuple=tup, index_attribute="B"))
                for tup in tuples
            ),
            hops=1,
        ),
        "notification_batch": NotificationMessage(
            notifications=notifications, subscriber_ident=1
        ),
    }


def run(loops: int = 4_000) -> list[dict]:
    rows = []
    for name, frame in _frames().items():
        wire = encode_frame(frame)
        rows.append(
            report(
                f"codec.encode.{name}",
                best_of(lambda f=frame: encode_frame(f), loops=loops),
                bytes=len(wire),
            )
        )
        rows.append(
            report(
                f"codec.decode.{name}",
                best_of(lambda w=wire: decode_frame(w), loops=loops),
                bytes=len(wire),
            )
        )
    frame = _group64_frame()
    shape = frame.message.rewritten[0].shape
    wire = encode_frame(frame)

    def encode_sealing():
        shape.sealed = None
        encode_frame(frame)

    def decode_unseen():
        codec._SHAPE_TABLE.clear()
        decode_frame(wire)

    for name, fn in (
        ("codec.encode.join_group64.sealed_fresh", encode_sealing),
        ("codec.encode.join_group64.reused", lambda: encode_frame(frame)),
        ("codec.decode.join_group64.shape_new", decode_unseen),
        ("codec.decode.join_group64.interned", lambda: decode_frame(wire)),
    ):
        rows.append(report(name, best_of(fn, loops=loops), bytes=len(wire)))
    return rows


# ----------------------------------------------------------------------
# Pytest-facing assertions (not part of the timed run)
# ----------------------------------------------------------------------

def test_round_trip_identity():
    # Round-trip fidelity is asserted on the re-encoded wire bytes.
    for name, frame in {**_frames(), "join_group64": _group64_frame()}.items():
        wire = encode_frame(frame)
        decoded, consumed = decode_frame(wire)
        assert consumed == len(wire), name
        assert encode_frame(decoded) == wire, name


if __name__ == "__main__":
    for row in run():
        print(row)
