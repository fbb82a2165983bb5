import itertools

import pytest

from joinbench.trace import (
    Tracer,
    group_self_s,
    install_repro_spans,
    leftover_wrappers,
)


def ticking_tracer() -> Tracer:
    """A tracer whose clock advances by exactly 1 on every read, so a
    span's duration is the number of clock reads made inside it + 1."""
    return Tracer(clock=itertools.count().__next__)


def test_self_time_is_duration_minus_direct_children():
    tracer = ticking_tracer()
    leaf = tracer.wrap(lambda: None, "leaf")

    def parent_body():
        leaf()
        leaf()

    parent = tracer.wrap(parent_body, "parent")
    parent()
    summary = tracer.summary()
    # parent: start 0, leaf (1,2), leaf (3,4), end 5
    assert summary["leaf"] == {"calls": 2, "self_s": 2, "items": 0}
    assert summary["parent"] == {"calls": 1, "self_s": 3, "items": 0}
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert (tracer.span_start[0], tracer.span_end[0]) == (0, 5)
    assert tracer.total_self_s() == 5  # == the outermost span's duration


def test_recursion_nests_spans_of_one_name_without_double_counting():
    tracer = ticking_tracer()

    def body(depth):
        if depth:
            recurse(depth - 1)

    recurse = tracer.wrap(body, "recurse")
    recurse(2)
    # starts 0,1,2 — ends 3,4,5: durations 5, 3, 1; selfs 2, 2, 1
    assert tracer.summary()["recurse"]["calls"] == 3
    assert tracer.summary()["recurse"]["self_s"] == 5
    assert list(tracer.span_parent) == [-1, 0, 1]


def test_grandchildren_are_charged_to_their_parent_only():
    tracer = ticking_tracer()
    leaf = tracer.wrap(lambda: None, "c")
    middle = tracer.wrap(lambda: leaf(), "b")
    top = tracer.wrap(lambda: middle(), "a")
    top()
    summary = tracer.summary()
    # a: 0..5, b: 1..4, c: 2..3
    assert [summary[name]["self_s"] for name in "abc"] == [2, 2, 1]


def test_a_raising_span_is_closed_and_the_stack_unwinds():
    tracer = ticking_tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap(boom, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    with pytest.raises(ValueError):
        outer()
    assert tracer.summary()["inner"]["calls"] == 1
    assert tracer.summary()["outer"]["self_s"] == 2
    ok = tracer.wrap(lambda: None, "after")
    ok()
    assert tracer.span_parent[-1] == -1


def test_root_spans_issue_request_ids_that_children_inherit():
    tracer = ticking_tracer()
    child = tracer.wrap(lambda: None, "child")
    publish = tracer.wrap(lambda: child(), "publish", root=True)
    publish()
    child()  # detached: no request
    publish()
    assert list(tracer.span_request) == [1, 1, 0, 2, 2]


def test_items_accumulate_a_per_call_work_count():
    tracer = ticking_tracer()
    encode = tracer.wrap(
        lambda payload: payload * 2, "encode", items=lambda args, result: len(result)
    )
    encode(b"abc")
    encode(b"z")
    assert tracer.summary()["encode"]["items"] == 8


def test_groups_sum_self_time_by_prefix():
    summary = {
        "chord.routing.send": {"self_s": 1.0},
        "core.algorithm.on_join": {"self_s": 2.0},
        "sql.query.rewrite": {"self_s": 4.0},
        "core.tables.vlqt.add": {"self_s": 8.0},
        "net.codec.encode": {"self_s": 16.0},
    }
    groups = group_self_s(summary)
    assert groups["chord"] == 1.0
    assert groups["rewrite"] == 6.0
    assert groups["tables"] == 8.0
    assert groups["core"] == 14.0
    assert groups["net"] == 16.0


def test_install_patches_every_binding_and_restore_removes_them_all():
    from repro.core import base
    from repro.core.dai_q import DAIQuery
    from repro.net import peer
    from repro.sql import query

    original_rewrite = query.rewrite
    original_on_join = DAIQuery.__dict__["on_join"]
    tracer = Tracer()
    install_repro_spans(tracer)
    try:
        # ``from x import f`` copies are patched too, not just the home module.
        assert base.rewrite is query.rewrite is not original_rewrite
        assert peer.encode_frame.joinbench_original is not None
        # Subclass overrides are patched where they are defined.
        assert DAIQuery.__dict__["on_join"] is not original_on_join
        assert leftover_wrappers()
    finally:
        tracer.restore()
    assert base.rewrite is query.rewrite is original_rewrite
    assert DAIQuery.__dict__["on_join"] is original_on_join
    assert leftover_wrappers() == []
