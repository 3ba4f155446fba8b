"""Tests for the benchmark's span recorder.

    python3 -m pytest -q bench
"""

import pytest

import spans


def test_nested_spans_self_times_add_up_to_root():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    def mid(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_leaf = tracer.wrap(leaf, "layer.leaf")
    traced_mid = tracer.wrap(mid, "layer.mid")
    with tracer.root(0):
        assert traced_mid(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == [spans.ROOT, "layer.mid", "layer.leaf", "layer.leaf"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 1]
    assert all(s[4] == 0 for s in tracer.spans)
    fig = spans.trial_figures(tracer, 0)
    assert fig["layer.leaf.calls"] == 2
    assert abs(fig["_self_sum_s"] - fig["_root_s"]) < 1e-12
    mid_span = tracer.spans[1]
    leaves = sum(s[2] - s[1] for s in tracer.spans[2:])
    assert abs(fig["layer.mid_s"] - (mid_span[2] - mid_span[1] - leaves)) \
        < 1e-12


def test_counter_hook_and_exception_closes_span():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    def seen(counts, args, kwargs, result):
        counts["layer.ok"] += 1

    counted = tracer.wrap(lambda: 1, "layer.count", span=False, on_return=seen)
    failing = tracer.wrap(boom, "layer.boom", on_return=seen)
    with tracer.root(3):
        counted()
        counted()
        with pytest.raises(KeyError):
            failing()
    fig = spans.trial_figures(tracer, 3)
    assert fig["layer.count"] == 2
    assert fig["layer.ok"] == 2  # not bumped by the call that raised
    assert fig["layer.boom.calls"] == 1
    assert tracer.spans[-1][2] is not None


def test_io_write_counts_outermost_writer_once():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "io.write_json")

    def outer_fn():
        inner()

    outer = tracer.wrap(outer_fn, "io.write_oct_volume")
    with tracer.root(0):
        outer()
        inner()
    fig = spans.trial_figures(tracer, 0)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[0], []).append(s[2] - s[1])
    want = by_name["io.write_oct_volume"][0] + by_name["io.write_json"][1]
    assert abs(fig["io.write_s"] - want) < 1e-12


def test_instrumented_restores_originals():
    resectsim = pytest.importorskip("resectsim.harness")
    before = {(id(o), a): o.__dict__[a] for o, a, *_ in spans.targets()}
    with spans.instrumented(spans.Tracer()):
        assert resectsim.triangulate_grid is not before[
            (id(resectsim), "triangulate_grid")]
    after = {(id(o), a): o.__dict__[a] for o, a, *_ in spans.targets()}
    assert after == before
