"""Span bookkeeping and the self-time arithmetic of the traced run."""

import types

import pytest

import layers
from tracing import Span, Tracer, roots, self_times


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("parent", None, 0.0, 10.0),
        Span("a", 0, 1.0, 3.0),
        Span("b", 0, 2.0, 5.0),       # overlaps a: [1, 5] is covered once
        Span("c", 0, 7.0, 8.0),
        Span("grandchild", 3, 7.2, 7.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0 - 0.3)
    assert own[4] == pytest.approx(0.3)


def test_child_time_outside_the_parent_is_not_subtracted():
    spans = [Span("parent", None, 0.0, 2.0), Span("late", 0, 1.5, 4.0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_roots_follow_parent_links():
    spans = [
        Span("r0", None, 0, 1), Span("x", 0, 0, 1), Span("y", 1, 0, 1),
        Span("r1", None, 2, 3), Span("z", 3, 2, 3),
    ]
    assert roots(spans) == [0, 0, 0, 3, 3]


def test_wrapper_nests_spans_and_marks_failures():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))

    def boom():
        raise ValueError("no")

    inner = tracer.wrap(boom, "inner")

    def outer():
        with pytest.raises(ValueError):
            inner()
        return 7

    assert tracer.wrap(outer, "outer")() == 7
    (o, i) = tracer.spans
    assert (o.name, o.parent, o.start, o.end, o.failed) == ("outer", None, 0.0, 3.0, False)
    assert (i.name, i.parent, i.start, i.end, i.failed) == ("inner", 0, 1.0, 2.0, True)


def test_patch_and_restore_module_attribute():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer = Tracer()
    tracer.patch(mod, "f", "layer.f")
    assert mod.f is not original and mod.f(1) == 2
    assert [s.name for s in tracer.spans] == ["layer.f"]
    tracer.restore()
    assert mod.f is original


def test_layer_metrics_are_per_completed_operation():
    spans = [
        Span("op", None, 0.0, 10.0),                       # completed run
        Span("gibbs.run_gibbs", 0, 1.0, 9.0),
        Span("gibbs.g_sample", 1, 2.0, 3.0),
        Span("gibbs.g_sample", 1, 4.0, 6.0),
        Span("ssml.neg_log_marglik", 0, 0.5, 0.6, failed=True),
        Span("op", None, 10.0, 11.0, failed=True),         # guard-rejected run
        Span("benchmark.datagen", 5, 10.0, 10.5, failed=True),
        Span("op", None, 12.0, 14.0),                      # completed run
        Span("gibbs.run_gibbs", 7, 12.0, 13.0),
        Span("fileio.write", None, 14.0, 14.5, nbytes=100),  # per-round writer
    ]
    m = layers.layer_metrics(spans)
    assert m["gibbs.run_gibbs_s"] == pytest.approx((8.0 + 1.0) / 2)
    assert m["gibbs.run_gibbs_calls"] == pytest.approx(1.0)
    assert m["gibbs.self_s"] == pytest.approx((8.0 - 3.0 + 1.0) / 2)
    assert m["gibbs.sweeps"] == pytest.approx(1.0)
    assert m["ssml.marglik_failed"] == pytest.approx(0.5)
    assert m["benchmark.datagen_calls"] == 0.0          # only in the failed run
    assert m["fileio.write_s"] == pytest.approx(0.25)
    assert m["fileio.bytes_written"] == pytest.approx(50.0)
    assert set(m) == set(layers.metric_units())
