import numpy as np
import pytest

import layers
from tracer import Span, Tracer, self_times, summarize


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 counts once
        Span(3, "a.child", 2.0, 3.0, 1),
        Span(4, "late", 9.0, 12.0, 0),  # runs past its parent: clipped to 9..10
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_summarize_adds_calls_totals_and_self_times_per_name():
    spans = [
        Span(0, "outer", 0.0, 4.0, None),
        Span(1, "inner", 0.5, 1.5, 0),
        Span(2, "inner", 2.0, 3.5, 0),
    ]
    summary = summarize(spans)
    assert summary["outer"] == pytest.approx({"calls": 1, "s": 4.0, "self_s": 1.5})
    assert summary["inner"] == pytest.approx({"calls": 2, "s": 2.5, "self_s": 2.5})


def test_span_nesting_follows_call_order():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
    with tracer.span("after"):
        pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["first"].parent == by_name["outer"].id
    assert by_name["second"].parent == by_name["outer"].id
    assert by_name["after"].parent is None
    own = self_times(tracer.spans)
    assert own[by_name["outer"].id] == pytest.approx(6.0 - 1.0 - 2.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import xbarnet
    from xbarnet import sizecluster, spectral

    original = spectral.eig_smallest
    tracer = Tracer()
    bound = tracer.install("xbarnet.spectral", "eig_smallest")
    try:
        assert bound >= 3  # spectral, sizecluster and the package namespace
        assert spectral.eig_smallest is sizecluster.eig_smallest is xbarnet.eig_smallest
        assert spectral.eig_smallest is not original
        spectral.eig_smallest(np.eye(3), 1)
        assert [s.name for s in tracer.spans] == ["spectral.eig_smallest"]
    finally:
        tracer.uninstall()
    assert spectral.eig_smallest is sizecluster.eig_smallest is original


def test_size_constrained_cluster_rounds_come_from_a_supplied_trace():
    from xbarnet import cli, transform  # noqa: F401  binds the clustering entry points
    from xbarnet.connectivity import ConnectivityMatrix
    from xbarnet.sizecluster import SizeClusterConfig

    bits = np.zeros((32, 32), dtype=np.uint8)
    bits[:16, :16] = 1
    bits[16:, 16:] = 1
    tracer = Tracer()
    layers.install(tracer)
    try:
        cs = transform.size_constrained_cluster(ConnectivityMatrix(bits), SizeClusterConfig(), 0)
        own = []
        transform.size_constrained_cluster(ConnectivityMatrix(bits), SizeClusterConfig(), 0, trace=own)
    finally:
        tracer.uninstall()
    assert cs.n_clusters == 2
    assert tracer.counters["sizecluster.rounds"] == 2 * len(own)
    assert tracer.counters["sizecluster.accepted"] == 2 * sum(r["accepted"] for r in own)
    metrics = layers.per_layer_metrics(tracer)
    assert metrics["sizecluster.size_constrained_cluster.calls"] == 2
    assert 0 < metrics["sizecluster.accept_ratio"] <= 1
