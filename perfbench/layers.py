"""Which ``xbarnet`` functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Each wrapped function gets a span; the
hooks below add the work counters named in the per-layer metric list.
"""

from __future__ import annotations

import statistics

from tracer import Tracer, summarize

# span name -> fields reported from it ("calls", "s", "self_s")
SPAN_FIELDS = {
    "transform.cluster_prune": ("calls", "s"),
    "transform.cluster_score": ("calls", "s"),
    "transform.transform_epoch": ("s",),
    "transform.offline_cluster": ("s",),
    "transform.final_cluster_sets": ("s",),
    "spectral.spectral_cluster": ("calls", "s"),
    "spectral.eig_smallest": ("calls", "s", "self_s"),
    "spectral.kmeans": ("calls", "s"),
    "spectral.build_similarity": ("s",),
    "sizecluster.size_constrained_cluster": ("calls", "s", "self_s"),
    "mlp.train_epoch": ("calls", "s"),
    "mlp.evaluate": ("s",),
    "mlp.magnitude_prune": ("s",),
    "mlp.save_checkpoint": ("s",),
    "mlp.load_checkpoint": ("s",),
    "connectivity.cluster_sets_to_json": ("s",),
    "connectivity.cluster_sets_from_json": ("s",),
    "hardware.map_to_mcas": ("s",),
    "hardware.mca_energy": ("s",),
    "hardware.cmos_energy": ("s",),
    "experiment.run_experiment.original": ("s",),
    "experiment.run_experiment.prune": ("s",),
    "experiment.run_experiment.offline_cluster": ("s",),
    "experiment.run_experiment.transform": ("s",),
}

# metric name -> (unit, better) for everything that is not a span field
EXTRA = {
    "transform.cluster_score.records_scanned": ("count", "lower"),
    "spectral.eig_smallest.n3_sum": ("count", "lower"),
    "spectral.build_similarity.bytes": ("bytes", "lower"),
    "sizecluster.rounds": ("count", "lower"),
    "sizecluster.accepted": ("count", "higher"),
    "sizecluster.accept_ratio": ("ratio", "higher"),
    "mlp.train_samples_per_s": ("1/s", "higher"),
    "connectivity.cluster_sets_to_json.bytes": ("bytes", "lower"),
    "datasets.build_s": ("s", "lower"),
    "config.build_config_s": ("s", "lower"),
    "experiment.artifact_bytes": ("bytes", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    specs = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            specs[f"{span}.{f}"] = ("count", "lower") if f == "calls" else ("s", "lower")
    specs.update(EXTRA)
    return specs


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every traced function; xbarnet modules must already be imported."""
    c = tracer.counters

    def scanned(args, kwargs):
        state, layer_id = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 2, "layer_id")
        c["transform.cluster_score.records_scanned"] += len(state.records[layer_id])

    def eig_work(args, kwargs):
        n = _arg(args, kwargs, 0, "l").shape[0]
        c["spectral.eig_smallest.n3_sum"] += n**3

    def sim_bytes(args, kwargs, result):
        c["spectral.build_similarity.bytes"] += result.values.nbytes

    def samples(args, kwargs):
        c["mlp.samples"] += len(_arg(args, kwargs, 1, "x"))

    def json_bytes(args, kwargs, result):
        c["connectivity.cluster_sets_to_json.bytes"] += len(result.encode())

    # size_constrained_cluster: supply a trace list when the caller passes none
    trace_starts: list[int] = []

    def give_trace(args, kwargs):
        if len(args) > 4 or kwargs.get("trace") is not None:
            trace_starts.append(len(_arg(args, kwargs, 4, "trace")))
            return None
        trace_starts.append(0)
        return {**kwargs, "trace": []}

    def count_rounds(args, kwargs, result):
        rounds = _arg(args, kwargs, 4, "trace")[trace_starts.pop():]
        c["sizecluster.rounds"] += len(rounds)
        c["sizecluster.accepted"] += sum(r["accepted"] for r in rounds)
        c["sizecluster.rounds_accepting"] += sum(1 for r in rounds if r["accepted"] > 0)

    hooks = {
        ("xbarnet.transform", "cluster_prune"): {},
        ("xbarnet.transform", "cluster_score"): {"before": scanned},
        ("xbarnet.transform", "transform_epoch"): {},
        ("xbarnet.transform", "offline_cluster"): {},
        ("xbarnet.transform", "final_cluster_sets"): {},
        ("xbarnet.spectral", "spectral_cluster"): {},
        ("xbarnet.spectral", "eig_smallest"): {"before": eig_work},
        ("xbarnet.spectral", "kmeans"): {},
        ("xbarnet.spectral", "build_similarity"): {"after": sim_bytes},
        ("xbarnet.sizecluster", "size_constrained_cluster"): {
            "before": give_trace, "after": count_rounds,
        },
        ("xbarnet.mlp", "train_epoch"): {"before": samples},
        ("xbarnet.mlp", "evaluate"): {},
        ("xbarnet.mlp", "magnitude_prune"): {},
        ("xbarnet.mlp", "save_checkpoint"): {},
        ("xbarnet.mlp", "load_checkpoint"): {},
        ("xbarnet.connectivity", "cluster_sets_to_json"): {"after": json_bytes},
        ("xbarnet.connectivity", "cluster_sets_from_json"): {},
        ("xbarnet.hardware", "map_to_mcas"): {},
        ("xbarnet.hardware", "mca_energy"): {},
        ("xbarnet.hardware", "cmos_energy"): {},
        ("xbarnet.experiment", "run_experiment"): {
            "label": lambda args, kwargs: _arg(args, kwargs, 0, "cfg").mode,
        },
    }
    for (module, func), h in hooks.items():
        if tracer.install(module, func, **h) == 0:
            raise RuntimeError(f"{module}.{func} is bound nowhere")


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced run; the caller fills in trace_overhead_frac."""
    summary = summarize(tracer.spans)
    out = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            out[f"{span}.{f}"] = summary.get(span, {}).get(f, 0)
    c = tracer.counters
    for name in EXTRA:  # counters; derived entries are overwritten below
        out[name] = c.get(name, 0)
    rounds = c.get("sizecluster.rounds", 0)
    out["sizecluster.accept_ratio"] = c.get("sizecluster.rounds_accepting", 0) / rounds if rounds else 0.0
    train_s = out["mlp.train_epoch.s"]
    out["mlp.train_samples_per_s"] = c.get("mlp.samples", 0) / train_s if train_s else 0.0
    for setup_span, name in (("datasets.build", "datasets.build_s"), ("config.build_config", "config.build_config_s")):
        durations = [s.duration for s in tracer.spans if s.name == setup_span]
        out[name] = statistics.median(durations) if durations else 0.0
    return out
