"""Per-layer metrics from the traced run.

The traced run alternates untraced iterations (the same CLI processes the
timed loop runs) with traced ones, in which probe.py runs each command
through odyn.cli.main with the calls it makes wrapped in spans. Layer
names are odyn's module names. Times are medians over the traced
iterations; counts must repeat exactly across them, or the run records a
failed operation.

io.read_s is the readers' own time (CSV parsing); the structure constructor
they call is graphs.build_s. Self times exclude child spans: the rhs,
energy and post-step calls inside integrate() are not integrators.self_s.
cli.<command>_s are the wall times of the untraced CLI processes.

dynamics.rhs_bytes and dynamics.rhs_flops are computed, not measured: per
call, a pair-coupled rhs gathers two state rows and scatters one per
coupled pair (3 P d doubles plus P weights and 2 P indices; 3 P d flops),
and the dense diffusion rhs is one N x N by N x d product (N^2 doubles,
2 N^2 d flops). At these sizes every array fits in the last-level cache, so
no bandwidth is derived from them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times

RHS_KINDS = ("static-graph", "dynamic-graph", "static-hyper", "dynamic-hyper", "diffusion")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.simulate_s": "s",
    "cli.classify_s": "s",
    "cli.simplify_s": "s",
    "cli.energy_s": "s",
    "io.read_s": "s",
    "io.read_rows": "count",
    "io.read_us_per_row": "us",
    "io.write_s": "s",
    "io.write_rows": "count",
    "io.write_bytes": "bytes",
    "io.write_us_per_row": "us",
    "graphs.build_s": "s",
    "graphs.nodes": "count",
    "graphs.arcs": "count",
    "graphs.hyperedges": "count",
    "graphs.pair_couplings": "count",
    "graphs.sbm_s": "s",
    "graphs.predicates_s": "s",
    "influence.similarity_dynamic_ms": "ms",
    "influence.phi_ms": "ms",
    "influence.similarity_static_s": "s",
    "dynamics.build_s": "s",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_s": "s",
    **{f"dynamics.rhs_ms.{k}": "ms" for k in RHS_KINDS},
    "dynamics.step_ms.hk": "ms",
    "dynamics.rhs_bytes": "bytes",
    "dynamics.rhs_flops": "flops",
    "integrators.self_s": "s",
    "integrators.self_us_per_step": "us",
    "integrators.steps_accepted": "count",
    "integrators.rhs_per_step": "ratio",
    "integrators.states_mb": "MB",
    "diagnostics.energy_calls": "count",
    "diagnostics.energy_ms.graph": "ms",
    "diagnostics.energy_ms.hyper": "ms",
    "diagnostics.detect_s": "s",
    "diagnostics.cluster_count_s": "s",
    "diagnostics.consensus_s": "s",
    "diagnostics.spectral_gap_s": "s",
    "pipeline.classify_s": "s",
    "pipeline.simplify_s": "s",
    "pipeline.self_s": "s",
    "pipeline.label_by_degree_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.remainder_s": "s",
}

# Counts that must repeat exactly across two traced runs of the same code.
EXACT_COUNTS = ("dynamics.rhs_calls", "integrators.steps_accepted", "diagnostics.energy_calls",
                "io.write_rows", "io.write_bytes", "graphs.arcs")

# Span name -> metric that sums the span's full duration.
DURATIONS = {
    "graphs.build": "graphs.build_s",
    "graphs.sbm": "graphs.sbm_s",
    "graphs.homophily": "graphs.predicates_s",
    "graphs.normalize_rows": "graphs.predicates_s",
    "graphs.is_strongly_connected": "graphs.predicates_s",
    "graphs.is_aperiodic": "graphs.predicates_s",
    "influence.similarity_static": "influence.similarity_static_s",
    "io.write": "io.write_s",
    "diagnostics.detect": "diagnostics.detect_s",
    "diagnostics.cluster_count": "diagnostics.cluster_count_s",
    "diagnostics.consensus": "diagnostics.consensus_s",
    "diagnostics.spectral_gap": "diagnostics.spectral_gap_s",
    "pipeline.classify": "pipeline.classify_s",
    "pipeline.simplify": "pipeline.simplify_s",
    "pipeline.label_by_degree": "pipeline.label_by_degree_s",
    "pipeline.post_step": "pipeline.self_s",
    "dynamics.rhs": "dynamics.rhs_s",
}

# Span name -> metric that sums the span's self time.
SELF_TIMES = {
    "io.read": "io.read_s",
    "dynamics.build": "dynamics.build_s",
    "integrators.integrate": "integrators.self_s",
    "pipeline.classify": "pipeline.self_s",
    "pipeline.simplify": "pipeline.self_s",
}


def rhs_cost(kind, dim, counts):
    """Computed (bytes, flops) of one rhs call of this kind."""
    if kind == "diffusion":
        n = counts["nodes"]
        return 8 * n * n + 16 * n * dim, 2 * n * n * dim
    p = counts["pairs"] if kind.endswith("hyper") else counts["arcs"]
    return 8 * (3 * p * dim + p) + 16 * p, 3 * p * dim


def layer_values(procs):
    """Per-layer metrics of one traced iteration (one or more processes)."""
    m = defaultdict(float)
    per_call = defaultdict(list)
    layer_self = defaultdict(float)
    probe_s = 0.0
    for proc in procs:
        spans = proc["spans"]
        counts = next((s["attrs"] for s in spans if s["name"] == "probe.counts"), {})
        m["graphs.nodes"] = max(m["graphs.nodes"], counts.get("nodes", 0))
        m["graphs.arcs"] = max(m["graphs.arcs"], counts.get("arcs", 0))
        m["graphs.hyperedges"] = max(m["graphs.hyperedges"], counts.get("hyperedges", 0))
        m["graphs.pair_couplings"] = max(m["graphs.pair_couplings"], counts.get("pairs", 0))
        top = 0.0
        for s, own in zip(spans, self_times(spans)):
            name, dur, a = s["name"], s["end"] - s["start"], s["attrs"]
            layer_self[name.split(".")[0]] += own
            if s["parent"] is None:
                top += dur
            if name.startswith("probe."):
                probe_s += dur
            if name in DURATIONS:
                m[DURATIONS[name]] += dur
            if name in SELF_TIMES:
                m[SELF_TIMES[name]] += own
            if name == "cli.import":
                per_call["import"].append(dur)
            elif name == "io.read":
                m["io.read_rows"] += a.get("rows", 0)
            elif name == "io.write":
                m["io.write_rows"] += a["rows"]
                m["io.write_bytes"] += a["bytes"]
            elif name == "dynamics.rhs":
                m["dynamics.rhs_calls"] += 1
                per_call[f"rhs.{a['kind']}"].append(dur)
                nbytes, flops = rhs_cost(a["kind"], a["dim"], counts)
                m["dynamics.rhs_bytes"] += nbytes
                m["dynamics.rhs_flops"] += flops
            elif name == "integrators.integrate":
                m["integrators.steps_accepted"] += a["states"] - 1
                m["integrators.states_mb"] += a["states"] * a["nodes"] * a["dim"] * 8 / 1e6
            elif name == "diagnostics.energy":
                m["diagnostics.energy_calls"] += 1
                per_call[f"energy.{a['kind']}"].append(dur)
            elif name in ("dynamics.hk_step", "probe.similarity_dynamic", "probe.phi"):
                per_call[name].append(dur)
        layer_self["(untraced remainder)"] += proc["wall"] - top
        m["trace.remainder_s"] += proc["wall"] - top

    def mean_ms(key):
        calls = per_call.get(key)
        return 1e3 * statistics.fmean(calls) if calls else 0.0

    m["cli.import_s"] = statistics.fmean(per_call["import"]) if per_call["import"] else 0.0
    for kind in RHS_KINDS:
        m[f"dynamics.rhs_ms.{kind}"] = mean_ms(f"rhs.{kind}")
    m["diagnostics.energy_ms.graph"] = mean_ms("energy.graph")
    m["diagnostics.energy_ms.hyper"] = mean_ms("energy.hyper")
    m["dynamics.step_ms.hk"] = mean_ms("dynamics.hk_step")
    m["influence.similarity_dynamic_ms"] = mean_ms("probe.similarity_dynamic")
    m["influence.phi_ms"] = mean_ms("probe.phi")
    if m["io.read_rows"]:
        m["io.read_us_per_row"] = 1e6 * m["io.read_s"] / m["io.read_rows"]
    if m["io.write_rows"]:
        m["io.write_us_per_row"] = 1e6 * m["io.write_s"] / m["io.write_rows"]
    steps = m["integrators.steps_accepted"]
    if steps:
        m["integrators.self_us_per_step"] = 1e6 * m["integrators.self_s"] / steps
        m["integrators.rhs_per_step"] = m["dynamics.rhs_calls"] / steps
    return m, dict(layer_self), sum(p["wall"] for p in procs), probe_s


def accounting(name, layer_self, wall):
    """One line showing that layer self times plus the remainder make the traced wall."""
    parts = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(layer_self.items()))
    return f"{name:15s} accounting: {parts} = {sum(layer_self.values()):.3f}s; traced wall {wall:.3f}s"
