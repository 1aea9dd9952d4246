"""Child process of the benchmark: one fresh interpreter per call.

    python perfbench/probe.py SPEC.json

SPEC["mode"] picks what the process does:

setup    import odyn, read the workload's inputs with the public readers,
         build the structures and the dynamics operators, then print how
         long that took since the parent spawned this process.
api      the api-dense workload: public odyn functions only, no file I/O.
         Prints one JSON line with the outcome of each call group.
command  run one CLI command through odyn.cli.main in this process, with
         the names odyn.cli and odyn.pipeline call rebound to copies that
         record spans. Used by the traced run only.

With SPEC["spans"] set, spans go to that file when the process ends. The
traced run wraps the readers, the writers, DynamicSpec.rhs_fn,
make_odnet_rhs, integrate (and the rhs, energy and post-step callables
handed to it), propagate_labels, simplify_network and
detect_oversmoothing, and the structure constructors the readers call.
These are rebindings inside this process; src/ is never edited.

numpy is imported only through `import odyn`, so the cli.import span holds
the whole import cost.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer

odyn = None


def _import_odyn(tr):
    global odyn
    with tr.span("cli.import"):
        import odyn as mod
    odyn = mod


def rhs_kind(spec):
    """Label of the rhs flavour a DynamicSpec builds (for per-kind times)."""
    if spec.kind == "hypergraph-diffusion":
        return "diffusion"
    shape = "hyper" if spec.kind.startswith("hypergraph") else "graph"
    sim = "dynamic" if spec.similarity.is_dynamic else "static"
    return f"{sim}-{shape}"


def read_structure(cmd, cfg):
    if cmd.get("hypergraph"):
        return odyn.read_hypergraph_csv(cmd["hypergraph"])
    return odyn.read_graph_csv(cmd["graph"], directed=bool(cfg.get("directed", False)))


def hyper_pairs(h):
    """Ordered co-membership pairs (i, j), i != j, over every hyperedge."""
    import numpy as np

    src, dst = [], []
    for e in range(h.edge_count):
        m = h.members(e)
        ii, jj = np.meshgrid(m, m, indexing="ij")
        keep = ii != jj
        src.append(ii[keep])
        dst.append(jj[keep])
    return np.concatenate(src), np.concatenate(dst)


# -- traced CLI command ------------------------------------------------------


def instrument(tr, seen):
    """Rebind what odyn.cli and odyn.pipeline call to copies inside spans.

    `seen` keeps the structure read, the kind and influence of the last rhs
    built and the last final state, for the probes after the command.
    """
    import odyn.cli as cli
    import odyn.dynamics as dynamics
    import odyn.io as io
    import odyn.pipeline as pipeline

    io.WeightedGraph = tr.wrap("graphs.build", odyn.WeightedGraph)
    io.Hypergraph = tr.wrap("graphs.build", odyn.Hypergraph)
    dynamics.similarity_static = tr.wrap("influence.similarity_static", odyn.similarity_static)

    def reader(fn):
        def read(*args, **kwargs):
            with tr.span("io.read") as attrs:
                s = fn(*args, **kwargs)
            with tr.span("probe.read_counts"):
                if isinstance(s, odyn.NodeLabels):
                    attrs["rows"] = s.node_count
                    return s
                seen["structure"] = s
                if isinstance(s, odyn.Hypergraph):
                    attrs["rows"] = int(sum(s.members(e).size for e in range(s.edge_count)))
                else:
                    attrs["rows"] = s.edge_count
            return s

        return read

    def writer(fn):
        def write(path, *args, **kwargs):
            with tr.span("io.write") as attrs:
                fn(path, *args, **kwargs)
            with tr.span("probe.write_counts"):
                data = Path(path).read_bytes()
                attrs.update(rows=data.count(b"\n"), bytes=len(data))

        return write

    def built(kind, influence, build, *args):
        seen.update(kind=kind, influence=influence or seen.get("influence"))
        with tr.span("dynamics.build", kind=kind):
            return build(*args)

    rhs_fn = dynamics.DynamicSpec.rhs_fn
    dynamics.DynamicSpec.rhs_fn = lambda spec: built(rhs_kind(spec), spec.influence, rhs_fn, spec)
    make_rhs = pipeline.make_odnet_rhs
    pipeline.make_odnet_rhs = lambda g, influence, sim: built(
        f"{'dynamic' if sim.is_dynamic else 'static'}-graph", influence, make_rhs, g, influence, sim)

    def integrate(rhs, x0, cfg, energy_fn=None, post_step=None):
        kind = seen["kind"]
        dim = int(x0.shape[1]) if x0.ndim > 1 else 1
        energy_kind = "graph" if kind.endswith("graph") else "hyper"
        with tr.span("integrators.integrate") as attrs:
            traj = odyn.integrate(
                tr.wrap("dynamics.rhs", rhs, kind=kind, dim=dim),
                x0,
                cfg,
                energy_fn=tr.wrap("diagnostics.energy", energy_fn, kind=energy_kind),
                post_step=tr.wrap("pipeline.post_step", post_step),
            )
        attrs.update(states=len(traj), nodes=int(x0.shape[0]), dim=dim)
        seen["state"] = traj.final_state
        return traj

    cli.integrate = pipeline.integrate = integrate
    for name in ("read_graph_csv", "read_hypergraph_csv", "read_labels_csv"):
        setattr(cli, name, reader(getattr(cli, name)))
    for name in ("write_json", "write_trajectory_csv", "write_state_csv", "write_energy_csv",
                 "write_labels_csv", "write_graph_csv"):
        setattr(cli, name, writer(getattr(cli, name)))
    cli.propagate_labels = tr.wrap("pipeline.classify", cli.propagate_labels)
    cli.simplify_network = tr.wrap("pipeline.simplify", cli.simplify_network)
    cli.detect_oversmoothing = tr.wrap("diagnostics.detect", cli.detect_oversmoothing)


PROBE_CALLS = 3


def run_command(spec, tr):
    """One CLI command, traced, then per-call influence probes on its final state."""
    _import_odyn(tr)
    import odyn.cli

    from workloads import cli_args

    seen = {}
    instrument(tr, seen)
    cmd = spec["cmd"]
    with tr.span(f"cli.{cmd['command']}"):
        code = odyn.cli.main(cli_args(cmd))
    if code != 0:
        raise SystemExit(f"odyn {cmd['command']} exited with {code}")
    s = seen["structure"]
    with tr.span("probe.counts") as attrs:
        if isinstance(s, odyn.Hypergraph):
            pairs = hyper_pairs(s)
            attrs.update(nodes=s.node_count, hyperedges=s.edge_count, pairs=int(pairs[0].size))
        else:
            pairs = (s.src, s.dst)
            attrs.update(nodes=s.node_count, arcs=s.arc_count)
    for _ in range(PROBE_CALLS):
        with tr.span("probe.similarity_dynamic"):
            sim = odyn.similarity_dynamic(seen["state"], pairs)
        with tr.span("probe.phi"):
            odyn.phi(seen["influence"], sim)
    return {}


# -- setup probe ------------------------------------------------------------


def run_setup(spec, tr):
    """Fresh interpreter to ready-to-step, for every command of a workload."""
    _import_odyn(tr)
    cache = {}
    for cmd in spec["cmds"]:
        with open(cmd["config"], encoding="utf-8") as fh:
            cfg = json.load(fh)
        key = cmd.get("hypergraph") or cmd["graph"]
        if key not in cache:
            cache[key] = read_structure(cmd, cfg)
        s = cache[key]
        if cmd["command"] in ("simulate", "energy"):
            merged = [dict({k: v for k, v in cfg.items() if k != "runs"}, **r) for r in cfg.get("runs", [{}])]
            for run_cfg in merged:
                odyn.DynamicSpec.from_json(run_cfg, structure=s).rhs_fn()
        elif cmd["command"] == "classify":
            odyn.read_labels_csv(cmd["labels"], node_count=s.node_count)
            odyn.make_odnet_rhs(s, odyn.InfluenceConfig.from_json(cfg))
        elif cmd["command"] == "simplify":
            odyn.make_odnet_rhs(s, odyn.InfluenceConfig.from_json(cfg), odyn.SimilaritySpec("static"))
    return {"ready_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spec["t0"]}


# -- api-dense ----------------------------------------------------------------


class Checks:
    """Outcome of each call group; a failure is recorded, not raised."""

    def __init__(self):
        self.ops = []
        self.values = {}

    def group(self, name, fn):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - every failure is a failed operation
            self.ops.append({"name": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
        else:
            self.ops.append({"name": name, "ok": True})


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def run_api(spec, tr):
    """The api-dense call groups, each checked in place.

    The sbm and labels groups work on generate_sbm's own draw, so they are
    checked statistically and against oracles on the same graph, and put
    nothing in `values`: a different sampler must not fail the reference
    check. The other groups run on inputs from gen and record their values.
    """
    _import_odyn(tr)
    import numpy as np

    import gen

    p = spec["params"]
    seed = spec["seed"]
    res = Checks()
    ctx = {}

    def sbm():
        sizes = p["sbm_sizes"]
        with tr.span("graphs.sbm"):
            g, labels = odyn.generate_sbm(sizes, p["sbm_p_in"], p["sbm_p_out"], seed=seed)
        ctx["g8"], ctx["l8"] = g, labels
        n = sum(sizes)
        check(g.node_count == n and labels.node_count == n, "sbm node count")
        check(np.array_equal(labels.labels, np.repeat(np.arange(len(sizes)), sizes)), "sbm labels")
        src, dst, _ = g.undirected_pairs()
        check(np.all(src < dst), "sbm has a self loop")
        ba, bb = labels.labels[src], labels.labels[dst]
        for a, na in enumerate(sizes):
            for b in range(a, len(sizes)):
                pairs = na * (na - 1) // 2 if a == b else na * sizes[b]
                prob = p["sbm_p_in"] if a == b else p["sbm_p_out"]
                got = int(np.count_nonzero((ba == a) & (bb == b)))
                mean, sd = pairs * prob, (pairs * prob * (1.0 - prob)) ** 0.5
                check(abs(got - mean) <= 6.0 * sd + 1.0, f"sbm block ({a},{b}) has {got} edges, expected {mean:.0f}")

    def labels():
        g, lab = ctx["g8"], ctx["l8"]
        with tr.span("graphs.homophily"):
            h = odyn.homophily_level(g, lab)
        with tr.span("pipeline.label_by_degree"):
            tiers = odyn.label_by_degree(g)
        loop = g.src != g.dst
        src, dst = g.src[loop], g.dst[loop]
        deg = np.bincount(src, minlength=g.node_count)
        same = np.bincount(src, weights=lab.labels[src] == lab.labels[dst], minlength=g.node_count)
        has = deg > 0
        check(rel_close(h, float(np.mean(same[has] / deg[has])), 1e-12), "homophily mismatch")
        expect = {"weak": int(np.sum(deg < tiers.low)), "strong": int(np.sum(deg > tiers.high))}
        expect["medium"] = g.node_count - expect["weak"] - expect["strong"]
        check(tiers.counts() == expect, "label_by_degree counts")

    def consensus():
        rng = np.random.default_rng(seed)
        src, dst, w, lab = gen.weighted_sbm(p["graph_sizes"], p["graph_p_in"], p["graph_p_out"], rng)
        n = lab.size
        rows = list(zip(src.tolist(), dst.tolist(), w.tolist()))
        with tr.span("graphs.build"):
            g = odyn.WeightedGraph(n, rows)
        with tr.span("graphs.normalize_rows"):
            gn = odyn.normalize_rows(g)
        check(odyn.validate_row_stochastic(gn), "normalize_rows rows do not sum to one")
        with tr.span("graphs.is_strongly_connected"):
            check(odyn.is_strongly_connected(gn), "graph not strongly connected")
        with tr.span("graphs.is_aperiodic"):
            check(odyn.is_aperiodic(gn), "graph not aperiodic")
        x0 = rng.random((n, 2))
        with tr.span("diagnostics.consensus"):
            pred = odyn.consensus_predict(gn, x0)
        deg = g.weighted_out_degree()
        expect = (deg / deg.sum()) @ x0
        check(np.allclose(pred, expect[None, :], rtol=1e-8, atol=0.0), "consensus value")
        res.values["consensus"] = pred[0].tolist()

    def hk_sweep():
        x0 = np.random.default_rng(seed).uniform(0.0, 1.0, p["hk_agents"])
        hk = tr.wrap("dynamics.hk_step", odyn.hk_step)
        counts = []
        for radius in p["hk_radii"]:
            x = x0
            for _ in range(p["hk_steps"]):
                x = hk(x, radius)
            check(x.min() >= x0.min() and x.max() <= x0.max(), "hk left the hull")
            with tr.span("diagnostics.cluster_count"):
                counts.append(odyn.cluster_count(x, 1e-3))
        check(all(1 <= c <= x0.size for c in counts), f"hk clusters {counts}")
        res.values["hk_clusters"] = counts

    def gap():
        n, r, k = p["gap_nodes"], p["gap_degree"], p["gap_edge_size"]
        rng = np.random.default_rng(seed)
        rows = []
        for layer in range(r):
            perm = rng.permutation(n)
            for e in range(n // k):
                rows += [(int(v), layer * (n // k) + e, 1.0) for v in perm[e * k:(e + 1) * k]]
        with tr.span("graphs.build"):
            h = odyn.Hypergraph(n, rows)
        with tr.span("diagnostics.spectral_gap"):
            value = odyn.spectral_gap(h, kernel="hgnn")
        check(0.0 < value <= 1.0 + 1e-9, f"spectral gap {value}")
        res.values["spectral_gap"] = value

    for name, fn in (("sbm", sbm), ("labels", labels), ("consensus", consensus),
                     ("hk_sweep", hk_sweep), ("spectral_gap", gap)):
        with tr.span(f"api.{name}"):
            res.group(name, fn)
    with tr.span("probe.counts") as attrs:
        if "g8" in ctx:
            attrs.update(nodes=ctx["g8"].node_count, arcs=ctx["g8"].arc_count)
    return {"ops": res.ops, "values": res.values}


MODES = {"setup": run_setup, "api": run_api, "command": run_command}


def main(path):
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tr = Tracer(spec.get("run_id", 0)) if spec.get("spans") else NullTracer()
    result = MODES[spec["mode"]](spec, tr)
    if spec.get("spans"):
        tr.dump(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
