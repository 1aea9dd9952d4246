"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS/FAIL line with the measured numbers
(run pytest with -s to see them on success) and then asserts. Budgets
and tolerances are pinned; seeds are frozen so the numbers are stable.
"""

import contextlib
import io
import shutil
import time
from dataclasses import replace

import numpy as np

from conftest import cooccurrence_fixture, random_row_stochastic
from odyn import (
    DynamicSpec,
    EnergySeries,
    Hypergraph,
    InfluenceConfig,
    IntegratorConfig,
    SimplifyConfig,
    cluster_count,
    consensus_predict,
    detect_oversmoothing,
    dirichlet_energy_graph,
    fd_step,
    generate_sbm,
    hk_step,
    influence_preset,
    integrate,
    iterate_map,
    make_hypergraph_diffusion_rhs,
    planted_two_block_fixture,
    propagate_labels,
    simplify_network,
    spectral_gap,
    split_masks,
    write_json,
)
from odyn.cli import main as cli_main


def report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def log_linear_r2(ks, logs):
    design = np.column_stack([ks, np.ones_like(ks)])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = logs - design @ coef
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    return coef[0], 1.0 - float(np.sum(resid**2)) / ss_tot


def test_criterion_1_consensus_prediction():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_r2 = 1.0
    for seed in range(50):
        g = random_row_stochastic(seed, n_max=20, lazy=0.5)
        x0 = np.random.default_rng(seed).uniform(0.0, 1.0, g.node_count)
        predicted = consensus_predict(g, x0)
        traj = iterate_map(lambda x: fd_step(g, x), x0, 800)
        gaps = np.array([float(np.max(np.abs(s - predicted))) for s in traj.states])
        worst_gap = max(worst_gap, gaps[-1])
        window = (gaps < 0.5 * gaps[0]) & (gaps > 1e-11)
        ks = np.flatnonzero(window).astype(np.float64)
        slope, r2 = log_linear_r2(ks, np.log(gaps[window]))
        assert slope < 0.0
        worst_r2 = min(worst_r2, r2)
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-8 and worst_r2 > 0.99 and elapsed < 10.0
    report(1, "averaging consensus prediction", ok,
           f"max sup gap {worst_gap:.2e} < 1e-8, min R2 {worst_r2:.4f} > 0.99, "
           f"{elapsed:.1f}s < 10s")


def test_criterion_2_bounded_confidence_clusters():
    t0 = time.perf_counter()
    counts = {}
    for radius in (0.5, 0.05):
        x = np.random.default_rng(2).uniform(0.0, 1.0, 100)
        for _ in range(200):
            x = hk_step(x, radius)
        counts[radius] = cluster_count(x, 1e-3)
    elapsed = time.perf_counter() - t0
    ok = counts[0.5] == 1 and counts[0.05] >= 3 and elapsed < 1.0
    report(2, "bounded confidence fragmentation", ok,
           f"radius 0.5 -> {counts[0.5]} cluster(s), radius 0.05 -> "
           f"{counts[0.05]} >= 3, {elapsed:.2f}s < 1s")


def test_criterion_3_oversmoothing_vs_cutoffs():
    t0 = time.perf_counter()
    g, _ = generate_sbm([50, 50], p_in=0.12, p_out=0.01, seed=2)
    x0 = np.random.default_rng(2).standard_normal((100, 4)) * 1e-10

    def run(influence):
        spec = DynamicSpec(kind="odnet-discrete", structure=g, influence=influence)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = iterate_map(spec.step_fn(), x0, 50,
                               energy_fn=lambda x: dirichlet_energy_graph(g, x))
        return traj

    diffusion = run(InfluenceConfig(0.0, 1.0))
    ratio_d = diffusion.energies[-1] / diffusion.energies[0]
    verdict = detect_oversmoothing(EnergySeries.from_trajectory(diffusion))

    texas = run(influence_preset("texas", lam=0.1))
    ratio_t = texas.energies[-1] / texas.energies[0]

    elapsed = time.perf_counter() - t0
    ok = (verdict.oversmoothing and ratio_d < 1e-6
          and np.isfinite(ratio_t) and ratio_t > 1e-3 and elapsed < 30.0)
    report(3, "energy collapse only without cutoffs", ok,
           f"plain diffusion ratio {ratio_d:.2e} < 1e-6 flagged={verdict.oversmoothing}, "
           f"piecewise-influence ratio {ratio_t:.2e} > 1e-3, {elapsed:.1f}s < 30s")


def test_criterion_4_integrator_orders():
    t0 = time.perf_counter()
    rhs = lambda x: -x
    exact = float(np.exp(-1.0))

    def endpoint_error(scheme, h):
        cfg = IntegratorConfig(scheme=scheme, h=h, t_end=1.0)
        return abs(float(integrate(rhs, np.array([1.0]), cfg).final_state[0]) - exact)

    hs = np.array([0.2, 0.1, 0.05, 0.025])
    orders = {}
    for scheme in ("euler", "rk4"):
        errs = np.array([endpoint_error(scheme, h) for h in hs])
        slope, _ = log_linear_r2(np.log(hs), np.log(errs))
        orders[scheme] = slope

    cfg = IntegratorConfig(scheme="dopri5", rtol=1e-6, atol=1e-12, t_end=1.0)
    adaptive_err = abs(float(integrate(rhs, np.array([1.0]), cfg).final_state[0]) - exact)

    elapsed = time.perf_counter() - t0
    ok = (abs(orders["euler"] - 1.0) < 0.3 and abs(orders["rk4"] - 4.0) < 0.3
          and adaptive_err < 10.0 * cfg.rtol and elapsed < 1.0)
    report(4, "integrator convergence orders", ok,
           f"euler order {orders['euler']:.3f} in 1+-0.3, rk4 order "
           f"{orders['rk4']:.3f} in 4+-0.3, adaptive endpoint error "
           f"{adaptive_err:.2e} < 1e-5, {elapsed:.2f}s < 1s")


def circulant_hypergraph(seed):
    """Vertex-transitive hypergraph: one hyperedge per node, shifted offsets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 25))
    extra = rng.choice(np.arange(2, max(3, n // 2)),
                       size=int(rng.integers(0, 3)), replace=False)
    offsets = np.unique(np.concatenate([[0, 1], extra]))
    memberships = [((e + o) % n, e, 1.0) for e in range(n) for o in offsets]
    return Hypergraph(n, memberships)


def test_criterion_5_hypergraph_decay_rate():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for seed in range(10):
        h = circulant_hypergraph(seed)
        gap = spectral_gap(h, kernel="uniform")
        t_end = 24.0 / gap
        cfg = IntegratorConfig(scheme="rk4", h=min(t_end / 600.0, 1.0),
                               t_end=t_end, max_steps=10_000_000)
        x0 = np.random.default_rng(seed).standard_normal((h.node_count, 2))
        traj = integrate(make_hypergraph_diffusion_rhs(h, kernel="uniform"), x0, cfg)
        dists = np.array([float(np.linalg.norm(s - s.mean(axis=0))) for s in traj.states])
        tail = traj.times > 2.0 * t_end / 3.0
        slope, _ = log_linear_r2(traj.times[tail], np.log(dists[tail]))
        worst_rel = max(worst_rel, abs(-slope - gap) / gap)
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 0.05 and elapsed < 10.0
    report(5, "hypergraph diffusion decay matches spectral gap", ok,
           f"max relative rate error {worst_rel:.2e} < 0.05 over 10 structures, "
           f"{elapsed:.1f}s < 10s")


def test_criterion_6_simplification():
    t0 = time.perf_counter()
    g, labels = planted_two_block_fixture()
    cfg = SimplifyConfig(
        influence=InfluenceConfig(eps1=0.05, eps2=0.9, mu=1.4),
        integrator=IntegratorConfig(scheme="dopri5", t_end=6.0),
        weight_cutoff=0.7,
    )
    simplified, _ = simplify_network(g, cfg, seed=0)

    def block_split(graph):
        src, dst, _ = graph.undirected_pairs()
        same = labels.labels[src] == labels.labels[dst]
        return int(np.count_nonzero(same)), int(np.count_nonzero(~same))

    intra_before, inter_before = block_split(g)
    intra_after, inter_after = block_split(simplified)
    intra_removed = (intra_before - intra_after) / intra_before

    fixture = cooccurrence_fixture()
    _, fixture_report = simplify_network(
        fixture,
        SimplifyConfig(influence=InfluenceConfig(0.0, 1.0), weight_cutoff=0.0, source="static"),
        seed=0,
    )

    elapsed = time.perf_counter() - t0
    ok = (inter_after == 0 and intra_removed < 0.10
          and fixture_report.nodes_before == 96
          and fixture_report.edges_before == 2517 and elapsed < 5.0)
    report(6, "influence-guided simplification", ok,
           f"cross-block edges {inter_before} -> {inter_after} (all severed), "
           f"in-block removed {100 * intra_removed:.1f}% < 10%, fixture reads "
           f"{fixture_report.nodes_before} nodes / {fixture_report.edges_before} "
           f"edges, {elapsed:.1f}s < 5s")


def test_criterion_7_classification():
    t0 = time.perf_counter()
    g, labels = generate_sbm([50, 50], p_in=0.20, p_out=0.02, seed=0)
    labels = split_masks(labels, train_frac=0.1, val_frac=0.0, seed=0)
    attract = propagate_labels(
        g, labels, InfluenceConfig(0.012, 0.40, mu=1.4),
        IntegratorConfig(scheme="rk4", h=0.25, t_end=5.0),
    )
    homophilic_acc = attract.accuracy["test"]

    diffs = []
    repulse_cfg = InfluenceConfig(0.5, 0.8, mu=1.0, nu=-0.5, lam=0.1)
    icfg = IntegratorConfig(scheme="rk4", h=0.1, t_end=3.0)
    for i in range(10):
        g_het, y = generate_sbm([50, 50], p_in=0.02, p_out=0.20, seed=100 + i)
        y = split_masks(y, train_frac=0.1, val_frac=0.0, seed=100 + i)
        with_repulsion = propagate_labels(g_het, y, repulse_cfg, icfg)
        without = propagate_labels(g_het, y, replace(repulse_cfg, nu=0.0), icfg)
        diffs.append(with_repulsion.accuracy["test"] - without.accuracy["test"])
    mean_gain = float(np.mean(diffs))

    elapsed = time.perf_counter() - t0
    ok = homophilic_acc >= 0.80 and mean_gain >= 0.05 and elapsed < 60.0
    report(7, "semi-supervised classification", ok,
           f"homophilic accuracy {homophilic_acc:.3f} >= 0.80, repulsion gain "
           f"{100 * mean_gain:.1f} points >= 5 over 10 seeds, {elapsed:.1f}s < 60s")


def test_criterion_8_deterministic_reruns(tmp_path):
    t0 = time.perf_counter()
    rows = ["src,dst,weight"]
    rng = np.random.default_rng(8)
    for i in range(12):
        for j in range(i + 1, 12):
            if rng.random() < 0.4:
                rows.append(f"{i},{j},{rng.random():.6f}")
    graph_csv = tmp_path / "graph.csv"
    graph_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")

    labels_csv = tmp_path / "labels.csv"
    labels_csv.write_text("node,label\n" + "".join(f"{i},{i % 2}\n" for i in range(12)),
                          encoding="utf-8")

    checked = []
    simulate = {"kind": "odnet-continuous", "eps1": 0.0, "eps2": 1.0,
                "scheme": "dopri5", "t_end": 2.0, "init": "unit", "dim": 3}
    # Every command that writes --out, each with the extra flags it needs.
    commands = {
        "simulate": (simulate, []),
        "simplify": ({"eps1": 0.05, "eps2": 0.9, "mu": 1.4, "cutoff": 0.3,
                      "scheme": "dopri5", "t_end": 2.0}, []),
        "energy": (dict(simulate, runs=[{"name": "a"}, {"name": "b", "eps2": 0.5}]), []),
        "classify": ({"eps1": 0.0, "eps2": 1.0, "scheme": "rk4", "t_end": 2.0},
                     ["--labels", str(labels_csv)]),
        "sweep": ({"base": simulate, "sweep": {"param": "eps2", "values": [0.5, 1.0]}}, []),
    }
    for command, (cfg, extra) in commands.items():
        cfg_path = tmp_path / f"{command}.json"
        write_json(cfg_path, cfg)
        out = tmp_path / command
        argv = [command, "--graph", str(graph_csv), *extra, "--config", str(cfg_path),
                "--seed", "5", "--out", str(out)]
        trees = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(argv) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        first, second = trees
        assert first
        assert sorted(second) == sorted(first), f"{command} wrote other files on rerun"
        for name, data in first.items():
            same = second[name] == data
            checked.append(same)
            assert same, f"{command}/{name} changed between identical runs"

    elapsed = time.perf_counter() - t0
    ok = all(checked) and len(checked) >= 6 and elapsed < 10.0
    report(8, "byte-identical reruns", ok,
           f"{len(checked)} output files byte-stable across reruns of "
           f"{len(commands)} commands, {elapsed:.1f}s < 10s")
