"""Command line interface.

Subcommands: simulate, energy, simplify, classify, homophily, sweep.
Exit codes: 0 success, 2 input error (bad files, bad config), 3 numeric
failure at runtime (blow-up, iteration caps, operator checks). The env var
ODYN_LOG (error|warn|info|debug) sets the log level. Every output directory
receives a manifest.json describing the run that produced it; runs are pure
functions of their inputs and seed, so re-running a manifest reproduces the
output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    EnergySeries,
    detect_oversmoothing,
    dirichlet_energy_graph,
    dirichlet_energy_hypergraph,
)
from .dynamics import DynamicSpec
from .errors import (
    CsvFormatError,
    KernelNotNormalized,
    NoConvergence,
    NonFiniteState,
    NotRowStochastic,
    NotSPD,
    OdynError,
    OutOfRangeSimilarity,
    StepLimitExceeded,
    ZeroDegree,
)
from .graphs import NodeLabels, homophily_level, split_masks
from .influence import InfluenceConfig
from .integrators import IntegratorConfig, integrate, iterate_map
from .io import (
    read_graph_csv,
    read_hypergraph_csv,
    read_labels_csv,
    read_state_csv,
    write_energy_csv,
    write_graph_csv,
    write_json,
    write_labels_csv,
    write_state_csv,
    write_trajectory_csv,
)
from .pipeline import (
    SimplifyConfig,
    propagate_labels,
    pseudo_features,
    simplify_network,
)

log = logging.getLogger("odyn")

NUMERIC_ERRORS = (
    NonFiniteState,
    StepLimitExceeded,
    NoConvergence,
    NotRowStochastic,
    KernelNotNormalized,
    NotSPD,
    ZeroDegree,
    OutOfRangeSimilarity,
)

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging():
    name = os.environ.get("ODYN_LOG", "warn").strip().lower()
    logging.basicConfig(
        level=LOG_LEVELS.get(name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_config(path):
    if path is None:
        return {}
    with Path(path).open("r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config JSON must be an object")
    return obj


def _merge_flags(cfg, args):
    """Apply flag overrides on top of the config file (flags win)."""
    cfg = dict(cfg)
    if getattr(args, "scheme", None):
        cfg["scheme"] = args.scheme
    if getattr(args, "t_end", None) is not None:
        cfg["t_end"] = args.t_end
    return cfg


def _load_structure(args, cfg):
    graph = hypergraph = None
    if args.graph:
        graph = read_graph_csv(args.graph, directed=bool(cfg.get("directed", False)))
    if getattr(args, "hypergraph", None):
        hypergraph = read_hypergraph_csv(args.hypergraph)
    return graph, hypergraph


def _write_manifest(out, command, args, cfg):
    inputs = {}
    for key in ("graph", "hypergraph", "labels", "config"):
        val = getattr(args, key, None)
        if val:
            inputs[key] = str(val)
    write_json(
        out / "manifest.json",
        {
            "command": command,
            "inputs": inputs,
            "config": cfg,
            "seed": args.seed,
            "out": str(out),
            "version": __version__,
        },
    )


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _initial_state(spec, cfg, seed):
    """Initial state of a run, checked against the node count it runs on."""
    if spec.structure is not None:
        node_count = spec.structure.node_count
    else:
        node_count = int(cfg.get("node_count", 0))
        if node_count < 1:
            raise ValueError("kind 'hk' without a graph needs config key node_count")
    kind = cfg.get("init", "unit")
    dim = int(cfg.get("dim", 20 if kind == "unit" else 1))
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if kind == "unit":
        x = pseudo_features(node_count, dim, seed)
    elif kind == "uniform":
        x = np.random.default_rng(seed).random(node_count)
    elif kind == "zeros":
        x = np.zeros((node_count, dim))
    elif kind == "csv":
        x = read_state_csv(cfg["state_csv"])
    else:
        raise ValueError(f"unknown init kind {kind!r}")
    if x.shape[0] != node_count:
        raise ValueError(f"initial state has {x.shape[0]} rows for {node_count} nodes")
    return x


def _energy_fn(spec):
    g = spec.structure
    if g is None:
        return None
    if spec.kind.startswith("hypergraph"):
        return lambda x: dirichlet_energy_hypergraph(g, x)
    return lambda x: dirichlet_energy_graph(g, x)


def _run_dynamic(spec, cfg, x0, post_step=None):
    """Shared driver: run the chosen dynamic from x0, return a trajectory."""
    energy_fn = _energy_fn(spec)
    if spec.is_discrete:
        steps = int(cfg.get("steps", 50))
        if "t_end" in cfg:
            steps = int(round(float(cfg["t_end"])))
        return iterate_map(spec.step_fn(), x0, steps, energy_fn=energy_fn, post_step=post_step)
    icfg = IntegratorConfig.from_json(cfg)
    return integrate(spec.rhs_fn(), x0, icfg, energy_fn=energy_fn, post_step=post_step)


def cmd_simulate(args):
    cfg = _merge_flags(_load_config(args.config), args)
    graph, hypergraph = _load_structure(args, cfg)
    spec = DynamicSpec.from_json(cfg, structure=hypergraph if hypergraph is not None else graph)
    x0 = _initial_state(spec, cfg, args.seed)
    out = _out_dir(args)
    _write_manifest(out, "simulate", args, cfg)
    traj = _run_dynamic(spec, cfg, x0)
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_state_csv(out / "final_state.csv", traj.final_state)
    if traj.energies is not None:
        write_energy_csv(out / "energy.csv", traj.times, traj.energies, column="t")
    log.info("simulate wrote %d states to %s", len(traj), out)
    print(str(out))
    return 0


def cmd_energy(args):
    cfg = _merge_flags(_load_config(args.config), args)
    graph, hypergraph = _load_structure(args, cfg)
    structure = hypergraph if hypergraph is not None else graph
    if structure is None:
        raise ValueError("energy needs --graph or --hypergraph")
    runs = cfg.get("runs")
    if runs is None:
        runs = [dict(cfg, name=cfg.get("name", "run"))]
    arms = []
    for i, run_cfg in enumerate(runs):
        merged = {k: v for k, v in cfg.items() if k != "runs"}
        merged.update(run_cfg)
        spec = DynamicSpec.from_json(merged, structure=structure)
        arms.append((str(merged.get("name", f"run{i}")), spec, merged,
                     _initial_state(spec, merged, args.seed)))
    out = _out_dir(args)
    _write_manifest(out, "energy", args, cfg)
    summary = {}
    outputs = []
    for name, spec, merged, x0 in arms:
        traj = _run_dynamic(spec, merged, x0)
        series = EnergySeries.from_trajectory(traj)
        fname = f"energy_{name}.csv"
        column = "step" if spec.is_discrete else "t"
        write_energy_csv(out / fname, series.steps, series.energy, column=column)
        report = detect_oversmoothing(series)
        e0, e1 = float(series.energy[0]), float(series.energy[-1])
        summary[name] = {
            "oversmoothing": report.oversmoothing,
            "rate": report.rate,
            "energy_ratio": e1 / e0 if e0 > 0.0 else None,
            "file": fname,
        }
        outputs.append(fname)
    write_json(out / "summary.json", {"runs": summary, "outputs": outputs})
    print(str(out))
    return 0


def cmd_simplify(args):
    cfg = _merge_flags(_load_config(args.config), args)
    graph, _ = _load_structure(args, cfg)
    if graph is None:
        raise ValueError("simplify needs --graph")
    influence = InfluenceConfig.from_json(cfg) if "eps1" in cfg else InfluenceConfig(0.0, 1.0)
    simplify_cfg = SimplifyConfig(
        influence=influence,
        integrator=IntegratorConfig.from_json({"t_end": 6.0, **cfg}),
        weight_cutoff=float(cfg.get("cutoff", 0.05)),
        drop_isolated=bool(cfg.get("drop_isolated", True)),
        source=str(cfg.get("source", "dynamic-final")),
        feature_dim=int(cfg.get("dim", 20)),
    )
    out = _out_dir(args)
    _write_manifest(out, "simplify", args, cfg)
    simplified, report = simplify_network(graph, simplify_cfg, seed=args.seed)
    write_graph_csv(out / "simplified.csv", simplified)
    write_json(out / "report.json", report.to_json())
    log.info("simplify kept %d of %d edges", report.edges_after, report.edges_before)
    print(str(out))
    return 0


def cmd_classify(args):
    cfg = _merge_flags(_load_config(args.config), args)
    graph, _ = _load_structure(args, cfg)
    if graph is None or not args.labels:
        raise ValueError("classify needs --graph and --labels")
    labels = read_labels_csv(args.labels, node_count=graph.node_count)
    labels = split_masks(
        labels,
        train_frac=float(cfg.get("train_frac", 1 / 3)),
        val_frac=float(cfg.get("val_frac", 1 / 3)),
        seed=args.seed,
    )
    influence = InfluenceConfig.from_json(cfg)
    icfg = IntegratorConfig.from_json(cfg)
    out = _out_dir(args)
    _write_manifest(out, "classify", args, cfg)
    result = propagate_labels(graph, labels, influence, icfg)
    predicted = NodeLabels(result.predictions, labels.class_count)
    write_labels_csv(out / "predictions.csv", predicted)
    write_json(out / "accuracy.json", result.accuracy)
    print(json.dumps(result.accuracy, sort_keys=True))
    return 0


def cmd_homophily(args):
    cfg = _merge_flags(_load_config(args.config), args)
    graph, _ = _load_structure(args, cfg)
    if graph is None or not args.labels:
        raise ValueError("homophily needs --graph and --labels")
    labels = read_labels_csv(args.labels, node_count=graph.node_count)
    value = homophily_level(graph, labels)
    if args.out:
        out = _out_dir(args)
        _write_manifest(out, "homophily", args, cfg)
        write_json(out / "homophily.json", {"homophily": value})
    print(repr(value))
    return 0


def _sweep_worker(payload):
    """Run one sweep member in a worker process."""
    (argv, run_dir) = payload
    code = main(argv)
    return str(run_dir), code


def cmd_sweep(args):
    cfg = _load_config(args.config)
    base = dict(cfg.get("base", {}))
    sweep = cfg.get("sweep")
    if not sweep or "param" not in sweep or "values" not in sweep:
        raise ValueError("sweep config needs {'base': ..., 'sweep': {'param':, 'values':}}")
    param, values = str(sweep["param"]), list(sweep["values"])
    out = _out_dir(args)
    _write_manifest(out, "sweep", args, cfg)
    jobs = []
    for i, value in enumerate(values):
        run_cfg = dict(base)
        run_cfg[param] = value
        run_dir = out / f"run_{i:04d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir / "config.json"
        write_json(cfg_path, run_cfg)
        argv = ["simulate", "--config", str(cfg_path), "--seed", str(args.seed),
                "--out", str(run_dir)]
        if args.graph:
            argv += ["--graph", str(args.graph)]
        if args.hypergraph:
            argv += ["--hypergraph", str(args.hypergraph)]
        jobs.append((argv, run_dir))

    results = []
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]
    index = {
        "param": param,
        "runs": [
            {"dir": Path(d).name, "value": values[i], "exit_code": code}
            for i, (d, code) in enumerate(results)
        ],
    }
    write_json(out / "index.json", index)
    worst = max((code for _, code in results), default=0)
    print(str(out))
    return worst


def _add_common(p, *, out_required=True):
    p.add_argument("--graph", help="edge list CSV (src,dst,weight)")
    p.add_argument("--hypergraph", help="membership CSV (node,hyperedge,weight)")
    p.add_argument("--labels", help="label CSV (node,label)")
    p.add_argument("--config", help="flat JSON config for the run")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=out_required, help="output directory")
    p.add_argument("--scheme", choices=["euler", "rk4", "dopri5"], help="integrator override")
    p.add_argument("--t-end", dest="t_end", type=float, help="horizon override")
    p.add_argument("--jobs", type=int, default=1, help="worker pool size (sweep)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="odyn",
        description="Opinion-dynamics engine: simulate, diagnose, simplify, classify.",
    )
    parser.add_argument("--version", action="version", version=f"odyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate", cmd_simulate, "run a dynamic spec, write trajectory and energy CSVs", True),
        ("energy", cmd_energy, "sweep step counts, write an energy series per config", True),
        ("simplify", cmd_simplify, "re-score and prune edges through the influence function", True),
        ("classify", cmd_classify, "semi-supervised labels by anchored dynamics", True),
        ("homophily", cmd_homophily, "report the homophily level of a labeled graph", False),
        ("sweep", cmd_sweep, "fan out simulate runs over a parameter grid", True),
    ]
    for name, fn, help_text, out_required in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, out_required=out_required)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    # MemoryError: an input such as node index 10**12 implies arrays that cannot
    # fit; numpy's message names the size.
    except (OdynError, OSError, ValueError, KeyError, json.JSONDecodeError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
