"""Command line interface.

Subcommands: simulate, energy, simplify, classify, homophily, sweep.
Exit codes: 0 success, 2 input error (bad files, bad config), 3 numeric
failure at runtime (blow-up, iteration caps, operator checks). The env var
ODYN_LOG (error|warn|info|debug) sets the log level. A command computes
first and creates `--out` only once that has succeeded (sweep, whose runs
write into it, once its config is read), so exit 2 or 3 leaves no `--out`.
The directory holds a manifest.json describing the run that produced it.
Runs are pure functions of their inputs and seed, so re-running a manifest
reproduces the output files byte for byte.
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
    """The JSON config object of a run; _check_config checks its values."""
    if path is None:
        return {}
    with Path(path).open("r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config JSON must be an object")
    return obj


def _check_config(cfg):
    """cfg, once every value is a string, a finite number or a boolean.

    `runs` is a list of objects whose values follow the same rule; sweep's
    `base` and `sweep` are checked in each run they fan out to.
    """
    runs = cfg.get("runs", [])
    if not isinstance(runs, list) or not all(isinstance(run, dict) for run in runs):
        raise ValueError("config key 'runs' must be a list of objects")
    values = [(key, v) for key, v in cfg.items() if key not in ("runs", "base", "sweep")]
    for i, run in enumerate(runs):
        values += [(f"runs[{i}].{key}", v) for key, v in run.items()]
    for key, value in values:
        if not isinstance(value, (str, int, float)):  # bool is an int
            got = {dict: "an object", list: "an array"}.get(type(value), "null")
            raise ValueError(f"config key {key!r} must be a string, number or boolean, not {got}")
        # Refuses NaN, +-inf and integers beyond the float range alike.
        if not isinstance(value, str) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"config key {key!r} must be a finite number, got {value!r}")
    return cfg


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


def _manifest(args, cfg):
    inputs = {key: str(val) for key in ("graph", "hypergraph", "labels", "config")
              if (val := getattr(args, key, None))}
    return {"command": args.command, "inputs": inputs, "config": cfg, "seed": args.seed,
            "out": str(Path(args.out)), "version": __version__}


def _publish(out, files):
    """Call `writer(out / name, *payload)` for each `{name: (writer, *payload)}`.

    The one place that creates `--out` or writes into it.
    """
    for name, (writer, *payload) in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path, *payload)


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


def _run_dynamic(spec, cfg, x0):
    """Shared driver: run the chosen dynamic from x0, return a trajectory."""
    energy_fn = _energy_fn(spec)
    if spec.is_discrete:
        steps = int(cfg.get("steps", 50))
        if "t_end" in cfg:
            steps = int(round(float(cfg["t_end"])))
        # The continuous kinds' step budget, checked the same way.
        limit = cfg.get("max_steps", IntegratorConfig.max_steps)
        budget = IntegratorConfig(max_steps=limit).max_steps
        if steps > budget:
            raise StepLimitExceeded(f"{steps} discrete steps exceed max_steps = {budget}")
        return iterate_map(spec.step_fn(), x0, steps, energy_fn=energy_fn)
    icfg = IntegratorConfig.from_json(cfg)
    return integrate(spec.rhs_fn(), x0, icfg, energy_fn=energy_fn)


# Each command computes from (args, cfg, graph, hypergraph) and returns the files
# it would write, {name: (writer, *payload)}, and its stdout text; `_run` publishes.


def cmd_simulate(args, cfg, graph, hypergraph):
    spec = DynamicSpec.from_json(cfg, structure=hypergraph if hypergraph is not None else graph)
    traj = _run_dynamic(spec, cfg, _initial_state(spec, cfg, args.seed))
    files = {"trajectory.csv": (write_trajectory_csv, traj),
             "final_state.csv": (write_state_csv, traj.final_state)}
    if traj.energies is not None:
        files["energy.csv"] = (write_energy_csv, traj.times, traj.energies, "t")
    log.info("simulate recorded %d states", len(traj))
    return files, str(Path(args.out))


def cmd_energy(args, cfg, graph, hypergraph):
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
    files, summary, outputs = {}, {}, []
    # One arm is built and run at a time, after every arm's input checks.
    for name, spec, merged, x0 in arms:
        series = EnergySeries.from_trajectory(_run_dynamic(spec, merged, x0))
        fname = f"energy_{name}.csv"
        column = "step" if spec.is_discrete else "t"
        files[fname] = (write_energy_csv, series.steps, series.energy, column)
        report = detect_oversmoothing(series)
        e0, e1 = float(series.energy[0]), float(series.energy[-1])
        summary[name] = {
            "oversmoothing": report.oversmoothing,
            "rate": report.rate,
            "energy_ratio": e1 / e0 if e0 > 0.0 else None,
            "file": fname,
        }
        outputs.append(fname)
    files["summary.json"] = (write_json, {"runs": summary, "outputs": outputs})
    return files, str(Path(args.out))


def cmd_simplify(args, cfg, graph, hypergraph):
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
    simplified, report = simplify_network(graph, simplify_cfg, seed=args.seed)
    log.info("simplify kept %d of %d edges", report.edges_after, report.edges_before)
    files = {"simplified.csv": (write_graph_csv, simplified),
             "report.json": (write_json, report.to_json())}
    return files, str(Path(args.out))


def cmd_classify(args, cfg, graph, hypergraph):
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
    result = propagate_labels(graph, labels, influence, icfg)
    predicted = NodeLabels(result.predictions, labels.class_count)
    files = {"predictions.csv": (write_labels_csv, predicted),
             "accuracy.json": (write_json, result.accuracy)}
    return files, json.dumps(result.accuracy, sort_keys=True)


def cmd_homophily(args, cfg, graph, hypergraph):
    if graph is None or not args.labels:
        raise ValueError("homophily needs --graph and --labels")
    labels = read_labels_csv(args.labels, node_count=graph.node_count)
    value = homophily_level(graph, labels)
    return {"homophily.json": (write_json, {"homophily": value})}, repr(value)


def _run(args):
    """Load the inputs once, compute, and only then publish `--out` (if given)."""
    cfg = _check_config(_merge_flags(_load_config(args.config), args))
    graph, hypergraph = _load_structure(args, cfg)
    files, text = args.compute(args, cfg, graph, hypergraph)
    if args.out:
        _publish(Path(args.out), {"manifest.json": (write_json, _manifest(args, cfg)), **files})
    print(text)
    return 0


def cmd_sweep(args):
    """Fan `simulate` out over one parameter.

    The runs write into `--out`, so it publishes the manifest and their
    configs before they run, and index.json after.
    """
    cfg = _check_config(_load_config(args.config))
    base, sweep = cfg.get("base", {}), cfg.get("sweep")
    if not (isinstance(base, dict) and isinstance(sweep, dict) and "param" in sweep
            and isinstance(sweep.get("values"), list)):
        raise ValueError("sweep config needs {'base': {...}, 'sweep': {'param':, 'values': [...]}}")
    param, values = str(sweep["param"]), sweep["values"]
    names = [f"run_{i:04d}" for i in range(len(values))]
    out = Path(args.out)
    configs = {f"{name}/config.json": (write_json, {**base, param: value})
               for name, value in zip(names, values)}
    _publish(out, {"manifest.json": (write_json, _manifest(args, cfg)), **configs})
    jobs = []
    for name in names:
        argv = ["simulate", "--config", str(out / name / "config.json"), "--seed", str(args.seed),
                "--out", str(out / name)]
        if args.graph:
            argv += ["--graph", str(args.graph)]
        if args.hypergraph:
            argv += ["--hypergraph", str(args.hypergraph)]
        jobs.append(argv)

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(main, jobs))
    else:
        codes = [main(argv) for argv in jobs]
    index = {
        "param": param,
        "runs": [{"dir": name, "value": value, "exit_code": code}
                 for name, value, code in zip(names, values, codes)],
    }
    _publish(out, {"index.json": (write_json, index)})
    print(str(out))
    return max(codes, default=0)


_FLAGS = {
    "--graph": {"help": "edge list CSV (src,dst,weight)"},
    "--hypergraph": {"help": "membership CSV (node,hyperedge,weight)"},
    "--labels": {"help": "label CSV (node,label)"},
    "--config": {"help": "flat JSON config for the run"},
    "--seed": {"type": int, "default": 0, "help": "RNG seed (default 0)"},
    "--scheme": {"choices": ["euler", "rk4", "dopri5"], "help": "integrator override"},
    "--t-end": {"dest": "t_end", "type": float, "help": "horizon override"},
    "--jobs": {"type": int, "default": 1, "help": "worker pool size"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="odyn",
        description="Opinion-dynamics engine: simulate, diagnose, simplify, classify.",
    )
    parser.add_argument("--version", action="version", version=f"odyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    overrides = ("--scheme", "--t-end")
    # Each subcommand registers only the flags it reads.
    specs = [
        ("simulate", cmd_simulate, "run a dynamic spec, write trajectory and energy CSVs",
         ("--hypergraph", *overrides)),
        ("energy", cmd_energy, "sweep step counts, write an energy series per config",
         ("--hypergraph", *overrides)),
        ("simplify", cmd_simplify, "re-score and prune edges through the influence function",
         overrides),
        ("classify", cmd_classify, "semi-supervised labels by anchored dynamics",
         ("--labels", *overrides)),
        ("homophily", cmd_homophily, "report the homophily level of a labeled graph",
         ("--labels",)),
        ("sweep", cmd_sweep, "fan out simulate runs over a parameter grid",
         ("--hypergraph", "--jobs")),
    ]
    for name, fn, help_text, flags in specs:
        p = sub.add_parser(name, help=help_text)
        for flag in ("--graph", "--config", "--seed", *flags):
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", required=name != "homophily", help="output directory")
        p.set_defaults(compute=fn)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return cmd_sweep(args) if args.command == "sweep" else _run(args)
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
