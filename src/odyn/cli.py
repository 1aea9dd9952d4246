"""Command line interface.

Subcommands: simulate, energy, simplify, classify, homophily, sweep.
Exit codes: 0 success, 2 input error (bad files, bad config), 3 numeric failure at
runtime (a NumericFailure: blow-up, step caps, operator checks). The env var ODYN_LOG
(error|warn|info|debug) sets the log level. A command computes first and creates `--out`
only once that has succeeded, so exit 2 or 3 leaves no `--out`. sweep, whose runs write
into it, creates it once every run is checked; each run is then simulate's, in this
process or a --jobs worker, on the structure the checks read for its `directed` value.
The directory holds a manifest.json describing the run that produced it. simulate and
each energy arm use the --graph or --hypergraph their kind runs on (odyn.dynamics); an
all-to-all kind takes the first given, if any. Runs are pure functions of their inputs
and seed, so re-running a manifest reproduces the output files byte for byte.
"""

from __future__ import annotations

import argparse
import difflib
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from ._state import boolean, config_fields, config_keys, integer, number, string
from .diagnostics import (
    EnergySeries,
    detect_oversmoothing,
    dirichlet_energy_graph,
    dirichlet_energy_hypergraph,
)
from .dynamics import DynamicSpec
from .errors import NumericFailure, OdynError, StepLimitExceeded
from .graphs import Hypergraph, NodeLabels, WeightedGraph, homophily_level, split_masks
from .influence import InfluenceConfig, SimilaritySpec
from .integrators import SCHEMES, IntegratorConfig, integrate, iterate_map
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
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"config {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"config {path}: JSON must be an object")
    return obj


def _arms(value, key):
    """energy's runs: a non-empty list of objects."""
    if not isinstance(value, list) or not all(isinstance(run, dict) for run in value):
        raise ValueError("config key 'runs' must be a list of objects")
    if not value:
        raise ValueError("config key 'runs' must list at least one arm")
    return value


# Each init kind's x0, from (node_count, dim, seed, cfg).
_INITS = {"unit": lambda n, dim, seed, cfg: pseudo_features(n, dim, seed),
          "uniform": lambda n, dim, seed, cfg: np.random.default_rng(seed).random((n, dim)),
          "zeros": lambda n, dim, seed, cfg: np.zeros((n, dim)),
          "csv": lambda n, dim, seed, cfg: read_state_csv(cfg["state_csv"])}


def _init(value, key):
    """init: a kind in _INITS."""
    if string(value, key) not in _INITS:
        raise ValueError(f"unknown init kind {value!r}; expected one of {tuple(_INITS)}")
    return value


def _sweep_part(value, key):
    """sweep's base (an object) or sweep (an object with a non-empty list of values)."""
    if not isinstance(value, dict) or key == "sweep" and not (
            isinstance(value.get("values"), list) and value["values"]):
        raise ValueError("sweep config needs {'base': {...}, 'sweep': {'param':, 'values': [...]}}"
                         " with at least one value")
    return value


# Each command's config keys and their readers; the dataclasses give their fields' keys.
_SHARED = {**config_keys(InfluenceConfig), **config_keys(IntegratorConfig),
           "directed": boolean}
_RUN = {**_SHARED, **config_keys(DynamicSpec), **config_keys(SimilaritySpec),
        "node_count": integer, "init": _init, "dim": integer, "state_csv": string,
        "steps": lambda value, key: integer(value, key, minimum=0)}
KEYS = {"simulate": _RUN, "energy": {**_RUN, "runs": _arms, "name": string},
        "simplify": {**_SHARED, **config_keys(SimplifyConfig)},
        "classify": {**_SHARED, "train_frac": number, "val_frac": number},
        "homophily": {"directed": boolean}, "sweep": {"base": _sweep_part, "sweep": _sweep_part}}
_KNOWN = sorted(set().union(*KEYS.values()))


def _check_config(cfg, command):
    """cfg, once each key in it and in each energy arm passes its reader in KEYS[command],
    and each arm's name passes _arm_names; a key only other commands read is ignored
    with a warning, any other is refused."""
    keys = KEYS[command]
    _check_keys(cfg, keys, command)
    for i, arm in enumerate(cfg.get("runs", []) if "runs" in keys else []):
        if own := [key for key in ("directed", "runs") if key in arm]:
            name = string(arm.get("name", cfg.get("name", f"run{i}")), "name")
            raise ValueError(f"energy arm {i} ({name!r}) sets {own[0]!r}: set it at the top level")
        _check_keys(arm, keys, command)
    if command == "energy":
        _arm_names(cfg)
    return cfg


def _check_keys(obj, keys, command):
    """Pass each key of obj to its reader in keys; warn of a key only other commands read,
    refuse any other."""
    for key, value in obj.items():
        if key in keys:
            keys[key](value, key)
        elif key in _KNOWN:
            log.warning("config key %r is not read by %s; ignored", key, command)
        else:
            raise ValueError(f"unknown config key {key!r}{_closest(key, _KNOWN)}")


def _arm_names(cfg):
    """energy's arm names, with no runs one arm that is the whole config.

    A name becomes the file stem of energy_<name>.csv inside --out."""
    names = []
    for i, run in enumerate(cfg.get("runs", [{}])):
        name = run.get("name", cfg.get("name", f"run{i}" if "runs" in cfg else "run"))
        if name in ("", ".", "..") or any(c in name for c in ("/", os.sep, "\0")):
            raise ValueError(f"energy arm {i} name {name!r} must be a plain file stem: "
                             "not empty, '.' or '..', and no path separator or NUL")
        if name in names:
            raise ValueError(f"energy arm {i} repeats the name {name!r}")
        names.append(name)
    return names


def _closest(key, known):
    """'; did you mean ...?' naming the known key closest to `key`, or ''."""
    close = difflib.get_close_matches(key, known, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _merge_flags(cfg, args):
    """Apply flag overrides on top of the config file (flags win)."""
    flags = {key: getattr(args, key, None) for key in ("scheme", "t_end")}
    return {**cfg, **{key: value for key, value in flags.items() if value is not None}}


def _read_graph(args, cfg):
    """--graph read with cfg's `directed` (checked by _check_config), or None."""
    return read_graph_csv(args.graph, directed=cfg.get("directed", False)) if args.graph else None


def _read_hypergraph(args):
    """--hypergraph, or None."""
    return read_hypergraph_csv(args.hypergraph) if getattr(args, "hypergraph", None) else None


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


def _prepare(cfg, graph, hypergraph, seed, own=None):
    """A run's spec, given its structure and checked; its x0; and its steps or IntegratorConfig.

    An all-to-all kind keeps the first structure given, if any, for its size.
    `own` is the keys the run set itself, if not all of cfg (an energy arm)."""
    spec = DynamicSpec.from_json(cfg)
    runs_on = spec._runs_on or (WeightedGraph, Hypergraph)
    spec.structure = next((s for s in (graph, hypergraph) if isinstance(s, runs_on)), None)
    spec._check()
    if spec.structure is not None:
        node_count = spec.structure.node_count
    elif "node_count" in cfg:
        node_count = integer(cfg["node_count"], "node_count")
    else:
        raise ValueError(f"kind {spec.kind!r} without a graph needs config key node_count")
    init = cfg.get("init", "unit")  # a kind in _INITS: _check_config read it
    dim = integer(cfg.get("dim", 20 if init == "unit" else 1), "dim")
    if init == "csv" and "state_csv" not in cfg:
        raise ValueError("missing config key 'state_csv'")
    x = _INITS[init](node_count, dim, seed, cfg)
    if x.shape[0] != node_count:
        raise ValueError(f"initial state has {x.shape[0]} rows for {node_count} nodes")
    if not spec.is_discrete:
        return spec, x, IntegratorConfig.from_json(cfg)
    own = cfg if own is None else own
    steps = integer(cfg.get("steps", 50), "steps", minimum=0)
    # A discrete t_end counts steps; it beats steps, unless only the steps are the run's own.
    if "t_end" in own or ("t_end" in cfg and "steps" not in own):
        steps = integer(cfg["t_end"], "t_end", minimum=0)
    # A bad integrator key is refused in any run; here t_end counts steps and max_steps caps them.
    budget = IntegratorConfig.from_json({k: v for k, v in cfg.items() if k != "t_end"}).max_steps
    if steps > budget:
        raise StepLimitExceeded(f"{steps} discrete steps exceed max_steps = {budget}")
    return spec, x, steps


def _energy_fn(g):
    """The Dirichlet energy on g, picked by its type; None without a structure."""
    energy = dirichlet_energy_hypergraph if isinstance(g, Hypergraph) else dirichlet_energy_graph
    return None if g is None else lambda x: energy(g, x)


def _run_dynamic(spec, x0, length):
    """Shared driver: run the chosen dynamic from x0 for the length _prepare gave."""
    energy_fn = _energy_fn(spec.structure)
    if spec.is_discrete:
        return iterate_map(spec.step_fn(), x0, length, energy_fn=energy_fn)
    return integrate(spec.rhs_fn(), x0, length, energy_fn=energy_fn)


# Each command computes from (args, cfg, graph, hypergraph) and returns the files
# it would write, {name: (writer, *payload)}, and its stdout text; `_finish` publishes.


def cmd_simulate(args, cfg, graph, hypergraph):
    traj = _run_dynamic(*_prepare(cfg, graph, hypergraph, args.seed))
    files = {"trajectory.csv": (write_trajectory_csv, traj),
             "final_state.csv": (write_state_csv, traj.final_state)}
    if traj.energies is not None:
        files["energy.csv"] = (write_energy_csv, traj.times, traj.energies, "t")
    log.info("simulate recorded %d states", len(traj))
    return files, str(Path(args.out))


def cmd_energy(args, cfg, graph, hypergraph):
    if graph is None and hypergraph is None:
        raise ValueError("energy needs --graph or --hypergraph")
    arms = []
    for name, run_cfg in zip(_arm_names(cfg), cfg.get("runs", [{}])):
        merged = {k: v for k, v in {**cfg, **run_cfg}.items() if k != "runs"}
        arms.append((name, *_prepare(merged, graph, hypergraph, args.seed, own=run_cfg)))
    files, summary, outputs = {}, {}, []
    # One arm is built and run at a time, after every arm's input checks.
    for name, spec, x0, length in arms:
        series = EnergySeries.from_trajectory(_run_dynamic(spec, x0, length))
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
    given = [key for key in config_keys(InfluenceConfig) if key != "eps1" and key in cfg]
    if given and "eps1" not in cfg:
        raise ValueError(f"simplify reads {', '.join(given)} only with eps1: give eps1 too")
    influence = InfluenceConfig.from_json(cfg) if "eps1" in cfg else InfluenceConfig(0.0, 1.0)
    # SimplifyConfig's integrator default (its own t_end) under the config's keys.
    base = SimplifyConfig(influence)
    simplify_cfg = replace(
        base, integrator=replace(base.integrator, **config_fields(IntegratorConfig, cfg)),
        **config_fields(SimplifyConfig, cfg))
    simplified, report = simplify_network(graph, simplify_cfg, seed=args.seed)
    log.info("simplify kept %d of %d edges", report.edges_after, report.edges_before)
    files = {"simplified.csv": (write_graph_csv, simplified),
             "report.json": (write_json, report.to_json())}
    return files, str(Path(args.out))


def cmd_classify(args, cfg, graph, hypergraph):
    labels = read_labels_csv(args.labels, node_count=graph.node_count)
    fracs = {key: number(cfg[key], key) for key in ("train_frac", "val_frac") if key in cfg}
    labels = split_masks(labels, seed=args.seed, **fracs)
    influence = InfluenceConfig.from_json(cfg)
    icfg = IntegratorConfig.from_json(cfg)
    result = propagate_labels(graph, labels, influence, icfg)
    predicted = NodeLabels(result.predictions, labels.class_count)
    files = {"predictions.csv": (write_labels_csv, predicted),
             "accuracy.json": (write_json, result.accuracy)}
    return files, json.dumps(result.accuracy, sort_keys=True)


def cmd_homophily(args, cfg, graph, hypergraph):
    labels = read_labels_csv(args.labels, node_count=graph.node_count)
    value = homophily_level(graph, labels)
    return {"homophily.json": (write_json, {"homophily": value})}, repr(value)


def _run(args):
    """Load the inputs once, then compute and publish (_finish)."""
    cfg = _check_config(_merge_flags(_load_config(args.config), args), args.command)
    return _finish(args, cfg, _read_graph(args, cfg), _read_hypergraph(args))


def _finish(args, cfg, graph, hypergraph):
    """Compute, and only then publish `--out` (if given) and print."""
    files, text = args.compute(args, cfg, graph, hypergraph)
    if args.out:
        _publish(Path(args.out), {"manifest.json": (write_json, _manifest(args, cfg)), **files})
    sys.stdout.write(f"{text}\n")  # one write, so lines from --jobs workers stay whole
    return 0


def _exit_code(fn, *inputs):
    """fn(*inputs), or 3 for a NumericFailure and 2 for an input error, named on stderr."""
    try:
        return fn(*inputs)
    except NumericFailure as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    # MemoryError: an input such as node index 10**12 implies arrays that cannot
    # fit; numpy's message names the size.
    except (OdynError, OSError, ValueError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


def _sweep_run(job):
    """The exit code of one sweep run, job = (args, cfg, graph, hypergraph)."""
    return _exit_code(_finish, *job)


def cmd_sweep(args):
    """Fan `simulate` out over one parameter.

    Every run is checked as simulate checks it, on --graph read once per `directed` value
    and --hypergraph read once, before `--out` is created with the manifest and the runs'
    configs. Each run is then simulate's _finish on its structures, here or in a worker;
    index.json last.
    """
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _check_config(_load_config(args.config), "sweep")
    base, sweep = cfg.get("base", {}), _sweep_part(cfg.get("sweep"), "sweep")
    param, values = string(sweep.get("param"), "param"), sweep["values"]
    if param in _KNOWN and param not in _RUN:  # simulate's keys; every run would be the same
        readers = ", ".join(command for command, keys in KEYS.items() if param in keys)
        raise ValueError(f"sweep param {param!r} is read by {readers}, not simulate"
                         f"{_closest(param, _RUN)}")
    _check_config({**base, param: values[0]}, "simulate")  # its warnings once
    structures, runs = {}, []  # by `directed`, which the graph is read with; one hypergraph
    for value in values:
        _RUN[param](value, param)
        run = {**base, param: value}
        if (directed := run.get("directed", False)) not in structures:
            structures[directed] = (_read_graph(args, run),
                                    runs[0][-1] if runs else _read_hypergraph(args))
        _prepare(run, *structures[directed], args.seed)  # its x0 is dropped; each run makes its own
        runs.append((run, *structures[directed]))
    out, names = Path(args.out), [f"run_{i:04d}" for i in range(len(values))]
    configs = {f"{name}/config.json": (write_json, run) for name, (run, *_) in zip(names, runs)}
    _publish(out, {"manifest.json": (write_json, _manifest(args, cfg)), **configs})
    jobs = [(argparse.Namespace(**{**vars(args), "command": "simulate", "compute": cmd_simulate,
             "config": str(out / name / "config.json"), "out": str(out / name)}), *run)
            for name, run in zip(names, runs)]
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_sweep_run, jobs))
    else:
        codes = [_sweep_run(job) for job in jobs]
    index = {"param": param, "runs": [{"dir": name, "value": value, "exit_code": code}
                                      for name, value, code in zip(names, values, codes)]}
    _publish(out, {"index.json": (write_json, index)})
    print(str(out))
    return max(codes, default=0)


_FLAGS = {
    "--graph": {"help": "edge list CSV (src,dst,weight)"},
    "--hypergraph": {"help": "membership CSV (node,hyperedge,weight)"},
    "--labels": {"help": "label CSV (node,label)"},
    "--config": {"help": "flat JSON config for the run"},
    "--seed": {"type": int, "default": 0, "help": "RNG seed (default 0)"},
    "--scheme": {"choices": SCHEMES, "help": "integrator override"},
    "--t-end": {"dest": "t_end", "type": float, "help": "horizon override"},
    "--jobs": {"type": int, "default": 1, "help": "worker processes, capped at runs and CPUs"},
    "--out": {"help": "output directory"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="odyn",
        description="Opinion-dynamics engine: simulate, diagnose, simplify, classify.",
    )
    parser.add_argument("--version", action="version", version=f"odyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    overrides = ("--scheme", "--t-end")
    # Each subcommand registers only the flags it reads, and requires those it cannot run without.
    specs = [
        ("simulate", cmd_simulate, "run a dynamic spec, write trajectory and energy CSVs",
         ("--hypergraph", *overrides), ("--out",)),
        ("energy", cmd_energy, "sweep step counts, write an energy series per config",
         ("--hypergraph", *overrides), ("--out",)),
        ("simplify", cmd_simplify, "re-score and prune edges through the influence function",
         overrides, ("--graph", "--out")),
        ("classify", cmd_classify, "semi-supervised labels by anchored dynamics",
         ("--labels", *overrides), ("--graph", "--labels", "--out")),
        ("homophily", cmd_homophily, "report the homophily level of a labeled graph",
         ("--labels",), ("--graph", "--labels")),
        ("sweep", cmd_sweep, "fan out simulate runs over a parameter grid",
         ("--hypergraph", "--jobs"), ("--out",)),
    ]
    for name, fn, help_text, flags, required in specs:
        p = sub.add_parser(name, help=help_text)
        for flag in ("--graph", "--config", "--seed", *flags, "--out"):
            p.add_argument(flag, required=flag in required, **_FLAGS[flag])
        p.set_defaults(compute=fn)
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    return _exit_code(cmd_sweep if args.command == "sweep" else _run, args)


if __name__ == "__main__":
    sys.exit(main())
