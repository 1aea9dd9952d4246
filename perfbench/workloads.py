"""The two workloads: their inputs, their commands and their output checks.

cli-mix runs every CLI command once per iteration, as three parts:
simulate-write (simulate with the trajectory writer on a 2k-node graph),
energy-hyper (energy arms on a 2k-node hypergraph and graph) and
pipeline-20k (classify then simplify on a 20k-node graph). api-dense calls
public odyn functions in one fresh interpreter.

Each workload is a single-client closed loop: one odyn process at a time,
each command starting after the previous one exits. `sizes` holds the
full-size parameters and a tiny set that runs in a few seconds (harness
self-test). Checks raise CheckFailed; the runner counts that as a failed
operation and carries on.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import gen


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def data_lines(path):
    """Number of lines in a text file (header included)."""
    return Path(path).read_bytes().count(b"\n")


def require_finite_text(path):
    data = Path(path).read_bytes()
    require(b"nan" not in data and b"inf" not in data, f"{Path(path).name} holds a non-finite value")
    return data


def cli_args(cmd):
    """Arguments of `odyn` for one command (everything after the program name)."""
    args = [cmd["command"]]
    for key in ("graph", "hypergraph", "labels", "config"):
        if cmd.get(key):
            args += [f"--{key}", cmd[key]]
    return args + ["--seed", str(cmd["seed"]), "--out", cmd["out"]]


def require_files(out, names):
    for name in names:
        require((out / name).is_file(), f"missing output {name}")


# -- simulate-write -------------------------------------------------------------


class SimulateWrite:
    name = "simulate-write"
    sizes = {
        "full": {"blocks": [1000, 1000], "p_in": 0.008, "p_out": 0.0008, "dim": 8, "t_end": 1.0},
        "tiny": {"blocks": [40, 40], "p_in": 0.15, "p_out": 0.02, "dim": 3, "t_end": 2.0},
    }
    # dopri5 runs at rtol 1e-6 on unit-norm rows (the seed's error is ~2e-9);
    # 1e-6 leaves room for any summation order.
    FINAL_ATOL = 1e-6

    def generate(self, d, seed, p):
        edges = gen.sbm_graph(d / "graph.csv", p["blocks"], p["p_in"], p["p_out"], seed)
        cfg = {"kind": "odnet-continuous", "eps1": 0.0, "eps2": 1.0, "similarity": "static",
               "scheme": "dopri5", "t_end": p["t_end"], "init": "unit", "dim": p["dim"]}
        return {"graph": str(d / "graph.csv"), "config": write_config(d / "simulate.json", cfg),
                "nodes": sum(p["blocks"]), "edges": edges, "dim": p["dim"], "t_end": p["t_end"]}

    def commands(self, inp, out, seed):
        return [{"command": "simulate", "graph": inp["graph"], "config": inp["config"],
                 "seed": seed, "out": str(out / "simulate")}]

    def check(self, cmd, inp):
        """Row counts, finiteness, and the final state against exp(-L T) x0.

        With eps1 = 0 and eps2 = 1 the influence is the static similarity
        itself, so the dynamics are linear, x' = -L x with L the Laplacian of
        the normalized adjacency, and expm_multiply gives the exact answer.
        """
        from scipy.sparse import coo_matrix, diags
        from scipy.sparse.linalg import expm_multiply

        out = Path(cmd["out"])
        require_files(out, ["manifest.json", "trajectory.csv", "final_state.csv", "energy.csv"])
        n, dim = inp["nodes"], inp["dim"]
        states = data_lines(out / "energy.csv") - 1
        require_finite_text(out / "energy.csv")
        traj = require_finite_text(out / "trajectory.csv")
        rows = traj.count(b"\n") - 1
        require(rows == states * n * dim, f"trajectory has {rows} rows, expected {states} x {n} x {dim}")
        first = traj.split(b"\n", n * dim + 1)[1 : n * dim + 1]
        x0 = np.array([float(r.rsplit(b",", 1)[1]) for r in first]).reshape(n, dim)
        final = np.loadtxt(out / "final_state.csv", delimiter=",", ndmin=2)
        require(final.shape == (n, dim) and np.all(np.isfinite(final)), "final state shape")
        e = np.loadtxt(inp["graph"], delimiter=",", skiprows=1, ndmin=2)
        i, j, w = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
        a = coo_matrix((np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
                       shape=(n, n)).tocsr()
        deg = np.asarray(a.sum(axis=1)).ravel()
        s = diags(1.0 / np.sqrt(deg)) @ a @ diags(1.0 / np.sqrt(deg))
        lap = diags(np.asarray(s.sum(axis=1)).ravel()) - s
        exact = expm_multiply(-inp["t_end"] * lap.tocsc(), x0)
        err = float(np.max(np.abs(final - exact)))
        require(err <= self.FINAL_ATOL, f"final state off exp(-LT) x0 by {err:.2e}")

    def reference(self, cmd, inp):
        out = Path(cmd["out"])
        final = np.loadtxt(out / "final_state.csv", delimiter=",", ndmin=2)
        energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
        return {"states": int(energy.shape[0]), "final_sum": float(final.sum()),
                "final_sumsq": float((final**2).sum()), "energy_last": float(energy[-1, 1])}


# -- pipeline-20k ------------------------------------------------------------------


class Pipeline20k:
    name = "pipeline-20k"
    sizes = {
        "full": {"blocks": [5000] * 4, "p_in": 0.0016, "p_out": 0.0001, "t_end": 0.1, "dim": 8,
                 "min_test_accuracy": 0.85},
        "tiny": {"blocks": [30] * 4, "p_in": 0.25, "p_out": 0.01, "t_end": 0.5, "dim": 4,
                 "min_test_accuracy": 0.5},
    }

    def generate(self, d, seed, p):
        edges = gen.sbm_graph(d / "graph.csv", p["blocks"], p["p_in"], p["p_out"], seed,
                              labels_path=d / "labels.csv")
        classify = {"eps1": 0.0, "eps2": 1.0, "scheme": "dopri5", "t_end": p["t_end"]}
        simplify = {"eps1": 0.05, "eps2": 0.9, "mu": 1.4, "cutoff": 0.3, "scheme": "dopri5",
                    "t_end": p["t_end"], "dim": p["dim"]}
        return {"graph": str(d / "graph.csv"), "labels": str(d / "labels.csv"),
                "classify": write_config(d / "classify.json", classify),
                "simplify": write_config(d / "simplify.json", simplify),
                "nodes": sum(p["blocks"]), "edges": edges,
                "min_test_accuracy": p["min_test_accuracy"]}

    def commands(self, inp, out, seed):
        return [
            {"command": "classify", "graph": inp["graph"], "labels": inp["labels"],
             "config": inp["classify"], "seed": seed, "out": str(out / "classify")},
            {"command": "simplify", "graph": inp["graph"], "config": inp["simplify"],
             "seed": seed, "out": str(out / "simplify")},
        ]

    def check(self, cmd, inp):
        out = Path(cmd["out"])
        n = inp["nodes"]
        if cmd["command"] == "classify":
            require_files(out, ["manifest.json", "predictions.csv", "accuracy.json"])
            require(data_lines(out / "predictions.csv") == n + 1, "predictions row count")
            acc = json.loads((out / "accuracy.json").read_text())
            require(acc.get("train") == 1.0, f"train accuracy {acc.get('train')} != 1")
            require(acc.get("test", 0.0) >= inp["min_test_accuracy"], f"test accuracy {acc.get('test')}")
        else:
            require_files(out, ["manifest.json", "simplified.csv", "report.json"])
            rep = json.loads((out / "report.json").read_text())
            require(rep["nodes_before"] == n and rep["edges_before"] == inp["edges"], f"report {rep}")
            require(0 < rep["edges_after"] <= rep["edges_before"], f"edges_after {rep['edges_after']}")
            require(0 < rep["nodes_after"] <= n, f"nodes_after {rep['nodes_after']}")
            require_finite_text(out / "simplified.csv")
            require(data_lines(out / "simplified.csv") == rep["edges_after"] + 1, "simplified row count")

    def reference(self, cmd, inp):
        out = Path(cmd["out"])
        name = "accuracy.json" if cmd["command"] == "classify" else "report.json"
        return json.loads((out / name).read_text())


# -- energy-hyper ------------------------------------------------------------------


class EnergyHyper:
    name = "energy-hyper"
    sizes = {
        "full": {"nodes": 2000, "hyperedges": 1000, "mean_size": 6, "dim": 8,
                 "graph_blocks": [1000, 1000], "p_in": 0.008, "p_out": 0.0008,
                 "h": 0.05, "t_hyper": 0.5, "t_graph": 0.5},
        "tiny": {"nodes": 60, "hyperedges": 30, "mean_size": 4, "dim": 3,
                 "graph_blocks": [40, 40], "p_in": 0.15, "p_out": 0.02,
                 "h": 0.05, "t_hyper": 1.0, "t_graph": 0.5},
    }

    def generate(self, d, seed, p):
        gen.block_hypergraph(d / "hyper.csv", p["nodes"], p["hyperedges"], p["mean_size"], seed)
        gen.sbm_graph(d / "graph.csv", p["graph_blocks"], p["p_in"], p["p_out"], seed)
        unit = {"init": "unit", "dim": p["dim"], "eps1": 0.0, "eps2": 1.0}
        hyper = {"scheme": "rk4", "h": p["h"], "t_end": p["t_hyper"], "runs": [
            dict(unit, name="static-hyper", kind="hypergraph-odnet", similarity="static"),
            dict(unit, name="dynamic-hyper", kind="hypergraph-odnet", similarity="dynamic"),
            {"name": "diffusion", "kind": "hypergraph-diffusion", "kernel": "uniform",
             "init": "unit", "dim": p["dim"]},
        ]}
        graph = {"scheme": "rk4", "h": p["h"], "t_end": p["t_graph"], "runs": [
            dict(unit, name="dynamic-graph", kind="odnet-continuous", similarity="dynamic")]}
        return {"hypergraph": str(d / "hyper.csv"), "graph": str(d / "graph.csv"),
                "hyper_config": write_config(d / "energy_hyper.json", hyper),
                "graph_config": write_config(d / "energy_graph.json", graph),
                "samples": {"hyper": round(p["t_hyper"] / p["h"]) + 1,
                            "graph": round(p["t_graph"] / p["h"]) + 1}}

    def commands(self, inp, out, seed):
        return [
            {"command": "energy", "hypergraph": inp["hypergraph"], "config": inp["hyper_config"],
             "seed": seed, "out": str(out / "energy_hyper"), "arms": "hyper"},
            {"command": "energy", "graph": inp["graph"], "config": inp["graph_config"],
             "seed": seed, "out": str(out / "energy_graph"), "arms": "graph"},
        ]

    def check(self, cmd, inp):
        """Every arm is present, its series is complete and finite, and it decays."""
        out = Path(cmd["out"])
        require_files(out, ["manifest.json", "summary.json"])
        summary = json.loads((out / "summary.json").read_text())
        arms = [r["name"] for r in json.loads(Path(cmd["config"]).read_text())["runs"]]
        require(sorted(summary["runs"]) == sorted(arms), f"summary arms {sorted(summary['runs'])}")
        for name in arms:
            run = summary["runs"][name]
            ratio = run["energy_ratio"]
            require(ratio is not None and 0.0 < ratio < 1.0, f"arm {name} energy ratio {ratio}")
            require(np.isfinite(run["rate"]), f"arm {name} rate {run['rate']}")
            require_finite_text(out / run["file"])
            rows = data_lines(out / run["file"]) - 1
            require(rows == inp["samples"][cmd["arms"]], f"arm {name} has {rows} energy samples")

    def reference(self, cmd, inp):
        summary = json.loads((Path(cmd["out"]) / "summary.json").read_text())
        return {name: {"energy_ratio": r["energy_ratio"], "rate": r["rate"]}
                for name, r in summary["runs"].items()}


# -- api-dense -------------------------------------------------------------------------


class ApiDense:
    """Public functions in one fresh interpreter; the probe checks its own results."""

    name = "api-dense"
    sizes = {
        "full": {"sbm_sizes": [4000, 4000], "sbm_p_in": 0.002, "sbm_p_out": 0.0002,
                 "graph_sizes": [1000, 1000], "graph_p_in": 0.008, "graph_p_out": 0.0008,
                 "hk_agents": 2000, "hk_radii": [0.05, 0.1, 0.2], "hk_steps": 5,
                 "gap_nodes": 500, "gap_degree": 3, "gap_edge_size": 5},
        "tiny": {"sbm_sizes": [100, 100], "sbm_p_in": 0.1, "sbm_p_out": 0.01,
                 "graph_sizes": [30, 30], "graph_p_in": 0.2, "graph_p_out": 0.02,
                 "hk_agents": 100, "hk_radii": [0.05, 0.1, 0.2], "hk_steps": 5,
                 "gap_nodes": 50, "gap_degree": 3, "gap_edge_size": 5},
    }

    def generate(self, d, seed, p):
        return {"params": p}

    def commands(self, inp, out, seed):
        return [{"command": "api", "params": inp["params"], "seed": seed, "out": str(out / "api")}]


# -- cli-mix ---------------------------------------------------------------------------


CLI_PARTS = {p.name: p for p in (SimulateWrite(), EnergyHyper(), Pipeline20k())}


class CliMix:
    """The three CLI parts one after another; each command is checked by its part."""

    name = "cli-mix"
    parts = CLI_PARTS
    sizes = {size: {name: p.sizes[size] for name, p in CLI_PARTS.items()} for size in ("full", "tiny")}

    def generate(self, d, seed, p):
        inputs = {}
        for name, part in self.parts.items():
            (d / name).mkdir()
            inputs[name] = part.generate(d / name, seed, p[name])
        return inputs

    def commands(self, inp, out, seed):
        return [dict(cmd, part=name) for name, part in self.parts.items()
                for cmd in part.commands(inp[name], out / name, seed)]

    def check(self, cmd, inp):
        self.parts[cmd["part"]].check(cmd, inp[cmd["part"]])

    def reference(self, cmd, inp):
        return self.parts[cmd["part"]].reference(cmd, inp[cmd["part"]])


WORKLOADS = {w.name: w for w in (CliMix(), ApiDense())}
