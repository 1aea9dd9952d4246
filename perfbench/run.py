"""odyn benchmark: one workload per call, closed loop, one odyn process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0 [--tiny]
    python3 perfbench/run.py --record-reference

Run from the root of an odyn checkout; odyn is imported from ./src. Inputs
are generated from --seed into .perfbench/<workload>-<size>/ (outputs are
removed when the run ends; the logs stay) and the timed loop then runs the
workload's commands as fresh processes (`python -m odyn.cli ...`, or one
fresh interpreter calling public odyn functions for api-dense) for about
--seconds. Every output is checked; a failed check counts as a failed
operation and does not stop the run. Once per run the tiny reference
instance is checked against values recorded in reference.json and one of
its commands is rerun to require byte-identical output.

--trace 0 reports the end-to-end metrics, medians over the loop's steps.
Each step runs a setup probe (fresh interpreter to ready-to-step: setup_s)
and then the workload once (wall_s, cpu_s, peak_rss_mb); success_rate is
1 - error_rate over every operation of the run. --trace 1 alternates
untraced iterations with traced ones, in which each command runs through
odyn.cli.main with the calls it makes wrapped in spans, and reports the
per-layer metrics. Human-readable lines (median, quartiles and sample
count of each metric) come first; the last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 60.0
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-6
# One BLAS thread: on a small shared machine a second thread mostly measures
# the neighbours. Always <= nproc.
BLAS_THREADS = 1

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class Child:
    """Outcome of one child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, argv, env, stdout_path, cpu=None):
        with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
            if cpu is not None:
                try:
                    os.sched_setaffinity(proc.pid, {cpu})
                except ProcessLookupError:
                    pass
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = Path(stdout_path).read_text(encoding="utf-8", errors="replace")
        self.stderr = Path(f"{stdout_path}.err").read_text(encoding="utf-8", errors="replace")


class Context:
    def __init__(self, work):
        self.work = work
        threads = str(BLAS_THREADS)
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ODYN_LOG")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        self.spawned = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = None
        self.steps = 0

    def next_cpu(self):
        """Pin the processes of the next loop step to the next CPU in turn.

        Each CPU of a shared host slows down on its own (a neighbour on the
        same physical core; on a 2-vCPU VM the two CPUs' speeds over a minute
        were uncorrelated), so a run whose steps alternate between them
        depends less on one neighbour. Still one process at a time.
        """
        self.cpu = self.cpus[self.steps % len(self.cpus)]
        self.steps += 1

    def spawn(self, argv, tag):
        self.spawned += 1
        return Child(argv, self.env, self.work / "logs" / f"{self.spawned:05d}-{tag}.txt", self.cpu)

    def probe(self, spec, tag):
        path = self.work / "logs" / f"{self.spawned + 1:05d}-{tag}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return self.spawn([sys.executable, str(HERE / "probe.py"), str(path)], tag)

    def run_command(self, cmd):
        """One untraced operation: the real CLI, or the api probe."""
        if cmd["command"] == "api":
            return self.probe({"mode": "api", "params": cmd["params"], "seed": cmd["seed"]}, "api")
        from workloads import cli_args

        return self.spawn([sys.executable, "-m", "odyn.cli", *cli_args(cmd)], cmd["command"])


def environment(ctx):
    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": ctx.env["OPENBLAS_NUM_THREADS"], "cpu": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level} {kind}"] = size
    return info


# -- operations and checks -----------------------------------------------------


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, error=None):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")

    def check(self, name, fn):
        from workloads import CheckFailed

        try:
            fn()
        except CheckFailed as exc:
            self.record(name, exc)
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed check
            self.record(name, f"{type(exc).__name__}: {exc}")
        else:
            self.record(name)


def probe_result(child):
    """The JSON a probe prints as its last line, or None."""
    try:
        return json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def check_operation(wl, cmd, child, inp, tally):
    """Count one command (or each api call group) as operations."""
    from workloads import require

    if cmd["command"] == "api":
        result = probe_result(child) if child.code == 0 else None
        if result is None:
            tally.record("api", f"exit {child.code}: {child.stderr.strip()[-300:]}")
            return None
        for op in result["ops"]:
            tally.record(f"api.{op['name']}", op.get("error"))
        return result["values"]

    def run():
        require(child.code == 0, f"exit {child.code}: {child.stderr.strip()[-300:]}")
        wl.check(cmd, inp)

    tally.check(cmd["command"], run)
    return None


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def untraced_iteration(ctx, wl, inp, seed, tally):
    out = fresh_dir(ctx.work / "out")
    sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "commands": {}}
    done = []
    for cmd in wl.commands(inp, out, seed):
        child = ctx.run_command(cmd)
        sample["wall_s"] += child.wall
        sample["cpu_s"] += child.cpu
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], child.rss_mb)
        sample["commands"][cmd["command"]] = sample["commands"].get(cmd["command"], 0.0) + child.wall
        done.append((cmd, child))
    for cmd, child in done:
        check_operation(wl, cmd, child, inp, tally)
    return sample


def setup_probe(ctx, wl, inp, seed, tally):
    """Seconds from spawning a fresh interpreter to ready-to-step, or None if it failed."""
    cmds = [c for c in wl.commands(inp, ctx.work / "out", seed) if c["command"] != "api"]
    spec = {"mode": "setup", "cmds": cmds, "t0": time.clock_gettime(time.CLOCK_MONOTONIC)}
    child = ctx.probe(spec, "setup")
    result = probe_result(child) if child.code == 0 else None
    tally.record("setup", None if result else f"exit {child.code}: {child.stderr.strip()[-300:]}")
    return result and result["ready_s"]


def generate(wl, work, seed, size):
    return wl.generate(fresh_dir(work), seed, wl.sizes[size])


# -- reference values ------------------------------------------------------------


def close(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, (bool, int, str)) or a is None:
        return a == b
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b), 1e-12)


def reference_values(ctx, wl, tally):
    """Run the tiny reference instance; return its values and the commands."""
    inp = generate(wl, ctx.work / "ref_in", REFERENCE_SEED, "tiny")
    out = fresh_dir(ctx.work / "ref_out")
    values, cmds = [], wl.commands(inp, out, REFERENCE_SEED)
    for cmd in cmds:
        child = ctx.run_command(cmd)
        api = check_operation(wl, cmd, child, inp, tally)
        if cmd["command"] == "api":
            values.append(api)
        elif child.code == 0:
            try:
                values.append(wl.reference(cmd, inp))
            except (OSError, ValueError, KeyError) as exc:
                values.append(f"unreadable: {exc}")
        else:
            values.append(None)
    return values, cmds


def files(path):
    return {p.name: p.read_bytes() for p in path.iterdir() if p.is_file()}


def reference_check(ctx, wl, tally):
    """Recorded values within REFERENCE_RTOL, and one byte-identical rerun."""
    recorded = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[wl.name]
    values, cmds = reference_values(ctx, wl, tally)
    for cmd, got, want in zip(cmds, values, recorded):
        tally.record(f"reference.{cmd['command']}",
                     None if close(got, want) else f"got {got}, recorded {want}")
    cmd = cmds[0]
    if cmd["command"] == "api":
        child = ctx.run_command(cmd)
        again = probe_result(child) if child.code == 0 else None
        same = again is not None and again["values"] == values[0]
    else:
        out = Path(cmd["out"])
        first = files(out)
        fresh_dir(out)
        child = ctx.run_command(cmd)
        same = child.code == 0 and bool(first) and first == files(out)
    error = f"rerun exit {child.code}" if child.code else "output changed between identical runs"
    tally.record(f"rerun.{cmd['command']}", None if same else error)


def record_reference(ctx):
    from workloads import WORKLOADS

    data = {}
    for name, wl in WORKLOADS.items():
        tally = Tally()
        data[name], _ = reference_values(ctx, wl, tally)
        if tally.failures:
            raise SystemExit(f"{name}: {tally.failures}")
    (HERE / "reference.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {HERE / 'reference.json'}")


# -- the closed loop -------------------------------------------------------------


def closed_loop(seconds, step, minimum):
    """Call step() until the next call would overrun `seconds`, at least `minimum` times."""
    start = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(took) >= minimum and elapsed + statistics.median(took) > seconds:
            return len(took)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(ctx, wl, inp, seed, seconds, tally):
    """End-to-end metrics: the timed closed loop, each step a setup probe and one workload run."""
    setup, loop = [], []

    def step():
        ctx.next_cpu()
        setup.append(setup_probe(ctx, wl, inp, seed, tally))
        loop.append(untraced_iteration(ctx, wl, inp, seed, tally))

    closed_loop(seconds, step, MIN_ITERATIONS)
    samples = {key: [s[key] for s in loop] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [s for s in setup if s is not None] or [0.0]
    reference_check(ctx, wl, tally)
    samples["success_rate"] = [1.0 - len(tally.failures) / tally.attempted]
    return samples


def traced_iteration(ctx, wl, inp, seed, run_id, tally):
    """Each command run by probe.py inside spans; None if one failed."""
    out = fresh_dir(ctx.work / "traced")
    procs = []
    for i, cmd in enumerate(wl.commands(inp, out, seed)):
        path = ctx.work / "logs" / f"spans-{run_id}-{i}.json"
        if cmd["command"] == "api":
            spec = {"mode": "api", "params": cmd["params"], "seed": seed}
        else:
            spec = {"mode": "command", "cmd": cmd}
        spec.update(spans=str(path), run_id=run_id)
        child = ctx.probe(spec, f"traced-{cmd['command']}")
        if child.code != 0:
            tally.record(f"traced.{cmd['command']}", f"exit {child.code}: {child.stderr.strip()[-300:]}")
            return None
        procs.append({"wall": child.wall, "spans": json.loads(path.read_text(encoding="utf-8"))})
    return procs


def trace_metrics(ctx, wl, inp, seed, seconds, tally):
    """Alternate untraced and traced iterations; per-layer {metric: (values, unit)}."""
    from layers import EXACT_COUNTS, PER_LAYER, accounting, layer_values

    untraced, traced = [], []

    def pair():
        ctx.next_cpu()
        untraced.append(untraced_iteration(ctx, wl, inp, seed, tally))
        procs = traced_iteration(ctx, wl, inp, seed, len(traced), tally)
        if procs is not None:
            traced.append(layer_values(procs))

    closed_loop(seconds, pair, MIN_ITERATIONS)
    reference_check(ctx, wl, tally)
    if not traced:
        return {k: ([0.0], unit) for k, unit in PER_LAYER.items()}
    for key in EXACT_COUNTS:
        seen = sorted({m[key] for m, *_ in traced})
        tally.record(f"trace.counts.{key}", None if len(seen) == 1 else f"differs across traced runs: {seen}")
    out = {k: ([m[k] for m, *_ in traced], unit) for k, unit in PER_LAYER.items()}
    for command in ("simulate", "classify", "simplify", "energy"):
        out[f"cli.{command}_s"] = ([s["commands"].get(command, 0.0) for s in untraced], "s")
    base = statistics.median(s["wall_s"] for s in untraced)
    cost = statistics.median(wall - probe for _, _, wall, probe in traced)
    out["trace.overhead_frac"] = ([(cost - base) / base], "ratio")
    _, layer_self, wall, _ = traced[0]
    print(accounting(wl.name, layer_self, wall))
    return out


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="odyn benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (harness self-test)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the tiny reference instances")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "odyn" / "__init__.py").is_file():
        print(f"error: no odyn sources under {ROOT / 'src'}; run from an odyn checkout", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")

    base = ROOT / ".perfbench"
    warm = Context(fresh_dir(base / "warm"))
    fresh_dir(warm.work / "logs")
    warm.spawn([sys.executable, "-c", "import odyn"], "warm")
    if args.record_reference:
        record_reference(warm)
        return 0

    size = "tiny" if args.tiny else "full"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    report, attempted, failures = {}, 0, []
    env = None
    for name in names:
        wl = WORKLOADS[name]
        ctx = Context(fresh_dir(base / f"{name}-{size}"))
        fresh_dir(ctx.work / "logs")
        env = env or environment(ctx)
        inp = generate(wl, ctx.work / "in", args.seed, size)
        tally = Tally()
        if args.trace:
            metrics = trace_metrics(ctx, wl, inp, args.seed, args.seconds, tally)
        else:
            metrics = {k: (v, END_TO_END[k]) for k, v in measure(ctx, wl, inp, args.seed, args.seconds, tally).items()}
        for key, (values, unit) in metrics.items():
            q1, med, q3 = quartiles(values)
            print(f"{name:15s} {key:34s} {med:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
            report[key if len(names) == 1 else f"{name}.{key}"] = {"value": med, "unit": unit}
        print(f"{name:15s} {'error_rate':34s} {len(tally.failures) / tally.attempted:14.6g} ratio  "
              f"failed {len(tally.failures)} of {tally.attempted} operations")
        for failure in tally.failures:
            print(f"{name:15s} FAILED {failure}")
        attempted += tally.attempted
        failures += tally.failures
        for big in ("in", "out", "traced", "ref_in", "ref_out"):
            shutil.rmtree(ctx.work / big, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
