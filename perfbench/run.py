"""Benchmark of the modelfollow package.

    python3 perfbench/run.py --workload paper_run --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root.  One workload runs as one closed-loop client
in this process: it repeats its operation until --seconds have passed (at
least twice; the first operation is a warm-up and is gated but not timed),
checks every operation's outputs, and prints a summary and, as the last
line, one JSON object with the metrics BENCHMARK.json lists: its
end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.
``--workload all`` runs every workload in turn, each in its own process.
A record of each run (inputs, samples, machine) is written to
perfbench/out/.  NOTES.md describes the workloads and metrics.
"""

import os

# pin BLAS to one thread before numpy is imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7  # timed fresh interpreters per run, after one warm-up
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from modelfollow.cli_io import parse_config; "
              "parse_config(open(sys.argv[2], encoding='utf-8').read())")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def summary(values):
    """Median and quartiles; p90 only when ten samples lie beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(text, workdir):
    """Wall time of fresh interpreters that import modelfollow and parse ``text``."""
    path = workdir / "setup.ini"
    path.write_text(text, encoding="utf-8")
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(path)]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def reference_loop(steps=4000):
    """Wall time of a fixed numpy RK4 loop on a 3-state system.

    It shares no code with modelfollow, so its time tracks only the speed
    the (shared, drifting) CPU gives this process at that moment.
    """
    import numpy as np
    A = np.array([[0.0, 1.0, 0.0], [0.0, -5.0, 10.0], [0.0, -1.0, -5.0]])
    B = np.array([[0.0], [0.0], [1.0]])
    u = np.array([1.0])
    x = np.zeros(3)
    h = 1e-3
    t0 = time.perf_counter()
    for _ in range(steps):
        k1 = A @ x + B @ u
        k2 = A @ (x + 0.5 * h * k1) + B @ u
        k3 = A @ (x + 0.5 * h * k2) + B @ u
        k4 = A @ (x + h * k3) + B @ u
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return time.perf_counter() - t0


def log_peak_alloc_mb(config):
    from modelfollow import control_loop
    tracemalloc.start()
    try:
        control_loop.run_episode(config.model, config.reference, config.learning,
                                 horizon=config.horizon)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_ops(wl, seconds, tracer):
    """Repeat the workload's operation for ``seconds``; gate every one.

    The reference loop runs before the first step and after every step, and
    each step's wall time is divided by the mean loop time around it.
    """
    from workloads import PremiseError
    episode = tracer.get("control_loop.run_episode")
    samples = {"op_s": [], "op_ref": [], "ref_s": [], "episode_s": []}
    attempted = failed = 0
    traced_wall = 0.0
    deadline = time.perf_counter() + seconds
    ref_before = reference_loop()
    while attempted < 2 or time.perf_counter() < deadline:
        ep_calls, ep_total = episode.calls, episode.total
        results, parts = [], {}
        op_s = op_ref = 0.0
        try:
            for step in wl.STEPS:
                t0 = time.perf_counter()
                results.append(getattr(wl, step)())
                parts[f"{step}_s"] = time.perf_counter() - t0
                ref_after = reference_loop()
                op_s += parts[f"{step}_s"]
                op_ref += parts[f"{step}_s"] / (0.5 * (ref_before + ref_after))
                ref_before = ref_after
                samples["ref_s"].append(ref_after)
            failures = wl.check(results)
        except PremiseError:
            raise
        except Exception:
            traceback.print_exc()
            op_s, failures = None, ["operation raised"]
        attempted += 1
        if failures:
            failed += 1
            print(f"{wl.name}: operation {attempted} failed: {'; '.join(failures)}",
                  file=sys.stderr)
        if op_s is None:
            continue
        traced_wall += op_s
        if attempted > 1:
            samples["op_s"].append(op_s)
            samples["op_ref"].append(op_ref)
            if len(parts) > 1:
                for name, value in parts.items():
                    samples.setdefault(name, []).append(value)
            if episode.calls > ep_calls:
                samples["episode_s"].append(
                    (episode.total - ep_total) / (episode.calls - ep_calls))
    return samples, attempted, failed, traced_wall


def layer_metrics(wl, tracer, samples, attempted, traced_wall):
    from tracer import TRACED
    units = attempted * wl.units_per_op
    out = {}
    for name in TRACED:
        st = tracer.get(name)
        out[f"{name}.calls"] = st.calls / units
        out[f"{name}.self_pct"] = 100.0 * st.self / traced_wall
    calls = {n: tracer.get(f"learner.{n}").calls
             for n in ("bellman_regressor", "critic_update", "actor_update")}
    out["learner.policy_from_kernel.errors"] = (
        tracer.get("learner.policy_from_kernel").errors / units)
    out["learner.active_frac"] = (calls["critic_update"] / calls["bellman_regressor"]
                                  if calls["bellman_regressor"] else 0.0)
    out["learner.actor_accept_frac"] = (calls["actor_update"] / calls["critic_update"]
                                        if calls["critic_update"] else 0.0)
    out["learner.gain_gap_closed"] = wl.quality.get("gain_gap_closed", 0.0)
    out["control_loop.tail_abs_e_mf"] = wl.quality.get("tail_abs_e_mf", 0.0)
    out["cli_io.artifact_bytes"] = wl.quality.get("artifact_bytes", 0)
    out["control_loop.log_peak_alloc_mb"] = (
        log_peak_alloc_mb(wl.episode_cfg) if wl.episode_cfg is not None else 0.0)
    out["trace.s_per_unit"] = statistics.median(samples["op_s"]) / wl.units_per_op
    return out


def run_workload(args, spec):
    if not (SRC / "modelfollow" / "__init__.py").is_file():
        print(f"perfbench: no modelfollow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import modelfollow
    if Path(modelfollow.__file__).resolve().parent != SRC / "modelfollow":
        print(f"perfbench: imported modelfollow from {modelfollow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, TRACED, installed
    from workloads import WORKLOADS, PremiseError

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, str(workdir))
        setup = [] if args.trace else measure_setup(wl.setup_text, workdir)
        tracer = Tracer()
        # untraced runs wrap only run_episode: two clock reads per episode
        names = TRACED if args.trace else ("control_loop.run_episode",)
        with installed(tracer, names):
            samples, attempted, failed, traced_wall = run_ops(wl, args.seconds, tracer)
    except PremiseError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stats = {k: summary(v) for k, v in samples.items() if v}
    if setup:
        stats["setup_s"] = summary(setup)
    if args.trace:
        values = layer_metrics(wl, tracer, samples, attempted, traced_wall)
        wanted = spec["per_layer"]
    else:
        values = {"op_ref": stats["op_ref"]["median"],
                  "setup_s": stats["setup_s"]["median"],
                  "peak_rss_mb": peak_rss_mb,
                  "ok_frac": 1.0 - failed / attempted}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"{wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.4g})")
    for name, st in stats.items():
        if wl.name == "oracle_sweep" and name == "op_s":
            name = "op_s = sweep_s"
        unit = "x" if name == "op_ref" else "s"
        quart = f", q1 {st['q1']:.4f}, q3 {st['q3']:.4f}" if "q1" in st else ""
        print(f"  {name:<16} {st['median']:.4f} {unit}   median of {st['n']}{quart}")
    if not args.trace:
        print(f"  {'peak_rss_mb':<16} {peak_rss_mb:.1f} MB")
    for name, value in wl.quality.items():
        print(f"  {name:<16} {value:.6g}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "inputs": wl.inputs,
              "attempted": attempted, "failed": failed, "stats": stats,
              "samples": samples, "setup_s": setup, "quality": wl.quality,
              "metrics": metrics}
    record_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {w['name']} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
            print(f"  = {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper's configuration")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
