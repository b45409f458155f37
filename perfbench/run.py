"""pdefisher benchmark: one workload, run through the public CLI.

usage (from the repository root):

    python3 perfbench/run.py --workload lan-rd --seed 1 --seconds 42 --trace 0

Each task is ``pdefisher run -c perfbench/workloads/<workload>.yaml --seed s``
in a fresh child process (see child.py), one at a time (closed loop, one
client).  The package is imported from ``src/`` of the directory the command
runs in, so the benchmark measures that checkout's source.  BLAS and OpenMP
are pinned to one thread in each child, so replicate threads x BLAS threads
stays within the two cores the Monte-Carlo workload uses.

``--trace 0`` measures the end-to-end metrics with tracing off: it runs tasks
for as long as the next one, predicted to take as long as the last, still
ends within ``--seconds``, and reports the median of each metric over them.
``--trace 1`` alternates untraced and traced tasks the same way (two traced
ones at least) and reports the per-layer metrics of the traced ones (see
layers.py) plus the tracing overhead.

Every task is checked: exit code 0, ``report.json`` with ``"pass": true``,
the deterministic results equal to references.json within a relative
tolerance, Monte-Carlo estimates within a few standard errors of an exact
expectation where one is stored, and, when traced, work counts equal to the
ones the config implies and identical across traced tasks.  A task that
fails any check counts in ``failed`` and is printed; the metrics come from
the tasks that passed (from all tasks when none did), so they are always
reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

CLI_SEEDS_PER_RUN = 1000  # task i of --seed s runs the CLI with seed s*1000+i
CHILD_LIMIT_S = 170.0  # whole-run budget; a child still running then is killed
BLAS_THREADS = "1"
MIB = 2.0**20


def _mc_counts(task):
    # per replicate, three evaluations of n points: simulate_dataset, then
    # two fields in the likelihood ratio
    return {
        "kernels.eval.points": 3 * task["n"] * task["replicates"],
        "inference.simulate.calls": task["replicates"],
    }


def _support_counts(task):
    # one tangent march over the largest truncation; no scattered evaluation
    return {
        "forward.linearize.calls": 1,
        "forward.linearize.cols": max(task["k_grid"]),
        "kernels.eval.calls": 0,
    }


def _pushforward_counts(task):
    # per K: K unit tangents for M, then the samples in chunks of 64 columns
    ks, m = task["n_basis_list"], task["m"]
    return {
        "forward.linearize.calls": len(ks) * (1 + math.ceil(m / 64)),
        "forward.linearize.cols": sum(k + m for k in ks),
        "kernels.eval.calls": 0,
    }


WORKLOADS = {
    "lan-rd": _mc_counts,
    "support-rd": _support_counts,
    "pushforward-ns": _pushforward_counts,
}

# results that do not depend on the seed; compared against references.json
DETERMINISTIC = {
    "lan-rd": ["lan_norm_sq", "target_mean", "target_var", "support_escapes"],
    "support-rd": ["betas", "k_grid", "threshold"],
    "pushforward-ns": [],
}
REL_TOL = 1e-8
ABS_TOL = 1e-12
MC_SIGMAS = 6.0  # Monte-Carlo estimate vs exact expectation

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]


class TaskFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    for var in ("PDEFISHER_SEED", "PDEFISHER_WORKERS"):
        env.pop(var, None)
    return env


def run_child(tmp, tag, mode, cli_args, deadline):
    """Spawn one child, wait for it with os.wait4 (its own rusage only) and
    return wall time, peak RSS, exit code and the stats it wrote."""
    stats_path = os.path.join(tmp, tag + ".stats.json")
    log_path = os.path.join(tmp, tag + ".log")
    env = child_env()
    argv = [sys.executable, os.path.join(BENCH, "child.py"), stats_path, mode] + cli_args
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        env["PERFBENCH_T0"] = repr(t0)
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = {}
    if os.path.exists(stats_path):
        with open(stats_path) as fh:
            stats = json.load(fh)
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss * 1024 / MIB,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rc": proc.returncode,
        "stats": stats,
        "log": log_path,
    }


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _close(got, ref, path):
    if isinstance(ref, dict):
        for key, val in ref.items():
            _close(got.get(key) if isinstance(got, dict) else None, val, f"{path}.{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise TaskFailed(f"{path}: {got!r} != reference {ref!r}")
        for i, (g, r) in enumerate(zip(got, ref)):
            _close(g, r, f"{path}[{i}]")
    elif isinstance(ref, bool):
        if got != ref:
            raise TaskFailed(f"{path}: {got!r} != reference {ref!r}")
    elif not isinstance(got, (int, float)) or not math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        raise TaskFailed(f"{path}: {got!r} != reference {ref!r} (rel tol {REL_TOL})")


def check_report(workload, out_dir, refs):
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        raise TaskFailed("no report.json")
    with open(path) as fh:
        report = json.load(fh)
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    if not report["pass"] or failing:
        raise TaskFailed(f"report checks failed: {failing}")
    results = report["results"]
    ref = refs[workload]
    _close({k: results.get(k) for k in DETERMINISTIC[workload]}, ref["results"], "results")
    expectation = ref.get("expectation", [])
    if expectation and len(results.get("estimates", [])) != len(expectation):
        raise TaskFailed(f"expected {len(expectation)} pushforward estimates")
    for est, exact in zip(results.get("estimates", []), expectation):
        if abs(est["estimate"] - exact) > MC_SIGMAS * est["stderr"]:
            raise TaskFailed(
                f"K={est['n_basis']}: estimate {est['estimate']} is more than "
                f"{MC_SIGMAS} standard errors from the exact expectation {exact}"
            )


def check_counts(counts, expected):
    for key, val in expected.items():
        if counts.get(key, 0) != val:
            raise TaskFailed(f"traced count {key} = {counts.get(key, 0)}, config implies {val}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, plain_walls, workers):
    """Per-layer metrics from the traced tasks: counts from the first (the
    caller has checked they repeat exactly), times as medians."""
    empty = {"seconds": {}, "self_seconds": {}, "counts": {}, "top_level_s": 0.0}
    layers = [t["stats"].get("layers", empty) for t in traced]
    counts = layers[0]["counts"]

    def c(name):
        return counts.get(name, 0)

    def s(name, key="seconds"):
        return median([lay[key].get(name, 0.0) for lay in layers])

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    replicate_s = s("inference.simulate") + s("inference.llr") + s("inference.influence")
    mc_s = s("inference.mc")
    m = {
        "config.import_s": (s("config.import"), "s"),
        "config.build_s": (s("config.build"), "s"),
        "kernels.eval.calls": (c("kernels.eval.calls"), "count"),
        "kernels.eval.points": (c("kernels.eval.points"), "count"),
        "kernels.eval.mode_points": (c("kernels.eval.mode_points"), "count"),
        "kernels.eval.s": (s("kernels.eval"), "s"),
        "kernels.eval.mode_points_per_s": (rate(c("kernels.eval.mode_points"), s("kernels.eval")), "1/s"),
        "noise.sample.draws": (c("noise.sample.draws"), "count"),
        "noise.sample.s": (s("noise.sample"), "s"),
        "noise.density.s": (s("noise.density"), "s"),
        "noise.fisher.s": (s("noise.fisher"), "s"),
        "inference.replicates": (c("inference.simulate.calls"), "count"),
        "inference.simulate.s": (s("inference.simulate"), "s"),
        "inference.llr.s": (s("inference.llr"), "s"),
        "inference.influence.s": (s("inference.influence"), "s"),
        "inference.busy_frac": (rate(replicate_s, mc_s * workers), "fraction"),
        "forward.solve.calls": (c("forward.solve.calls"), "count"),
        "forward.solve.s": (s("forward.solve"), "s"),
        "forward.linearize.calls": (c("forward.linearize.calls"), "count"),
        "forward.linearize.cols": (c("forward.linearize.cols"), "count"),
        "forward.linearize.s": (s("forward.linearize"), "s"),
        "forward.linearize.col_steps_per_s": (rate(c("forward.linearize.col_steps"), s("forward.linearize")), "1/s"),
        "spectral.to_values.calls": (c("spectral.to_values.calls"), "count"),
        "spectral.to_coeffs.calls": (c("spectral.to_coeffs.calls"), "count"),
        "spectral.transform.s": (s("spectral.to_values") + s("spectral.to_coeffs"), "s"),
        "information.assemble.s": (s("information.assemble"), "s"),
        "information.gram.s": (s("information.gram"), "s"),
        "information.gram.batch_mb": (c("information.gram.batch_bytes_max") / MIB, "MiB"),
        "information.design_sample.s": (s("information.design_sample"), "s"),
        "information.factor.calls": (c("information.factor.calls"), "count"),
        "information.factor.s": (s("information.factor"), "s"),
        "information.factor.k3": (c("information.factor.k3"), "count"),
        "gaussian.sample.s": (s("gaussian.sample"), "s"),
        "gaussian.support.s": (s("gaussian.support"), "s"),
        "gaussian.pushforward.self_s": (s("gaussian.pushforward", "self_seconds"), "s"),
        "trace.coverage": (median([lay["top_level_s"] / t["wall_s"] for lay, t in zip(layers, traced)]), "fraction"),
        "trace.overhead_frac": (median([t["wall_s"] for t in traced]) / median(plain_walls) - 1.0, "fraction"),
    }
    return m


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------


def machine_block(kernels):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "kernels": kernels,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + CHILD_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "pdefisher", "cli.py")):
        sys.exit(f"error: {SRC}/pdefisher not found; run from the root of a pdefisher checkout")

    import yaml

    cfg_path = os.path.join(BENCH, "workloads", args.workload + ".yaml")
    with open(cfg_path) as fh:
        cfg = yaml.safe_load(fh)
    with open(os.path.join(BENCH, "references.json")) as fh:
        refs = json.load(fh)
    expected_counts = WORKLOADS[args.workload](cfg["task"])

    work = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    tasks, traced, failures = [], [], []
    first_counts = None
    index = 0

    def launch(mode):
        nonlocal index, first_counts
        cli_seed = args.seed * CLI_SEEDS_PER_RUN + index
        tag = f"{index:03d}-{mode}"
        out_dir = os.path.join(tmp, tag)
        index += 1
        res = run_child(
            tmp, tag, mode,
            ["run", "-c", cfg_path, "-o", out_dir, "--seed", str(cli_seed)],
            deadline,
        )
        try:
            if res["rc"] != 0:
                with open(res["log"]) as fh:
                    tail = fh.read()[-400:]
                raise TaskFailed(f"exit code {res['rc']}: {tail.strip()}")
            if "setup_s" not in res["stats"]:
                raise TaskFailed("child recorded no set-up time")
            check_report(args.workload, out_dir, refs)
            if mode == "trace":
                counts = res["stats"]["layers"]["counts"]
                check_counts(counts, expected_counts)
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    raise TaskFailed("traced counts differ from the first traced task")
        except TaskFailed as exc:
            failures.append(f"task {tag} (cli seed {cli_seed}): {exc}")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
            res["failed"] = True
        (traced if mode == "trace" else tasks).append(res)
        return res

    try:
        if args.trace:
            # untraced and traced tasks alternate, so the overhead compares
            # neighbours; two traced tasks at least, to check the counts repeat
            while True:
                walls = [launch(mode)["wall_s"] for mode in ("plain", "trace")]
                if len(traced) >= 2 and time.monotonic() - started + sum(walls) > args.seconds:
                    break
        else:
            while True:
                wall = launch("plain")["wall_s"]
                if time.monotonic() - started + wall > args.seconds:
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass

    children = tasks + traced
    attempted, failed = len(children), len(failures)
    kernels = next((r["stats"].get("kernels") for r in children if r["stats"].get("kernels")), None)
    machine = machine_block(kernels)
    good = [r for r in tasks if not r.get("failed")]
    good_traced = [r for r in traced if not r.get("failed")]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, workers {cfg.get('workers', 1)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    if args.trace:
        source = good_traced or traced
        metrics = layer_metrics(source, [r["wall_s"] for r in (good or tasks)], cfg.get("workers", 1))
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:16.6g} {unit}")
        print(f"  traced tasks {len(traced)}, untraced tasks {len(tasks)}")
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in (good or tasks)],
            "setup_s": [r["stats"]["setup_s"] for r in tasks if "setup_s" in r["stats"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in (good or tasks)],
            "cpu_s": [r["cpu_s"] for r in (good or tasks)],
        }
        # cpu_s (user + system time of the child) is printed, not reported:
        # it tells a CPU-bound slowdown from waiting
        metrics = {name: (median(samples[name]), unit) for name, unit in END_TO_END}
        for name, unit in END_TO_END + [("cpu_s", "s")]:
            vals = samples[name]
            print(f"  {name:12s} {median(vals):10.4f} {unit:4s} median of {len(vals)}: "
                  + " ".join(f"{v:.4f}" for v in vals))
    print(f"  {'failed_frac':12s} {failed / attempted:10.4f}      {failed} of {attempted} children failed")
    for line in failures:
        print(f"  failure: {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
