"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ``src``.
It times the set-up of fresh worker processes (interpreter start,
imports and instance preparation, up to the worker's READY line) several
times and reports the median, then lets one more fresh worker run the
workload's job list back to back for ``--seconds``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The lines before it
say the same for a reader, with sample counts and the machine's details,
which are also written with the spans to ``.bench_out/``.  Temporary files
go to a per-run directory under ``.bench_tmp/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify", "audit", "construct")
SETUP_SAMPLES = 7  # worker start-ups timed per run, the measured worker included
DEADLINE_S = 170  # every worker is stopped by then

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "passed_frac": "ratio",
    "conclusive_frac": "ratio",
}


def worker_env(root: str, tmp: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = tmp
    return env


def run_worker(args, env, deadline, extra):
    """Run one worker to its end; returns (set-up seconds, output after READY).

    The worker gets an alarm for the time left until the deadline, so it
    cannot outlive the run even if it hangs.
    """
    left = max(1, int(deadline - time.monotonic()))
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            preexec_fn=lambda: signal.alarm(left))
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup, out


def measure(args, root: str, tmp: str, out_dir: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root, tmp)
    setups = [run_worker(args, env, deadline, ["--setup-only"])[0]
              for _ in range(SETUP_SAMPLES - 1)]
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    setup, out = run_worker(args, env, deadline, [
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp, "--spans", spans])
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = setups + [setup]
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="unidense benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "unidense", "__init__.py")):
        print("run from the root of a unidense checkout: src/unidense not found", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_tmp"))
    load_before = os.getloadavg()
    try:
        res = measure(args, root, tmp, out_dir)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": res["python"],
        "numpy": res["numpy"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "passes": res["passes"],
        "wall_s_passes": res["wall_s"],
        "setup_s_samples": res["setup_s"],
        "attempted": attempted,
        "failed": failed,
        "inconclusive": res["inconclusive"],
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["layers"].items()}
        print_layers(res["layers"], res["calls_per_pass"])
    else:
        values = {
            "wall_s": statistics.median(res["wall_s"]),
            "setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mib": res["peak_rss_mib"],
            "passed_frac": (attempted - failed) / attempted,
            "conclusive_frac": (attempted - res["inconclusive"]) / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
        print(f"wall_s        {values['wall_s']:.4f} s   median of {len(res['wall_s'])} passes")
        print(f"setup_s       {values['setup_s']:.4f} s   median of {len(res['setup_s'])} start-ups")
        print(f"peak_rss_mib  {values['peak_rss_mib']:.1f} MiB")
        print(f"passed_frac   {values['passed_frac']:.4f}   ({failed} of {attempted} jobs failed)")
        print(f"conclusive_frac {values['conclusive_frac']:.4f}   "
              f"({res['inconclusive']} of {attempted} jobs inconclusive)")
    print("provenance " + json.dumps(provenance))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"provenance": provenance, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def print_layers(layers: dict, calls: dict) -> None:
    """Per-layer self time, its share of the traced pass and the layer's calls
    per pass (both from the spans), then the other per-layer metrics."""
    selfs = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    print("layer         self_s    share  calls")
    for layer, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"{layer:12s} {value:8.4f}  {100 * value / total:6.1f}%  {calls.get(layer, 0):5g}")
    for name, value in layers.items():
        if not name.endswith(".self_s"):
            print(f"{name:30s} {value:.6g} {unit_of(name)}")


if __name__ == "__main__":
    sys.exit(main())
