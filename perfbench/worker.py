"""Runs one workload in this process: set-up, then passes over its job list.

Started by run.py, once per measured run and a few times for set-up alone.
It prints ``READY`` when set-up is done and, unless ``--setup-only``, one JSON
line with the run's figures at the end.  Each call into the library is timed
on its own; checks run outside the timed regions.  In a traced pass every job
is also recorded as a span (name, start, end, parent, job id) inside the pass
span; spans are kept in memory and written to ``--spans`` when the run ends.

``--record`` runs one pass at the default seed and stores the job
fingerprints in expected_seed0.json; it is how that file was made.
The package is imported from the checkout's ``src`` (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy

from workloads import DEFAULT_SEED, WORKLOADS, CheckError, fingerprint_json

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected_seed0.json")
LAYERS = ("cli", "palette", "reduced", "hypergraph", "construct", "io", "density", "quasirandom")


def run_pass(jobs, traced, spans, expected):
    """One pass over the job list; returns its figures."""
    st: dict = {}
    rec = {
        "traced": traced,
        "wall_s": 0.0,
        "check_s": 0.0,
        "attempted": 0,
        "failed": 0,
        "inconclusive": 0,
        "times": defaultdict(float),
        "counts": defaultdict(int),
        "fingerprints": {},
    }
    pass_id = len(spans)
    p0 = perf_counter()
    if traced:
        spans.append(["pass", p0, None, None, None])
    for job in jobs:
        rec["attempted"] += 1
        t0 = perf_counter()
        try:
            out = job.call(st)
            error = None
        except Exception:  # a job that raises is a failed job; the pass goes on
            out, error = None, traceback.format_exc()
        t1 = perf_counter()
        if traced:
            spans.append([job.name, t0, t1, pass_id, job.key])
        rec["wall_s"] += t1 - t0
        rec["times"][job.metric] += t1 - t0
        if error is not None:
            rec["failed"] += 1
            print(f"FAILED {job.key}: raised\n{error}", file=sys.stderr)
            continue
        if job.store:
            st[job.store] = out
        c0 = perf_counter()
        try:
            outcome = job.check(out, st)
            fingerprint = fingerprint_json(outcome.fingerprint)
            if expected is not None and expected.get(job.key) != fingerprint:
                raise CheckError(
                    f"fingerprint {fingerprint} differs from the seed commit's {expected.get(job.key)}"
                )
        except Exception:
            rec["failed"] += 1
            print(f"FAILED {job.key}: check\n{traceback.format_exc()}", file=sys.stderr)
        else:
            rec["fingerprints"][job.key] = fingerprint
            rec["inconclusive"] += outcome.inconclusive
            for name, value in outcome.counts.items():
                rec["counts"][name] += value
        rec["check_s"] += perf_counter() - c0
    p1 = perf_counter()
    if traced:
        spans[pass_id][2] = p1
    rec["duration_s"] = p1 - p0
    return rec


def self_times(spans):
    """Self time of each span (its duration minus its children's), summed per
    layer and per pass; the pass span's own self time goes to ``bench``."""
    child = defaultdict(float)
    for _name, t0, t1, parent, _job in spans:
        if parent is not None:
            child[parent] += t1 - t0
    per_pass: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, t0, t1, parent, _job) in enumerate(spans):
        root = i if parent is None else parent
        while spans[root][3] is not None:
            root = spans[root][3]
        layer = "bench" if name == "pass" else name.split(".")[0]
        per_pass[root][layer] += (t1 - t0) - child[i]
    return list(per_pass.values())


def layer_metrics(passes, spans):
    """Per-layer metrics from the traced passes; the overhead compares the
    traced and untraced pass durations."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def med(values):
        return statistics.median(values) if values else 0.0

    def seconds(name):
        return med([p["times"].get(name, 0.0) for p in traced])

    def count(name):
        return med([p["counts"].get(name, 0) for p in traced])

    def rate(work, seconds):
        return work / seconds if seconds else 0.0

    m = {
        name: seconds(name)
        for name in (
            "cli.table_s", "palette.representable_s", "palette.cnf_s", "reduced.map_s",
            "density.exact_s", "quasirandom.exact_s", "hypergraph.find_embedding_s",
            "hypergraph.contains_s", "hypergraph.make_s", "construct.generate_s",
            "construct.lift_s", "io.write_s", "io.read_s", "reduced.generate_s",
            "reduced.scan_s", "reduced.project_s", "reduced.tetra_s", "density.sampled_s",
            "quasirandom.sampled_s", "quasirandom.triangle_s",
        )
    }
    for name in (
        "palette.nodes", "reduced.map_nodes", "density.exact_subsets", "quasirandom.exact_subsets",
        "hypergraph.edges", "io.bytes", "reduced.constituent_edges", "density.sampled_witnesses",
    ):
        m[name] = count(name)
    m["palette.nodes_per_s"] = rate(m["palette.nodes"], m["palette.representable_s"])
    m["density.exact_subsets_per_s"] = rate(m["density.exact_subsets"], m["density.exact_s"])
    gen_lift_s = m["construct.generate_s"] + m["construct.lift_s"]
    m["construct.edges_per_s"] = rate(count("construct.edges"), gen_lift_s)
    selfs = self_times(spans)
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = med([s.get(layer, 0.0) for s in selfs])
    m["bench.check_s"] = med([p["check_s"] for p in traced])
    base = med([p["duration_s"] for p in plain])
    m["bench.trace_overhead_frac"] = (med([p["duration_s"] for p in traced]) - base) / base
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", default=".")
    ap.add_argument("--spans", help="file the spans of a traced run are written to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    jobs = WORKLOADS[args.workload](args.seed, args.tmp)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with open(EXPECTED) as fh:
        expected_all = json.load(fh)
    if args.record:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("--record stores the default seed's values only")
        rec = run_pass(jobs, False, [], None)
        if rec["failed"]:
            return 1
        expected_all[args.workload] = rec["fingerprints"]
        blocks = [
            f" {json.dumps(w)}: {{\n"
            + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(fps.items()))
            + "\n }"
            for w, fps in sorted(expected_all.items())
        ]
        with open(EXPECTED, "w") as fh:
            fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
        return 0
    expected = expected_all[args.workload] if args.seed == DEFAULT_SEED else None

    # Closed loop: passes back to back until the time is up.  A traced run
    # alternates untraced and traced passes and makes at least one of each.
    passes, spans = [], []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(jobs, traced, spans, expected))
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and perf_counter() - start >= args.seconds:
            break
    if args.spans and spans:
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": spans}, fh)

    plain = [p for p in passes if not p["traced"]]
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "inconclusive": sum(p["inconclusive"] for p in passes),
        "passes": len(passes),
        "wall_s": [p["wall_s"] for p in plain],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["layers"] = layer_metrics(passes, spans)
        traced = sum(p["traced"] for p in passes)
        calls = defaultdict(int)
        for name, *_rest in spans:
            if name != "pass":
                calls[name.split(".")[0]] += 1
        result["calls_per_pass"] = {layer: n / traced for layer, n in calls.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
