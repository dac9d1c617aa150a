"""Run one workload of the dglcalc benchmark and print its metrics.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it works in the
checkout's root and writes only under `.bench_work/`.  With --trace 0 it
measures the end-to-end metrics in fresh worker processes; with --trace 1 it
runs the same ops untraced and then traced and reports the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402

DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def preflight():
    missing = [p for p in ("src/dglcalc/cli.py", "fixtures/one_cell_attachment.dgl")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a dglcalc checkout (missing {', '.join(missing)})")


def check_inputs(expected: dict, workload: wl.Workload, seed: int):
    """Regenerate every input variant, compare digests, write this seed's files."""
    texts = wl.all_inputs()
    drift = [p for p, text in texts.items() if wl.digest(text) != expected["inputs"].get(p)]
    if drift or set(expected["inputs"]) != set(texts):
        raise BenchError(f"generated inputs differ from expected.json: {drift[:3]}")
    wl.write_inputs(ROOT, workload.input_files(seed))


def worker(args: list, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:3]} exceeded the time limit") from None
    if done.returncode != 0:
        raise BenchError(f"worker {args[:3]} failed:\n{done.stderr[-2000:]}")
    return done


def run_worker(workload: str, seed: int, seconds: float, deadline: float, tag: str,
               passes: int = 0, trace: int = 0, min_passes: int = 0) -> dict:
    out = ROOT / wl.WORK / f"result-{workload}-{seed}-{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    worker(["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--passes", str(passes), "--min-passes", str(min_passes), "--trace", str(trace),
            "--out", str(out)], deadline)
    return json.loads(out.read_text())


def tail_percentile(workload: wl.Workload, seed: int) -> int:
    """Highest whole percentile with ten samples beyond it in the minimum run."""
    n = workload.min_passes * len(workload.pass_ops(seed, 0))
    return math.floor(100 * (n - 10) / n)


def latency_ranking(result: dict) -> list:
    """Per-op reference milliseconds, failures ranked after every success.

    A failed op never delivered its result; it is charged the busy time of
    its whole pass, which exceeds any single op of that pass.
    """
    ranked = []
    for r in result["records"]:
        ok = r["status"] == "ok"
        ms = r["ref_ms"] if ok else result["pass_ref_ms"][r["pass"]]
        ranked.append((not ok, ms))
    ranked.sort()
    return [ms for _, ms in ranked]


def tally(records: list):
    failed = [r for r in records if r["status"] != "ok"]
    unexpected = [r for r in failed if r["status"] != "known-failure"]
    return failed, unexpected


def end_to_end(workload: wl.Workload, seed: int, seconds: float, deadline: float):
    setup = []
    for _ in range(workload.setup_repeats):
        done = worker(["setup", "--workload", workload.name, "--seed", str(seed)], deadline)
        setup.append(json.loads(done.stdout))
    result = run_worker(workload.name, seed, seconds, deadline, "e2e")
    records = result["records"]
    ranked = latency_ranking(result)
    q = tail_percentile(workload, seed)
    rank = math.ceil(q / 100 * len(ranked))
    failed, unexpected = tally(records)
    metrics = {
        "ops_per_s": (1000.0 * len(records) / sum(result["pass_ref_ms"]), "1/s"),
        "op_ms_p50": (statistics.median(ranked), "ms"),
        "op_ms_tail": (ranked[rank - 1], "ms"),
        "setup_s": (statistics.median(s["setup_ref_s"] for s in setup), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        "ops_ok_frac": (1.0 - len(failed) / len(records), "frac"),
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "variants": workload.variants(seed),
        "passes": len(result["pass_seconds"]),
        "ops": len(records),
        "tail": f"p{q} of {len(ranked)} samples ({len(ranked) - rank} beyond)",
        "failed_by_status": dict(Counter(r["status"] for r in failed)),
        "representatives_changed": sum(r["rep_changed"] for r in records),
        "setup_samples_s": [round(s["setup_ref_s"], 4) for s in setup],
        # wall-clock figures, for comparison with the reference-speed metrics
        "wall_op_ms_p50": statistics.median(r["seconds"] * 1000.0 for r in records),
        "wall_ops_per_s": len(records) / sum(result["pass_seconds"]),
        "wall_setup_s": statistics.median(s["setup_s"] for s in setup),
    }
    return not unexpected, len(records), len(failed), metrics, info


def per_layer(workload: wl.Workload, seed: int, seconds: float, deadline: float):
    plain = run_worker(workload.name, seed, seconds / 2, deadline, "untraced", min_passes=1)
    passes = len(plain["pass_seconds"])
    traced = run_worker(workload.name, seed, 0, deadline, "traced", passes=passes, trace=1)
    same = [
        (a["key"], a["exit"], a["stdout_sha256"]) == (b["key"], b["exit"], b["stdout_sha256"])
        for a, b in zip(plain["records"], traced["records"])
    ]
    identical = len(plain["records"]) == len(traced["records"]) and all(same)
    t = traced["trace"]
    op_s = t["op_seconds"]
    traced_ref_ms = sum(r["ref_ms"] for r in traced["records"])
    plain_ref_ms = sum(r["ref_ms"] for r in plain["records"])
    counts, maxima = t["counts"], t["maxima"]

    def per_pass(x):
        return x / passes

    metrics = {}
    for layer, s in t["self_s"].items():
        metrics[f"{layer}.self_s"] = (per_pass(s), "s")
    for name in ("modelfile.parse_calls", "lie.basis_builds", "lie.basis_words",
                 "lie.words_scanned", "lie.bracket_calls", "model.validate_calls",
                 "model.validate_words", "derivations.d_columns_calls",
                 "derivations.labels_calls", "derivations.apply_calls",
                 "relative.complexes_built", "relative.d_columns_calls", "linalg.rref_calls",
                 "linalg.rref_rows_in", "linalg.rref_nnz_in", "linalg.rref_rank_out",
                 "complexes.homology_calls", "complexes.homology_builds",
                 "complexes.induced_matrix_calls", "complexes.d_columns_calls",
                 "subgroups.contexts_built", "subgroups.kernel_builds"):
        metrics[name] = (per_pass(counts.get(name, 0)), "count")
    words, scanned = counts.get("lie.basis_words", 0), counts.get("lie.words_scanned", 0)
    metrics["lie.basis_yield"] = (words / scanned if scanned else 1.0, "frac")
    rrefs = counts.get("linalg.rref_calls", 0)
    metrics["linalg.rref_repeat_frac"] = (
        counts.get("linalg.rref_repeats", 0) / rrefs if rrefs else 0.0, "frac")
    metrics["linalg.rref_max_rows"] = (maxima.get("linalg.rref_max_rows", 0), "count")
    metrics["complexes.max_dim"] = (maxima.get("complexes.max_dim", 0), "count")
    metrics["trace.overhead_frac"] = (traced_ref_ms / plain_ref_ms - 1.0, "frac")
    metrics["trace.unattributed_frac"] = (1.0 - sum(t["self_s"].values()) / op_s, "frac")

    failed, unexpected = tally(traced["records"])
    shares = {layer: round(s / op_s, 4) for layer, s in t["self_s"].items()}
    info = {
        "workload": workload.name,
        "seed": seed,
        "passes": passes,
        "ops": len(traced["records"]),
        "spans": t["spans"],
        "self_time_share": shares,
        "reports_identical_traced_untraced": identical,
        "silent_boundaries": t["silent_boundaries"],
        "missing_boundaries": t["missing_boundaries"],
    }
    correct = not unexpected and identical and not t["silent_boundaries"]
    return correct, len(traced["records"]), len(failed), metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workload = wl.WORKLOADS[args.workload]
    try:
        preflight()
        os.chdir(ROOT)
        check_inputs(wl.load_expected(), workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics, info = measure(
            workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
