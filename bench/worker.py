"""Child process of the benchmark: set-up probes and closed-loop op runs.

    python3 bench/worker.py setup --workload W --seed S
    python3 bench/worker.py run --workload W --seed S --seconds T --out FILE
        [--passes K | --min-passes K] [--trace 1]

It runs from the root of a checkout and imports dglcalc from its `src`.
One process, one thread: each op starts when the previous one has returned.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402
import workloads as wl  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# Untraced ops and set-up sample the reference speed this often while they
# run (calibrate.py); traced ops only before and after, to keep spans clean.
SAMPLE_INTERVAL_S = 0.05


def import_dglcalc():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dglcalc.cli

    return dglcalc


def call_cli(main, argv, clock=None):
    """Run one CLI op.

    Returns (exit code or 'traceback: ...', stdout, wall seconds, reference ms).
    """
    out, err = io.StringIO(), io.StringIO()

    def op():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(list(argv))
        except SystemExit as exc:  # argparse errors
            return exc.code
        except Exception as exc:  # a traceback is an op failure, not a harness crash
            return f"traceback: {type(exc).__name__}: {exc}"

    code, seconds, ref_ms = (clock or calibrate.Clock()).call(op)
    return code, out.getvalue(), seconds, ref_ms


def check(op: wl.Op, code, stdout: str, expected: dict):
    """(status, representative strings changed) of one op against expected.json.

    status is 'ok', 'known-failure' or a reason; only 'ok' counts as success.
    """
    entry = expected["ops"].get(op.key)
    if entry is None:
        return f"no expected entry for {op.key!r}", False
    if code != entry["exit"]:
        if entry.get("known_failure") and code == 0:
            return "ok", False  # a fixed known failure; nothing recorded to compare
        return f"exit {code!r}, expected {entry['exit']}", False
    if entry.get("known_failure"):
        return "known-failure", False
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report", False
    view, reps = wl.split_report(report)
    if view != entry["view"]:
        return "invariants differ from expected.json", False
    reason = _kind_check(op, report, expected)
    return reason or "ok", reps != entry["rep"]


def _kind_check(op: wl.Op, report: dict, expected: dict):
    if op.kind in ("product", "cylinder"):
        result = report["result"]
        needed = ("d_squared_ok", "minimal") if op.kind == "product" else (
            "d_squared_ok", "far_end_chain_map", "cycle_generators_shift")
        bad = [k for k in needed if result.get(k) is not True]
        return f"{op.kind} check failed: {bad}" if bad else None
    if op.kind == "product-homology":
        dims = expected["additivity"][f"{op.slot}-{op.variant:02d}"]
        for entry in report["degrees"]:
            n = str(entry["internal"])
            want = dims["base"][n] + dims["wedge"][n]
            if not entry["trusted"] or entry["dimension"] != want:
                return f"additivity fails in internal degree {n}"
    return None


def write_emitted(op: wl.Op, stdout: str):
    text = json.loads(stdout)["model_text"]
    path = Path(op.emit)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def run_setup(workload: wl.Workload, seed: int) -> dict:
    """Fresh-process set-up: import dglcalc, parse and validate every input once."""

    def setup():
        import_dglcalc()
        from dglcalc.modelfile import parse_workspace

        for path, n in workload.setup_list(seed):
            ws = parse_workspace(Path(path).read_text(), truncation=n)
            for name, model in ws.models.items():
                if not model.validate().ok:
                    raise SystemExit(f"input {path} model {name} does not validate")

    _, seconds, ref_ms = calibrate.Clock(SAMPLE_INTERVAL_S).call(setup)
    return {"setup_s": seconds, "setup_ref_s": ref_ms / 1000.0}


def run_loop(workload: wl.Workload, seed: int, seconds: float, passes: int, trace: bool,
             min_passes: int = 0) -> dict:
    dglcalc = import_dglcalc()
    expected = wl.load_expected()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(dglcalc)
        tracer.install()
    main = sys.modules["dglcalc.cli"].main
    clock = calibrate.Clock(None if trace else SAMPLE_INTERVAL_S)
    records = []
    pass_seconds = []
    pass_ref_ms = []
    start = time.perf_counter()
    index = 0
    while True:
        busy = busy_ref = 0.0
        for op in workload.pass_ops(seed, index):
            if op.emit:  # never let a later op read an earlier run's output
                Path(op.emit).unlink(missing_ok=True)
            if tracer:
                tracer.begin_op(len(records))
            code, stdout, elapsed, ref_ms = call_cli(main, op.argv, clock)
            if tracer:
                tracer.end_op(elapsed)
            busy += elapsed
            busy_ref += ref_ms
            status, rep_changed = check(op, code, stdout, expected)
            if op.emit and code == 0:
                write_emitted(op, stdout)
            records.append({
                "pass": index,
                "key": op.key,
                "seconds": elapsed,
                "ref_ms": ref_ms,
                "exit": code,
                "status": status,
                "rep_changed": rep_changed,
                "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            })
        pass_seconds.append(busy)
        pass_ref_ms.append(busy_ref)
        index += 1
        if passes:
            if index >= passes:
                break
        elif index >= (min_passes or workload.min_passes) and time.perf_counter() - start >= seconds:
            break
    result = {
        "records": records,
        "pass_seconds": pass_seconds,
        "pass_ref_ms": pass_ref_ms,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.summary(workload.name)
        tracer.write_spans(Path(wl.WORK) / f"spans-{workload.name}-{seed}.csv.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0, help="exact pass count (0: time-bound)")
    parser.add_argument("--min-passes", type=int, default=0, help="0: the workload's minimum")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (run mode)")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    if args.mode == "setup":
        print(json.dumps(run_setup(workload, args.seed)))
        return 0
    result = run_loop(workload, args.seed, args.seconds, args.passes, bool(args.trace),
                      args.min_passes)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
