#!/usr/bin/env python3
"""Digest every report of the benchmark's ops, to check that a change leaves
them byte-identical.

    python3 scripts/report_digests.py [--root CHECKOUT] [--workload W ...] --out FILE
    python3 scripts/report_digests.py --compare A B

Runs every distinct op of the benchmark workloads in-process, through the
`dglcalc` of CHECKOUT (default: this checkout), plus `--format json` runs of
`one_cell_attachment.dgl i`: `gseq` at N=13-21, `evsub` and `grel` at N=16-21,
`les` and `center` at N=13-17 and `gvp` at N=13-15, with `gottlieb` of its
model `Y` at N=13-17 (the pseudo-workload `gseq-scaling`),
and `validate` and `homology` of a fixed list of malformed model files (the
pseudo-workload `parse-errors`), so exit codes and the `line:column` of parse
errors are digested too.  Every op that does not --emit runs a second time
without `--format json`, so the default text rendering is digested too, under
the key of that argv.  Writes one md5 of (exit code, stdout, stderr) per op to
FILE as JSON.  The generated inputs, emitted models and malformed files go
under CHECKOUT/.bench_work/, where the benchmark writes its own.  --compare
prints the keys whose digests differ, or that only one file has, and exits 1
if there are any.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

SCALING = "gseq-scaling"
ERRORS = "parse-errors"
PSEUDO = (SCALING, ERRORS)

# (name, text, extra arguments) of each malformed model file
MALFORMED = (
    ("stray-character", "model M {\n  gen x : deg 2;\n  gen y : deg 3; @\n}\n", ()),
    ("unterminated-bracket", "model M {\n  gen x : deg 1;\n  gen y : deg 4;\n  d y = [x, [x, x];\n}\n", ()),
    ("eof-in-block", "model M {\n  gen x : deg 2;\n  gen y : deg 3;\n", ()),
    ("gen-after-d", "model M {\n  gen x : deg 1;\n  gen y : deg 3;\n  d y = [x, x];\n  gen z : deg 2;\n}\n", ()),
    ("duplicate-generator", "model M {\n  gen x : deg 2;\n  gen x : deg 3;\n}\n", ()),
    ("wrong-degree", "model M {\n  gen x : deg 1;\n  gen y : deg 4;\n  d y = [x, x];\n}\n", ()),
    ("not-homogeneous", "model M {\n  gen x : deg 1;\n  gen a : deg 2;\n  gen y : deg 3;\n"
     "  d y = a + [x, x] - 2x;\n}\n", ()),
    ("zero-denominator", "model M {\n  gen x : deg 1;\n  gen y : deg 3;\n  d y = 3/0 [x, x];\n}\n", ()),
    ("above-truncation", "model M {\n  gen x : deg 3;\n  gen y : deg 5;\n  d y = [x, [x, x]];\n}\n",
     ("--max-degree", "8")),
    ("nested-too-deep", "model M {\n  gen x : deg 1;\n  gen y : deg 3;\n"
     "  d y = [x, [x, [x, [x, x]]]];\n}\n", ("--max-degree", "3")),
)


def scaling_ops(wl) -> list:
    f = f"{wl.FIXTURES}/one_cell_attachment.dgl"
    runs = [("gseq", n) for n in range(13, 22)]
    runs += [(cmd, n) for cmd in ("evsub", "grel") for n in range(16, 22)]
    runs += [("les", n) for n in range(13, 18)] + [("gvp", n) for n in range(13, 16)]
    runs += [("center", n) for n in range(13, 18)]
    ops = [wl.Op((cmd, f, "i", "--max-degree", str(n), "--format", "json")) for cmd, n in runs]
    return ops + [wl.Op(("gottlieb", f, "Y", "--max-degree", str(n), "--format", "json"))
                  for n in range(13, 18)]


def error_ops(root: Path, wl) -> list:
    """`validate` and `homology` of every malformed model file, written under
    CHECKOUT/.bench_work/errors/."""
    folder = root / ".bench_work" / "errors"
    folder.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, text, extra in MALFORMED:
        (folder / f"{name}.dgl").write_text(text)
        f = f".bench_work/errors/{name}.dgl"
        for argv in (("validate", f), ("homology", f, "M")):
            ops.append(wl.Op((*argv, *extra, "--format", "json")))
    return ops


def text_argv(argv) -> tuple:
    """argv without its `--format json`: the same op with the text report."""
    i = argv.index("--format")
    return argv[:i] + argv[i + 2:]


def run_op(main, argv) -> tuple:
    """(md5 of exit code, stdout and stderr; stdout) of one CLI op."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    except Exception as exc:  # a traceback is a report too; it must not change
        code = f"traceback: {type(exc).__name__}: {exc}"
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.md5(record.encode()).hexdigest(), out.getvalue()


def digests(root: Path, names) -> dict:
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    import workloads as wl
    from dglcalc.cli import main

    names = names or [*wl.WORKLOADS, *PSEUDO]
    unknown = [n for n in names if n not in wl.WORKLOADS and n not in PSEUDO]
    if unknown:
        raise SystemExit(f"unknown workload: {', '.join(unknown)}")
    os.chdir(root)  # ops name their files relative to the checkout
    wl.write_inputs(root, wl.all_inputs())
    out = {}
    pseudo = {SCALING: lambda: scaling_ops(wl), ERRORS: lambda: error_ops(root, wl)}
    for name in names:
        for op in pseudo[name]() if name in pseudo else wl.WORKLOADS[name].all_ops():
            if op.key in out:
                continue
            if op.emit:  # a later op reads this op's model, never an older one
                Path(op.emit).unlink(missing_ok=True)
            out[op.key], stdout = run_op(main, op.argv)
            if op.emit:
                path = Path(op.emit)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.loads(stdout)["model_text"])
            if "--emit" not in op.argv:
                text = text_argv(op.argv)
                out[" ".join(text)], _ = run_op(main, text)
    return out


def compare(a: Path, b: Path) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    differ = sorted(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
    for key in differ:
        print(key)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", action="append", help=f"default: every workload, {SCALING} and {ERRORS}")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("--out or --compare is required")
    out = args.out.resolve()
    result = digests(args.root.resolve(), args.workload)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} ops digested")
    return 0


if __name__ == "__main__":
    sys.exit(main())
