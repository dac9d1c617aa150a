"""Freeze bench/expected.json: the invariants every benchmark op must reproduce.

    python3 bench/make_expected.py [--check]

Runs every op that any seed of any workload can issue, once, and records its
exit code, its invariant view (the JSON report without representative
strings) and a digest of those strings.  Before writing, it cross-checks the
recorded values against the paper and against the brute-force oracles in
tests/oracles.py; any disagreement aborts.  With --check it compares against
the committed file instead of writing it.  Re-run it only when an output
change is intended, and say so in CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def record_ops(main):
    """(expected entry per op key, parsed report per op key)."""
    ops_out, reports = {}, {}
    for name, workload in wl.WORKLOADS.items():
        start = time.perf_counter()
        for op in workload.all_ops():
            code, stdout, *_ = worker.call_cli(main, op.argv)
            entry = {"exit": code}
            if code == 0:
                report = reports[op.key] = json.loads(stdout)
                entry["view"], entry["rep"] = wl.split_report(report)
                if op.emit:
                    worker.write_emitted(op, stdout)
            elif op.argv[0] == "gottlieb" and code == 3 and "--degrees" not in op.argv:
                entry["known_failure"] = True
            else:
                raise SystemExit(f"op fails at the reference commit: {op.key} -> {code!r}")
            ops_out[op.key] = entry
        print(f"{name}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return ops_out, reports


def _trees(model):
    """Generator degrees and differential as bracket trees, for the oracles."""
    from oracles import left_normed

    alg = model.algebra
    degrees = {g.name: g.degree for g in model.generators}
    diff = {}
    for gname, value in model.diff.items():
        diff[gname] = {left_normed(alg.word_names(w)): c for w, c in value.terms.items()}
    return degrees, diff


def oracle_dims(model, top: int) -> dict:
    from oracles import all_words, homology_dim

    degrees, diff = _trees(model)
    out = {}
    for n in range(1, top + 1):
        if len(all_words(degrees, n + 1)) > 400:
            break
        out[n] = homology_dim(degrees, diff, n)
    return out


def additivity(reports: dict) -> dict:
    """Base and wedge homology per product variant, cross-checked by the oracles."""
    from dglcalc.modelfile import parse_workspace
    from oracles import lie_dim

    wedge_cache = {}
    out = {}
    for slot in wl.PRODUCT_SLOTS:
        spheres = [int(s) for s in slot.spheres.split(",")]
        key = slot.spheres
        if key not in wedge_cache:
            degrees = {f"v{i}": n - 1 for i, n in enumerate(spheres)}
            wedge_cache[key] = {str(n): lie_dim(degrees, n) for n in range(1, 6)}
        for v in range(wl.VARIANTS):
            path = wl.input_path(slot, v)
            base = parse_workspace(Path(path).read_text(), truncation=slot.truncation).model("B")
            dims = {str(n): d for n, d in oracle_dims(base, 5).items()}
            if len(dims) < 5:
                raise SystemExit(f"oracle window too small for {path}")
            out[f"{slot.name}-{v:02d}"] = {"base": dims, "wedge": wedge_cache[key]}
            # the product's own report must already satisfy additivity
            hom = reports[wl.product_ops(slot, v)[1].key]
            for entry in hom["degrees"]:
                n = str(entry["internal"])
                assert entry["dimension"] == dims[n] + wedge_cache[key][n], (path, n)
    return out


def paper_checks(reports: dict):
    """The paper's headline values, checked once when the file is frozen."""
    def view(*argv):
        return reports[" ".join(argv + ("--format", "json"))]

    def dims(v, field="dimension"):
        return [d[field] for d in v["degrees"]]

    fx = wl.FIXTURES
    pinch = (f"{fx}/cp2_to_s4.dgl", "f", "--top-degree", "4", "--max-degree", "10")
    assert dims(view("evsub", *pinch)) == [0], "pinch evaluation subgroup"
    assert dims(view("center", *pinch)) == [1], "pinch Whitehead center"
    assert dims(view("gvp", *pinch), "quotient_dim") == [1], "pinch quotient"
    assert dims(view("omega", f"{fx}/one_cell_attachment.dgl", "i", "--top-degree", "3")) == [1]
    assert dims(view("omega", f"{fx}/contractible_pair.dgl", "i", "--top-degree", "3")) == [0]
    coformal = f"{fx}/s3_into_s3xs3.dgl"
    gvp = [d for d in view("gvp", coformal, "j")["degrees"] if d["trusted"]]
    omega = [d for d in view("omega", coformal, "j")["degrees"] if d["trusted"]]
    assert gvp and all(d["quotient_dim"] == 0 for d in gvp), "coformal G = P"
    assert omega and all(d["omega_dim"] == 0 for d in omega), "coformal omega = 0"
    for n in (13, 14, 15):
        g = view("gseq", f"{fx}/one_cell_attachment.dgl", "i", "--max-degree", str(n))
        assert [d["omega_dim"] for d in g["degrees"] if d["internal"] == 2] == [1]


def oracle_checks(reports: dict):
    """Homology dimensions of every fixture model against the brute-force oracle."""
    from dglcalc.modelfile import parse_workspace

    checked = 0
    for f, m in wl.FIXTURE_MODELS:
        path = f"{wl.FIXTURES}/{f}"
        model = parse_workspace(Path(path).read_text(), truncation=12).model(m)
        v = reports[" ".join(("homology", path, m, "--format", "json"))]
        got = {d["internal"]: d["dimension"] for d in v["degrees"]}
        for n, want in oracle_dims(model, 11).items():
            if n in got:
                assert got[n] == want, (path, m, n, got[n], want)
                checked += 1
    print(f"oracle: {checked} fixture homology dimensions agree", file=sys.stderr)


def build() -> dict:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "tests"))
    worker.import_dglcalc()
    from dglcalc.cli import main

    inputs = wl.write_inputs(ROOT, sorted(wl.all_inputs()))
    ops, reports = record_ops(main)
    paper_checks(reports)
    oracle_checks(reports)
    return {
        "note": "frozen by bench/make_expected.py; see bench/NOTES.md",
        "inputs": inputs,
        "additivity": additivity(reports),
        "ops": ops,
    }


def dumps(data: dict) -> str:
    """Sorted JSON with one line per input, additivity entry and op."""
    def line(key, value):
        return f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True, separators=(',', ':'))}"

    blocks = []
    for section in sorted(data):
        value = data[section]
        if isinstance(value, dict):
            body = ",\n".join(line(k, value[k]) for k in sorted(value))
            blocks.append(f"{json.dumps(section)}: {{\n{body}\n}}")
        else:
            blocks.append(f"{json.dumps(section)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    args = parser.parse_args(argv)
    data = build()
    text = dumps(data)
    if args.check:
        same = wl.EXPECTED.read_text() == text
        print("expected.json is current" if same else "expected.json differs")
        return 0 if same else 1
    wl.EXPECTED.write_text(text)
    print(f"wrote {wl.EXPECTED} ({len(data['ops'])} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
