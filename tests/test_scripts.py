"""Smoke tests: the scripts under scripts/ run against the current package."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_fixture_reports():
    lines = _run("run_fixture_reports.py")
    assert "  center/evaluation   : dim 1" in lines
    assert "  G-sequence at degree 3: G=2 G(map)=1 Grel=0 omega=1" in lines
    assert "  G-sequence at degree 3: G=1 G(map)=0 Grel=0 omega=0" in lines
    assert "  bounding derivation for <a> found (degree 3)" in lines


def test_random_exactness_audit():
    lines = _run(
        "random_exactness_audit.py", "--morphisms", "3", "--products", "2", "--truncation", "6"
    )
    assert lines[0].startswith("long exact sequence: ") and lines[0].endswith(" 0 failures")
    assert lines[1] == "product models: 2 checked, 0 failures"
    assert lines[2].startswith("brackets: 20 generator sets, ") and lines[2].endswith(" 0 failures")
    assert lines[3].startswith("derivation boundaries: 9 complexes, ") and lines[3].endswith(" 0 failures")
    assert lines[4].startswith("evaluation screen: ") and lines[4].endswith(" 0 failures")
    assert lines[5] == "homotopy invariance: 9 maps, 45 presentations, 0 failures"
    assert lines[6].startswith("object differentials: 27 complexes, ") and lines[6].endswith(" 0 failures")


def test_report_digests_agree_between_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert _run("report_digests.py", "--workload", "gseq-onecell", "--out", str(out)) == [
            "6 ops digested"
        ]
    assert all(key.startswith("gseq fixtures/") for key in json.loads(a.read_text()))
    assert _run("report_digests.py", "--compare", str(a), str(b)) == []


def test_report_digests_cover_the_parse_error_paths(tmp_path):
    out = tmp_path / "errors.json"
    assert _run("report_digests.py", "--workload", "parse-errors", "--out", str(out)) == ["40 ops digested"]
    keys = json.loads(out.read_text())
    assert {key.split()[0] for key in keys} == {"validate", "homology"}
    assert all(".bench_work/errors/" in key for key in keys)
