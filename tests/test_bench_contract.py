"""The benchmark's traced run agrees with the package: every workload's reports
are correct, identical with and without tracing, and every boundary the tracer
lists still fires.  The harness writes only under the ignored `.bench_work/`."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["gseq-onecell", "constructions", "cmd-mix"])
def test_traced_bench_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11",
         "--seconds", "0.2", "--trace", "1"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    info = json.loads(lines[-2].removeprefix("# "))
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert info["silent_boundaries"] == []
    assert info["reports_identical_traced_untraced"] is True
