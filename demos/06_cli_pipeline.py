"""
Driving the command-line front end
===================================

Every analysis is also reachable from the `henonshift` executable, with
stable JSON/CSV output and a three-way exit-code contract (0 success,
1 usage error, 2 analysis failed).  This script shells out the same way
a batch pipeline would, running the executable's entry point as
`python -m henonshift.cli` so that it works from a checkout without an
install.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*args):
    r = subprocess.run(
        [sys.executable, "-m", "henonshift.cli", *args],
        capture_output=True,
        text=True,
    )
    print(f"$ henonshift {' '.join(args)}   -> exit {r.returncode}")
    return r


with tempfile.TemporaryDirectory(prefix="henonshift-demo-") as tmp:
    workdir = Path(tmp)
    graph = workdir / "golden.json"
    graph.write_text(json.dumps({
        "vertices": ["0", "1"],
        "base": "0",
        "arrows": [["0", "0"], ["0", "1"], ["1", "0"]],
    }))

    r = run("shift", "entropy", "--graph", str(graph), "--no-timestamp")
    print(json.dumps(json.loads(r.stdout)["result"], indent=2), "\n")

    # orbit census straight to CSV
    out = workdir / "census.csv"
    run("orbits", "census", "--a", "-2.0", "--p", "4",
        "--format", "csv", "--out", str(out))
    print("\n".join(out.read_text().splitlines()[:4]), "\n")

    # analysis-level failures exit 2 without a traceback: here the KS
    # distance cannot beat an absurd threshold
    r = run("orbits", "equidist", "--a", "-2.0", "--p", "10", "--threshold", "1e-9")
    print(json.loads(r.stdout)["result"]["distance"], "\n")

    # usage errors exit 1 with a pointer at the offending input
    bad = workdir / "bad.json"
    bad.write_text('{"vertices": ["0"],\n  "base" "0"}')
    r = run("shift", "entropy", "--graph", str(bad))
    print(r.stderr.strip())
