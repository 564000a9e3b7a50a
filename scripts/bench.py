"""Write BENCH_<label>.json: benchmark summary, Tier-1 timing, line count.

Run from anywhere; it works on the checkout that holds this script:

    python3 scripts/bench.py head

The file, at the root of the checkout, has three parts:

* ``perfbench``: the last JSON line of ``perfbench/run.py --workload all``,
  run with the benchmark's own seed and run length (every workload,
  untraced and traced, with ``correct``, attempted and failed counts and
  the metrics of each);
* ``tier1``: the Tier-1 suite's wall time, its pass/fail counts and its 15
  slowest phases, parsed from pytest's own ``--durations=15`` report;
* ``src_lines`` and ``test_lines``: the line counts of ``src/crdf/*.py``
  and of ``tests/*.py``.

It keeps no timer of its own.  A run takes several minutes.  It exits
non-zero, writing no file, when ``perfbench/run.py`` fails (which it does
when any workload reports ``correct: false``), and non-zero after writing
the file when the Tier-1 suite fails.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown)\s+(\S.*)$")
SUMMARY = re.compile(r"^=*\s*(.*?) in (\d+\.\d+)s")


def perfbench_summary() -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=15"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(DURATION.match, lines) if m]
    outcome, wall = next((m[1], float(m[2]))
                         for m in map(SUMMARY.match, reversed(lines)) if m)
    return {"exit_code": proc.returncode, "outcome": outcome.strip(),
            "wall_s": wall, "slowest": slowest}


def line_count(pattern: str) -> int:
    return sum(len(p.read_text().splitlines()) for p in ROOT.glob(pattern))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label", help="names the file BENCH_<label>.json")
    args = ap.parse_args()
    report = {"label": args.label, "perfbench": perfbench_summary(),
              "tier1": tier1(), "src_lines": line_count("src/crdf/*.py"),
              "test_lines": line_count("tests/*.py")}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if report["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
