"""Regenerate ``expected.json``: the simulated outputs of every input set.

    python3 perfbench/make_expected.py [--workload NAME ...]

Runs one untraced round per workload and input set, each in a fresh
``worker.py`` process, and records the outputs ``run.py`` checks.  Run it
only when a change is meant to alter simulated results (a policy fix, a new
workload parameter), and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, scrubbed_env  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    env, _ = scrubbed_env()
    for name in args.workload or sorted(WORKLOADS):
        inputs = {}
        for seed in range(INPUT_SETS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", name,
                 "--seed", str(seed), "--mode", "run", "--trace", "0"],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                check=True,
            )
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            inputs[str(seed)] = report["outputs"]
            print(f"{name} input {seed}: {report['timed_s']:.1f} s",
                  file=sys.stderr)
        expected[name] = {"params": WORKLOADS[name].params, "inputs": inputs}
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
