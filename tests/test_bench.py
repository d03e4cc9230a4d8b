"""The benchmark command end to end: each workload runs a short seed-1 run,
passes its own correctness checks and reproduces its recorded digests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# seed-1 digest prefixes of each workload's episode, and of the reduced
# solve every workload runs, as the record line prints them
EPISODE_DIGESTS = {
    "seven-trellis": "17ad50fa57f3",
    "seven-heuristics": "390e35ee31d3",
    "reduced-policy": "d50d455c5bc8",
}
POLICY_DIGEST = "d8b0a70bfe66"


@pytest.mark.slow
@pytest.mark.parametrize("workload", list(EPISODE_DIGESTS))
def test_short_run_is_correct_and_reproduces_digests(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    record = json.loads(next(line for line in lines if line.startswith("record ")).split(" ", 1)[1])
    assert record["digests"]["episode"].startswith(EPISODE_DIGESTS[workload])
    assert record["digests"]["policy"].startswith(POLICY_DIGEST)
