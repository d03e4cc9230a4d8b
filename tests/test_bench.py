"""The benchmark command end to end: each workload runs a short run at
seeds 1 and 7, passes its own correctness checks and reproduces its
recorded digests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# digest prefixes of each workload's episode by seed, and of the reduced
# solve every workload runs, as the record line prints them
EPISODE_DIGESTS = {
    1: {
        "seven-trellis": "17ad50fa57f3",
        "seven-heuristics": "390e35ee31d3",
        "reduced-policy": "d50d455c5bc8",
    },
    7: {
        "seven-trellis": "27607103fba3",
        "seven-heuristics": "762ef75f46aa",
        "reduced-policy": "90dccaa1ded2",
    },
}
POLICY_DIGEST = "d8b0a70bfe66"
RUNS = [
    pytest.param(seed, workload, id=workload if seed == 1 else f"{workload}-seed{seed}")
    for seed, digests in EPISODE_DIGESTS.items() for workload in digests
]


@pytest.mark.slow
@pytest.mark.parametrize("seed, workload", RUNS)
def test_short_run_is_correct_and_reproduces_digests(seed, workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    record = json.loads(next(line for line in lines if line.startswith("record ")).split(" ", 1)[1])
    assert record["digests"]["episode"].startswith(EPISODE_DIGESTS[seed][workload])
    assert record["digests"]["policy"].startswith(POLICY_DIGEST)
