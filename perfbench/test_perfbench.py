"""Self-test of the benchmark harness at smoke budgets.

Runs every workload through `run.py --workload all --smoke`, untraced and
then traced, and checks that each metric BENCHMARK.json declares is printed
with its unit and that every output check ran and passed. Timings are not
asserted: they are noisy on small machines.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {"codec_history_finite", "finite_curves", "expert_beats_random",
          "ckpt_digest", "round_determinism"}

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _run_all(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["workloads"]


def test_every_metric_printed_with_unit_and_every_check_runs():
    # the traced pass repeats the untraced one's seed, budget and code, so
    # its record must match the stored digest (run_determinism)
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        out = _run_all(trace)
        assert set(out) == {w["name"] for w in SPEC["workloads"]}
        for name, o in out.items():
            result, checks = o["result"], o["checks"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, name
            assert 0 <= result["failed"] < result["attempted"]
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared}
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())
            expected = CHECKS | ({"run_determinism"} if trace else set())
            assert expected <= set(checks), (name, checks)
            assert all(failed == 0 and passed > 0 for passed, failed in checks.values())


def test_failed_operation_is_counted_with_its_type():
    ledger = run.Ledger()
    assert ledger.op("ok", lambda: 3) == 3
    assert ledger.op("bad", lambda: [][1]) is None
    assert ledger.attempted == 2
    assert [f[:2] for f in ledger.failures] == [("bad", "IndexError")]
    ledger.check("c", False, "detail")
    assert ledger.checks == {"c": [0, 1]} and ledger.problems == ["c: detail"]


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learner-arm3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
