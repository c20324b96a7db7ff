"""Fast self-test of the benchmark; asserts no timings.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes one short untraced run and two
short traced runs with the same seed, and checks that

* the last stdout line is the result object with exactly its four keys,
  correct, and with no failed op;
* every end-to-end (untraced) or per-layer (traced) metric is emitted with
  the unit BENCHMARK.json gives it, and nothing else;
* the traced counts (calls_per_op and the two ratios) repeat exactly.

It also checks that the benchmark refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.2"
SEED = "7"
COUNTS = (".calls_per_op", ".accept_ratio", ".gate_pass_ratio")


def run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc, workload, trace):
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, trace, proc.stderr)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, (
        workload, trace, set(result["metrics"]) ^ {m["name"] for m in declared})
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (metric["name"], got["value"])
    return result


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNTS)}


def check_bare_directory():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "benchmark ran without the program's sources"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        result_of(run(workload, 0), workload, 0)
        first = counts(result_of(run(workload, 1), workload, 1))
        second = counts(result_of(run(workload, 1), workload, 1))
        assert first == second, f"{workload}: traced counts differ between identical runs"
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
