"""numrange benchmark: one closed-loop workload per run, metrics as JSON.

    python3 bench/run.py --workload poncelet --seed 3 --seconds 30 --trace 0
    python3 bench/run.py                     # every workload, seed 0, untraced

Run from anywhere inside a source checkout; the library is imported from
its ``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.  The
full result, with environment and diagnostics, is also written to
``bench/out``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def _run(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[1:3])} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return _run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30).strip()
    except (BenchError, OSError):
        return None


def src_digest() -> str:
    """SHA-256 of the library sources: identifies the code measured where the
    checkout is not a git repository and ``git_commit`` is null."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--spans", str(OUT / f"{workload}.spans.jsonl")]
    # Warm-up, probes, calibration and, traced, the untraced and replayed
    # rounds come on top of the timed seconds.
    result = json.loads(_run(argv, 3 * seconds + 60).splitlines()[-1])
    result["correct"] = result["failed"] == 0 and all(result["self_checks"].values())
    result["run"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")
    return result


def summary(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def print_human(result: dict) -> None:
    run = result["run"]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {result['rounds']} rounds of {result['pool_size']} ops")
    if "latency_samples" in result:
        print(f"  latency samples {result['latency_samples']}, "
              f"{result['samples_beyond_p90']} beyond p90")
    print(f"  calibration_ms {result['calibration_ms']}  self_checks {result['self_checks']}")
    for error in result["errors"]:
        print(f"  error: {error}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="numrange benchmark")
    parser.add_argument("--workload", default="all",
                        help="a workload named in BENCHMARK.json, or all (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "numrange" / "__init__.py").is_file():
        print(f"bench: no numrange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        names = [w["name"] for w in spec["workloads"]]
    else:
        names = [args.workload]
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_human(result)
        print(json.dumps(summary(result)))
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['run']['workload']}.{name}": metric
                        for r in results for name, metric in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
