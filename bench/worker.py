"""Run one workload in this process and print its result as one JSON line.

Started by ``bench/run.py`` in a fresh interpreter with the BLAS and OpenMP
thread variables already pinned, so ``ru_maxrss`` belongs to this workload
alone.  Untraced, it times a closed loop (one client, the next op starts
when the last returns) in rounds of one pass over the op pool, and pauses
the clock at even intervals to time a set-up probe.  Traced, it
times rounds untraced and then the same rounds traced, and replays a prefix
traced to check that the deterministic counts repeat.

    python3 bench/worker.py --workload poncelet --seed 0 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import numrange  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from numrange.errors import NumrangeError  # noqa: E402

WARMUP_SECONDS = 1.0
# An untraced run times whole rounds (one pass over the pool, so every op
# weighs the same) until --seconds have passed, and never fewer than
# MIN_ROUNDS.  A short calibration after each round records the host's speed
# next to the round's own.
MIN_ROUNDS = 3
# A traced run times rounds untraced for this share of --seconds, then the
# same number of rounds traced, then replays this share of the pool traced.
UNTRACED_SHARE = 0.4
REPLAY_SHARE = 0.25
# The host's speed changes within seconds, so the set-up probes are spread
# evenly over the timed loop, with its clock paused, rather than run in a
# burst: setup_s, their median, then samples the same host states as the ops.
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 60


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports numrange and numrange.cli
    and builds the workload's op pool (``bench/probe.py``)."""
    argv = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    start = perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return perf_counter() - start


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy/Python loop: a host-speed diagnostic."""
    h = np.arange(64, dtype=float).reshape(8, 8)
    h = h + h.T
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(2000):
            np.linalg.eigvalsh(h)
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


class Round(NamedTuple):
    oks: list[bool]
    latencies: list[float]
    wall: float
    per_op: list[tuple[int, ...]]  # deterministic counts of each op, when traced


class Loop:
    """Closed-loop runner over an op pool that records per-op outcomes."""

    MAX_ERRORS = 20

    def __init__(self, ops) -> None:
        self.ops = ops
        self.errors: list[str] = []

    def _fail(self, message: str) -> bool:
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)
        return False

    def run_one(self, index: int) -> tuple[bool, float]:
        """Run op ``index`` of the cycled pool; (check passed, call seconds)."""
        op = self.ops[index % len(self.ops)]
        start = perf_counter()
        try:
            out = op.call()
        except NumrangeError as exc:
            return self._fail(f"op {index}: {type(exc).__name__}: {exc}"), perf_counter() - start
        except Exception:  # noqa: BLE001 - counted as a failed op and reported
            return self._fail(f"op {index}: {traceback.format_exc(limit=3)}"), perf_counter() - start
        elapsed = perf_counter() - start
        try:
            ok = bool(op.check(out)) or self._fail(f"op {index}: check failed")
        except Exception:  # noqa: BLE001 - a malformed output fails its check
            ok = self._fail(f"op {index} check: {traceback.format_exc(limit=3)}")
        return ok, elapsed

    def warm_up(self, seconds: float) -> None:
        start, i = perf_counter(), 0
        while perf_counter() - start < seconds:
            self.run_one(i)
            i += 1
        self.errors.clear()

    def round(self, count: int | None = None, tracer: tracing.Tracer | None = None,
              pause=None) -> Round:
        """Run ops 0..count-1 of the pool once (the whole pool by default),
        traced when ``tracer`` is given.  ``pause(elapsed)``, when given, is
        called after each op with the round's timed seconds so far; the time
        it takes is left out of the round's wall time."""
        count = len(self.ops) if count is None else count
        oks, lat, marks = [], [], []
        paused = 0.0
        if tracer is not None:
            marks.append(tracer.counts())
            tracer.install()
        try:
            start = perf_counter()
            for i in range(count):
                if tracer is not None:
                    tracer.op_id = i
                ok, elapsed = self.run_one(i)
                oks.append(ok)
                lat.append(elapsed)
                if tracer is not None:
                    marks.append(tracer.counts())
                if pause is not None:
                    mark = perf_counter()
                    pause(mark - start - paused)
                    paused += perf_counter() - mark
            wall = perf_counter() - start - paused
        finally:
            if tracer is not None:
                tracer.uninstall()
        per_op = [tuple(b - a for a, b in zip(x, y)) for x, y in zip(marks, marks[1:])]
        return Round(oks, lat, wall, per_op)


def untraced(loop: Loop, seconds: float, probe) -> dict:
    """Timed rounds until ``seconds`` of op time have passed, with a call of
    ``probe()`` after every ``seconds / SETUP_PROBES`` of it."""
    tracing.assert_untraced()
    rounds, calibration, setup = [], [], []
    interval = seconds / SETUP_PROBES
    done = 0.0  # timed seconds of the finished rounds

    def pause(elapsed: float) -> None:
        if len(setup) < SETUP_PROBES and done + elapsed >= interval * (len(setup) + 0.5):
            setup.append(probe())

    while len(rounds) < MIN_ROUNDS or done < seconds:
        rounds.append(loop.round(pause=pause))
        done += rounds[-1].wall
        calibration.append(calibration_ms(repeats=3))
    while len(setup) < SETUP_PROBES:  # only when MIN_ROUNDS ended before --seconds
        setup.append(probe())
    tracing.assert_untraced()
    good = [t for r in rounds for ok, t in zip(r.oks, r.latencies) if ok]
    deciles = statistics.quantiles(good, n=10, method="inclusive") if len(good) > 1 else [0.0] * 9
    attempted = sum(len(r.oks) for r in rounds)
    return {
        "attempted": attempted,
        "failed": attempted - len(good),
        "self_checks": {"no_wrapper_installed": True},
        "metrics": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "goodput_ops_per_s": {"value": len(good) / sum(r.wall for r in rounds), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * deciles[4], "unit": "ms"},
            "latency_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms"},
            "success_ratio": {"value": len(good) / attempted, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        },
        "rounds": len(rounds),
        "latency_samples": len(good),
        "samples_beyond_p90": sum(t > deciles[8] for t in good),
        "round_wall_s": [r.wall for r in rounds],
        "round_goodput_ops_per_s": [sum(r.oks) / r.wall for r in rounds],
        "round_calibration_ms": calibration,
        "setup_probes_s": setup,
    }


def traced(loop: Loop, seconds: float, spans_path: Path) -> dict:
    plain, start = [], perf_counter()
    while not plain or perf_counter() - start < UNTRACED_SHARE * seconds:
        plain.append(loop.round())
    tracer = tracing.Tracer()
    with_spans = [loop.round(tracer=tracer) for _ in plain]
    replay = loop.round(max(1, int(REPLAY_SHARE * len(loop.ops))), tracing.Tracer())
    tracer.write_spans(spans_path)
    overhead = sum(r.wall for r in with_spans) / sum(r.wall for r in plain)
    runs = [*with_spans, replay]
    attempted = sum(len(r.oks) for r in runs)
    return {
        "attempted": attempted,
        "failed": attempted - sum(sum(r.oks) for r in runs),
        "self_checks": {
            "counts_repeat": all(r.per_op[: len(replay.per_op)] == replay.per_op for r in with_spans),
            "no_wrapper_after_uninstall": True,
        },
        "metrics": {
            name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in tracer.per_layer(len(with_spans) * len(loop.ops), overhead).items()
        },
        "rounds": len(with_spans),
        "replayed_ops": len(replay.oks),
        "layer_failures": dict(tracer.failures),
        "spans": len(tracer.spans),
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
    }


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                 for k, v in deps.items()},
        "numrange": str(Path(numrange.__file__).resolve().relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()

    if not args.trace:
        setup_probe(args.workload, args.seed)  # untimed: writes the bytecode caches
    start = perf_counter()
    ops = workloads.build(args.workload, args.seed)
    build_s = perf_counter() - start
    loop = Loop(ops)
    loop.warm_up(WARMUP_SECONDS)

    calibration = [calibration_ms()]
    if args.trace:
        result = traced(loop, args.seconds, args.spans)
    else:
        result = untraced(loop, args.seconds, lambda: setup_probe(args.workload, args.seed))
    calibration.append(calibration_ms())

    result.update({
        "pool_size": len(ops),
        "pool_build_s": build_s,
        "calibration_ms": calibration,
        "errors": loop.errors,
        "environment": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
