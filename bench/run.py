"""rulefuse benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in workloads.py and
described in README.md.  With --trace 0 the run measures the end-to-end
metrics with no instrumentation; with --trace 1 it wraps rulefuse's
public functions (tracer.py) and reports the per-layer metrics instead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it holds the machine record and every timing's
median, quartiles, tail percentile and sample count.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin OpenBLAS before numpy loads it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-ups per run: at least 3, and at least this many seconds of them
SETUP_REPEATS, SETUP_SECONDS = 3, 5.0
# reference slices timed after each op (and once before the first op)
REFERENCE_SLICES = 8


def _require_sources() -> None:
    for rel in ("src/rulefuse/__init__.py", "tests/oracles.py"):
        if not (ROOT / rel).is_file():
            sys.exit(f"bench: {rel} not found under {ROOT}; run from a rulefuse checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def machine_record() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    record = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": None,
        "openblas_threads": None,
    }
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and config is not None:
                    getter.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    record["openblas_threads"] = getter()
                    record["openblas"] = config().decode()
                    return record
    return record


def stats(samples: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    out = {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n}
    for pct in (99.9, 99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(ordered, n=1000)[round(pct * 10) - 1]
            break
    return out


class Run:
    """Op bookkeeping shared by both modes."""

    def __init__(self, workload):
        self.workload = workload
        self.results: list = []
        self.errors: dict[int, list[str]] = {}
        self.attempted = 0

    def attempt(self, i: int) -> float:
        """Run op i and its checks; returns the op's seconds.

        Outputs are kept only for the first `min_ops` ops, which the
        accuracy and the final checks read, so memory does not grow with
        the number of ops a run completes.
        """
        self.attempted += 1
        kept = None
        start = time.perf_counter()
        try:
            out = self.workload.op(i)
        except Exception:
            elapsed = time.perf_counter() - start
            self.fail(i, traceback.format_exc())
        else:
            elapsed = time.perf_counter() - start
            kept = self.workload.keep(i, out)
            for message in self.workload.check(i, kept):
                self.fail(i, message)
        if i == len(self.results) and i < self.workload.min_ops:
            self.results.append(kept)
        return elapsed

    def fail(self, i, message: str) -> None:
        self.errors.setdefault(i, []).append(message)
        print(f"bench: op {i} failed: {message}", file=sys.stderr)

    def finish(self) -> None:
        try:
            found = self.workload.finish(self.results)
        except Exception:
            found = {0: [traceback.format_exc()]}
        for i, messages in found.items():
            for message in messages:
                self.fail(i, message)

    @property
    def failed(self) -> int:
        return len(self.errors)


def measure(workload, seconds: float) -> tuple[dict, dict, Run]:
    """Untraced run: repeated set-up, then closed-loop ops for `seconds`."""
    from reference import time_slices

    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.expect()
    run = Run(workload)
    times, refs, rel = [], [], []
    before = time_slices(REFERENCE_SLICES)
    first_ref = statistics.median(before)
    deadline = time.perf_counter() + seconds
    i = 0
    # whole cycles only, so every op kind weighs the same in op_rel
    while i < workload.min_ops or i % workload.op_kinds or time.perf_counter() < deadline:
        times.append(run.attempt(i))
        after = time_slices(REFERENCE_SLICES)
        rel.append(times[-1] / statistics.median(before + after))
        refs.extend(after)
        before = after
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.finish()
    try:
        accuracy = workload.accuracy(run.results)
        extra = workload.detail(run.results)
    except Exception:
        run.fail(0, traceback.format_exc())
        accuracy, extra = 0.0, {}
    # op cost in reference slices: the median per op kind, averaged over kinds
    kinds = workload.op_kinds
    op_rel = statistics.mean(statistics.median(rel[k::kinds]) for k in range(kinds))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_rel": (op_rel, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy": (accuracy, "fraction"),
    }
    detail = {"setup_s": stats(setups), "setup_rel": statistics.median(setups) / first_ref,
              workload.op_name: stats(times), "op_rel": stats(rel), "reference_s": stats(refs)}
    for name, value in extra.items():
        detail[name] = stats(value) if isinstance(value, list) else value
    return metrics, detail, run


def measure_traced(workload, seconds: float, trace_path: Path) -> tuple[dict, dict, Run]:
    """Traced run: each op runs untraced and then traced, for the overhead ratio."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.activate("setup")
    start = time.perf_counter()
    try:
        workload.setup()
    finally:
        tracer.deactivate()
    setup_time = time.perf_counter() - start
    workload.expect()
    run = Run(workload)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds / 2
    i = 0
    while i < workload.op_kinds or i % workload.op_kinds or time.perf_counter() < deadline:
        plain.append(run.attempt(i))
        tracer.activate(i)
        try:
            traced.append(run.attempt(i))
        finally:
            tracer.deactivate()
        i += 1
    ops = range(i)
    tracer.dump(trace_path)
    metrics = layer_metrics(tracer, ops, sum(traced), sum(plain), setup_time)
    detail = {"untraced_op_s": stats(plain), "traced_op_s": stats(traced),
              "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, detail, run


def layer_metrics(tracer, ops, op_time: float, plain_time: float, setup_time: float) -> dict:
    """Per-layer metrics: self-time shares of traced op time, and counts per op."""
    own = tracer.self_times(ops)
    counts = tracer.counts_for(ops)

    def pct(*names):
        return 100.0 * sum(own.get(n, 0.0) for n in names) / op_time

    def per_op(key):
        return counts.get(key, 0) / len(ops)

    def us_per_word(name, words):
        return 1e6 * own.get(name, 0.0) / counts[words] if counts.get(words) else 0.0

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    experiment_names = [n for n in own if n.startswith("experiment.")]
    lookups = tracer.calls(ops, "experiment.features")
    misses = tracer.calls(ops, "encoding.encode_all", parent="experiment.features")
    setup_own = tracer.self_times(["setup"])
    return {
        "rules.parse_pct": (pct("rules.load_rules"), "%"),
        "automata.thompson_pct": (pct("automata.thompson"), "%"),
        "automata.subset_pct": (pct("automata.subset"), "%"),
        "automata.minimize_pct": (pct("automata.minimize"), "%"),
        "automata.nfa_states": (per_op("automata.nfa_states"), "count"),
        "automata.dfa_states": (per_op("automata.dfa_states"), "count"),
        "automata.mdfa_states": (per_op("automata.mdfa_states"), "count"),
        "automata.min_ratio": (ratio("automata.mdfa_states", "automata.dfa_states"), "ratio"),
        "matching.trace_pct": (pct("matching.run_trace"), "%"),
        "matching.traces": (per_op("matching.traces"), "count"),
        "matching.words_offered": (per_op("matching.words_offered"), "count"),
        "matching.words_stepped": (per_op("matching.words_stepped"), "count"),
        "matching.stop_ratio": (ratio("matching.words_stepped", "matching.words_offered"), "ratio"),
        "matching.accept_ratio": (ratio("matching.accepted", "matching.traces"), "ratio"),
        "encoding.self_pct": (pct("encoding.encode_all"), "%"),
        "encoding.calls": (tracer.calls(ops, "encoding.encode_all") / len(ops), "count"),
        "experiment.self_pct": (pct(*experiment_names), "%"),
        "experiment.build_items_pct": (
            100.0 * tracer.inclusive_time(ops, "experiment.build_items") / op_time, "%"),
        "experiment.cache_lookups": (lookups / len(ops), "count"),
        "experiment.cache_hit_ratio": (1.0 - misses / lookups if lookups else 0.0, "ratio"),
        "model.init_pct": (pct("model.init"), "%"),
        "model.loss_and_grads_pct": (pct("model.loss_and_grads"), "%"),
        "model.train_self_pct": (pct("model.train"), "%"),
        "model.batches": (per_op("model.batches"), "count"),
        "model.train_words": (per_op("model.train_words"), "count"),
        "model.lossgrad_us_per_word": (
            us_per_word("model.loss_and_grads", "model.train_words"), "us"),
        "model.aborted_runs": (per_op("model.aborted_runs"), "count"),
        "model.predict_pct": (pct("model.predict"), "%"),
        "model.predict_words": (per_op("model.predict_words"), "count"),
        "model.predict_us_per_word": (us_per_word("model.predict", "model.predict_words"), "us"),
        "model.load_pct": (pct("model.load_model"), "%"),
        "data.load_pct": (pct("data.load_dataset"), "%"),
        "data.sample_pct": (pct("data.sample_fewshot"), "%"),
        "data.generate_setup_pct": (
            100.0 * setup_own.get("data.generate_synthetic", 0.0) / setup_time, "%"),
        "cli.self_pct": (pct("cli.main"), "%"),
        "bench.self_pct": (100.0 * (op_time - sum(own.values())) / op_time, "%"),
        "trace.overhead_ratio": (op_time / plain_time, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_sources()
    import rulefuse
    from workloads import WORKLOADS, Sizes

    if not Path(rulefuse.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: imported rulefuse from {rulefuse.__file__}, not from {ROOT / 'src'}")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    machine = machine_record()
    threads = machine["openblas_threads"]
    if threads is not None and threads > machine["nproc"]:
        sys.exit(f"bench: OpenBLAS runs {threads} threads on {machine['nproc']} cpus")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Sizes())
    print(json.dumps({"machine": machine, **result["detail_line"]}))
    print(json.dumps(result["final"]))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Set up, measure and check one workload; returns the two output lines."""
    from workloads import WORKLOADS

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        workload = WORKLOADS[name](seed, workdir, ROOT, sizes)
        if trace:
            trace_path = out_dir / f"trace_{name}_seed{seed}.json"
            metrics, detail, run = measure_traced(workload, seconds, trace_path)
        else:
            metrics, detail, run = measure(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail_line = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "failed_ratio": run.failed / run.attempted,
        "timings": detail,
        "errors": {str(i): msgs[:3] for i, msgs in list(run.errors.items())[:5]},
    }
    final = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"detail_line": detail_line, "final": final}


if __name__ == "__main__":
    raise SystemExit(main())
