"""In-memory spans around rulefuse's public functions, for the traced run.

Each wrapped function is patched at the module attribute its callers
resolve (for example `rulefuse.experiment.predict`, which
`run_experiment` calls, and `rulefuse.cli.load_model`, which `cli eval`
calls), so the program itself is unchanged.  Spans carry a name, start,
end, parent and op id.  Functions that run thousands of times per op,
such as `run_trace`, are aggregated into per-(op, parent, name) totals
instead of one span per call.  A span's self time is its duration minus
the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import rulefuse.automata
import rulefuse.cli
import rulefuse.data
import rulefuse.encoding
import rulefuse.experiment
import rulefuse.model
import rulefuse.rules


def _count_trace(counts, args, trace):
    sentence = args[1]
    counts["matching.traces"] += 1
    counts["matching.words_offered"] += sentence.n
    counts["matching.words_stepped"] += trace.consumed
    counts["matching.accepted"] += trace.accepted


def _count_batch(counts, args, result):
    batch = args[1]
    counts["model.batches"] += 1
    counts["model.train_words"] += sum(item.sentence.n for item in batch)


def _count_predict(counts, args, result):
    counts["model.predict_words"] += args[1].n


def _count_train(counts, args, result):
    config = args[2]
    counts["model.train_runs"] += 1
    counts["model.aborted_runs"] += len(result[1]) < config.epochs


def _count_nfa(counts, args, nfa):
    counts["automata.nfa_states"] += nfa.n_states


def _count_dfa(counts, args, dfa):
    counts["automata.dfa_states"] += dfa.n_states


def _count_mdfa(counts, args, mdfa):
    counts["automata.mdfa_states"] += mdfa.state_count


# (module or class, attribute, span name, aggregate, counter)
TARGETS = (
    (rulefuse.rules, "load_rules", "rules.load_rules", False, None),
    (rulefuse.cli, "load_rules", "rules.load_rules", False, None),
    (rulefuse.automata, "nfa_from_ast", "automata.thompson", False, _count_nfa),
    (rulefuse.automata, "determinize", "automata.subset", False, _count_dfa),
    (rulefuse.automata, "minimize", "automata.minimize", False, _count_mdfa),
    (rulefuse.experiment, "compile_ast", "automata.compile", False, None),
    (rulefuse.experiment, "compile_rules", "experiment.compile_rules", False, None),
    (rulefuse.cli, "compile_rules", "experiment.compile_rules", False, None),
    (rulefuse.encoding, "run_trace", "matching.run_trace", True, _count_trace),
    (rulefuse.experiment, "encode_all", "encoding.encode_all", True, None),
    # a lookup that misses calls encode_all, so hits = lookups - those calls
    (rulefuse.experiment.FeatureCache, "features", "experiment.features", True, None),
    (rulefuse.experiment, "build_items", "experiment.build_items", False, None),
    (rulefuse.cli, "build_items", "experiment.build_items", False, None),
    (rulefuse.experiment, "run_experiment", "experiment.run_experiment", False, None),
    (rulefuse.experiment, "evaluate_accuracy", "experiment.evaluate_accuracy", False, None),
    (rulefuse.cli, "evaluate_accuracy", "experiment.evaluate_accuracy", False, None),
    (rulefuse.experiment, "sample_fewshot", "data.sample_fewshot", False, None),
    (rulefuse.cli, "sample_fewshot", "data.sample_fewshot", False, None),
    (rulefuse.data, "load_dataset", "data.load_dataset", False, None),
    (rulefuse.cli, "load_dataset", "data.load_dataset", False, None),
    (rulefuse.data, "generate_synthetic", "data.generate_synthetic", False, None),
    (rulefuse.cli, "generate_synthetic", "data.generate_synthetic", False, None),
    (rulefuse.model.ModelParams, "init", "model.init", False, None),
    (rulefuse.experiment, "train", "model.train", False, _count_train),
    (rulefuse.cli, "train", "model.train", False, _count_train),
    (rulefuse.model, "loss_and_grads", "model.loss_and_grads", False, _count_batch),
    (rulefuse.experiment, "predict", "model.predict", True, _count_predict),
    (rulefuse.model, "predict", "model.predict", True, _count_predict),
    (rulefuse.cli, "load_model", "model.load_model", False, None),
    (rulefuse.cli, "main", "cli.main", False, None),
)


class _Frame:
    __slots__ = ("name", "span", "child")

    def __init__(self, name: str, span: int | None):
        self.name = name
        self.span = span  # index into Tracer.spans, or None when aggregated
        self.child = 0.0  # seconds covered by direct children


class Tracer:
    """Collects spans while active; `activate`/`deactivate` patch and restore."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, self_s]
        self.agg: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # op -> counter -> n
        self.stack: list[_Frame] = []
        self.op = None
        self._saved: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def activate(self, op) -> None:
        self.op = op
        for owner, attr, name, aggregate, counter in TARGETS:
            # restore the raw attribute later, so a classmethod stays one
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, aggregate, counter))

    def deactivate(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.op = None

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str, aggregate: bool, start: float) -> _Frame:
        span = None
        if not aggregate:
            parent = next((f.span for f in reversed(self.stack) if f.span is not None), -1)
            span = len(self.spans)
            self.spans.append([name, start, None, parent, self.op, None])
        frame = _Frame(name, span)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        own = duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        if frame.span is None:
            parent = self.stack[-1].name if self.stack else None
            totals = self.agg[(self.op, parent, frame.name)]
            totals[0] += 1
            totals[1] += duration
            totals[2] += own
        else:
            record = self.spans[frame.span]
            record[2] = end
            record[5] = own

    def _wrap(self, fn, name, aggregate, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            frame = tracer._enter(name, aggregate, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, time.perf_counter())
            if counter is not None:
                counter(tracer.counts[tracer.op], args, result)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def self_times(self, ops) -> dict[str, float]:
        """Self seconds per span name, summed over the given op ids."""
        ops = set(ops)
        totals: dict[str, float] = defaultdict(float)
        for name, _, _, _, op, own in self.spans:
            if op in ops:
                totals[name] += own
        for (op, _, name), (_, _, own) in self.agg.items():
            if op in ops:
                totals[name] += own
        return totals

    def calls(self, ops, name: str, parent: str | None = None) -> int:
        """Number of aggregated calls of `name` (under `parent`, if given)."""
        ops = set(ops)
        return sum(
            c for (op, p, n), (c, _, _) in self.agg.items()
            if op in ops and n == name and parent in (None, p)
        )

    def inclusive_time(self, ops, name: str) -> float:
        """Total seconds of the spans called `name` in the given ops."""
        ops = set(ops)
        return sum(e - s for n, s, e, _, op, _ in self.spans if n == name and op in ops)

    def counts_for(self, ops) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for op in ops:
            for key, value in self.counts.get(op, {}).items():
                totals[key] += value
        return totals

    def dump(self, path) -> None:
        """Write every span and aggregate as JSON."""
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o, "self": own}
                for n, s, e, p, o, own in self.spans
            ],
            "aggregates": [
                {"op": op, "parent": parent, "name": name, "calls": c, "total": t, "self": own}
                for (op, parent, name), (c, t, own) in self.agg.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
