"""Command-line interface.

Subcommands: compile, trace, encode, train, eval, fewshot, synth-gen,
experiment.  An `@FILE` argument is replaced by the arguments in FILE,
split like a shell command line (quotes and `#` comments work), so a
flags file parses exactly like the command line; a later flag wins.

Each run setting and its default are written once, as a field of
`TrainConfig`, `ExperimentConfig` or `SyntheticSpec`; its flag stores under the
field's name with no default (SUPPRESS), so `config_from_flags` keeps the field's.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import shlex
import sys

from .automata import to_dot
from .data import (
    FewShotConfig,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_labels,
    sample_fewshot,
    write_dataset,
)
from .encoding import RuleMatcher
from .errors import CheckpointError, NumericalError, RulefuseError, require
from .experiment import (
    ExperimentConfig,
    FeatureCache,
    build_items,  # noqa: F401 - bench/tracer.py patches rulefuse.cli.build_items
    check_variant,
    compile_rules,
    evaluate_accuracy,
    fit_run,
    init_model,
    rows_to_csv,
    rule_baseline_accuracy,
    run_experiment,
)
from .matching import Sentence, run_trace
from .model import (
    VARIANTS,
    TrainConfig,
    load_model,
    load_pretrained_embeddings,
    save_model,
    train,  # noqa: F401 - bench/tracer.py patches rulefuse.cli.train
)
from .rules import RuleSet, load_rules


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


_int_list.__name__ = "int list"  # argparse names the type in its errors


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _or_none(convert):
    """`convert`, or None for `none` (the flag's feature switched off)."""

    def parse(text: str):
        return None if text.strip().lower() == "none" else convert(text)

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def config_from_flags(cls, args):
    """A `cls` config built from the parsed flags named after its fields."""
    names = {field.name for field in dataclasses.fields(cls)}
    return cls(**{name: value for name, value in vars(args).items() if name in names})


def _require_out_dir(path: str | None) -> None:
    """Fail before any work when `--out` names a file in a missing directory."""
    parent = os.path.dirname(path) if path else ""
    if parent and not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)


def _load_ruleset(args, known_labels: set[str] | None = None) -> RuleSet:
    if not args.rules:
        return RuleSet(())
    return load_rules(args.rules, known_labels)


def _output(path: str | None):
    """The file at `path`, opened for writing and closed on exit, or stdout."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def cmd_compile(args) -> int:
    _require_out_dir(args.out)
    known = set(load_labels(args.labels)) if args.labels else None
    ruleset = _load_ruleset(args, known)
    mdfas = compile_rules(ruleset)
    with _output(args.out) as fh:
        for rule, mdfa in zip(ruleset.rules, mdfas):
            if args.dot:
                fh.write(to_dot(mdfa, name=f"rule_{rule.rule_id}") + "\n")
            else:
                fh.write(
                    f"{rule.rule_id}\t{rule.label}\tstates={mdfa.state_count}\t"
                    f"finals={sorted(mdfa.finals)}\tdead={mdfa.dead}\n"
                )
    return 0


def cmd_trace(args) -> int:
    ruleset = _load_ruleset(args)
    mdfas = compile_rules(ruleset)
    sentence = Sentence.from_text(args.sentence)
    for rule, mdfa in zip(ruleset.rules, mdfas):
        trace = run_trace(mdfa, sentence, full_match=args.full_match)
        visited = ",".join(str(s) for s in trace.visited)
        print(
            f"{rule.rule_id}\t{rule.label}\taccepted={trace.accepted}\t"
            f"consumed={trace.consumed}\tvisited={visited}"
        )
    return 0


def cmd_encode(args) -> int:
    _require_out_dir(args.out)
    dataset = load_dataset(args.train)
    ruleset = _load_ruleset(args, set(dataset.label_names))
    matcher = RuleMatcher(ruleset, compile_rules(ruleset))
    records = matcher.records(
        [sentence for sentence, _ in dataset.samples],
        [dataset.label_names[label] for _, label in dataset.samples],
        gate_instance=args.gate_instance,
        full_match=args.full_match,
    )
    with _output(args.out) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return 0


def cmd_train(args) -> int:
    _require_out_dir(args.out)
    config = config_from_flags(TrainConfig, args)
    dataset = load_dataset(args.train)
    ruleset = _load_ruleset(args, set(dataset.label_names))
    check_variant(args.variant, ruleset)
    dev = load_dataset(args.dev, label_names=dataset.label_names) if args.dev else None
    test = load_dataset(args.test, label_names=dataset.label_names) if args.test else None
    cache = FeatureCache(ruleset, compile_rules(ruleset))
    params = init_model(args.variant, cache, dataset, config)
    loaded = load_pretrained_embeddings(params, args.embeddings) if args.embeddings else None
    history, acc = fit_run(params, cache, dataset, config, dev, test)
    if loaded is not None:
        print(f"loaded {loaded} pretrained embedding rows")
    completed = [entry for entry in history if "aborted" not in entry]
    if not completed:
        raise NumericalError(
            f"training aborted ({history[-1]['aborted']}) in epoch 1, before any "
            "epoch completed; nothing written"
        )
    last = completed[-1]
    dev_part = (
        f" dev_accuracy={last['dev_accuracy']:.4f}" if last["dev_accuracy"] is not None else ""
    )
    print(f"epochs={len(completed)} loss={last['loss']:.4f}{dev_part}")
    if len(completed) < len(history):
        print(
            f"training aborted ({history[-1]['aborted']}) in epoch {history[-1]['epoch'] + 1}; "
            "kept the parameters of the last finite epoch"
        )
    if acc is not None:
        print(f"test_accuracy={acc:.4f}")
    if args.out:
        save_model(params, args.out)
        print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    params = None if args.rule_only else load_model(args.model)
    if params is not None and params.labels is None:
        raise CheckpointError(
            f"checkpoint {args.model} records no label names, so the test labels "
            "cannot be matched to its classes"
        )
    dataset = load_dataset(args.test, label_names=params.labels if params else None)
    ruleset = _load_ruleset(args, set(dataset.label_names))
    if params is None:
        mdfas = compile_rules(ruleset)
        print(f"rule_only_accuracy={rule_baseline_accuracy(ruleset, mdfas, dataset):.4f}")
        return 0
    if params.variant == "nnsc":
        # it reads no rule features: the rules are parsed and label-checked
        # above, but never compiled
        ruleset = RuleSet(())
    print(f"accuracy={evaluate_accuracy(params, ruleset, compile_rules(ruleset), dataset):.4f}")
    return 0


def cmd_fewshot(args) -> int:
    dataset = load_dataset(args.train)
    require(bool(args.q), "the q list is empty")
    configs = [FewShotConfig(q, args.seeds, args.augment_top3) for q in args.q]
    os.makedirs(args.out, exist_ok=True)
    for config in configs:
        for seed, subset in zip(config.seeds, sample_fewshot(dataset, config)):
            path = os.path.join(args.out, f"fewshot_q{config.q}_seed{seed}.tsv")
            write_dataset(subset, path)
            print(f"{path}\t{len(subset)} samples")
    return 0


def cmd_synth_gen(args) -> int:
    train_set, test_set, rule_lines = generate_synthetic(config_from_flags(SyntheticSpec, args))
    os.makedirs(args.out, exist_ok=True)
    write_dataset(train_set, os.path.join(args.out, "train.tsv"))
    write_dataset(test_set, os.path.join(args.out, "test.tsv"))
    with open(os.path.join(args.out, "rules.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rule_lines) + "\n")
    print(
        f"wrote {len(train_set)} train / {len(test_set)} test samples and "
        f"{len(rule_lines)} rules to {args.out}"
    )
    return 0


def cmd_experiment(args) -> int:
    _require_out_dir(args.out)
    config = config_from_flags(ExperimentConfig, args)
    train_dataset = load_dataset(args.train)
    test_dataset = load_dataset(args.test, label_names=train_dataset.label_names)
    ruleset = _load_ruleset(args, set(train_dataset.label_names))
    mdfas = compile_rules(ruleset)
    rows = run_experiment(ruleset, mdfas, train_dataset, test_dataset, config, args.out)
    if args.out:
        print(f"results written to {args.out}")
    for row in rows:
        if row["sample_seed"] == "all":
            print(
                f"{row['variant']} q={row['q']} accuracy={row['accuracy']}"
            )
    if not args.out:
        print(rows_to_csv(rows), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that splits each line of an `@FILE` like a shell would,
    dropping a leading UTF-8 byte-order mark."""

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        try:
            return shlex.split(arg_line.removeprefix("\ufeff"), comments=True)
        except ValueError as exc:  # an unclosed quote
            self.error(f"{exc} in flags file line {arg_line!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rulefuse",
        description="Word-pattern automata features for a small sentence classifier",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", help="output path")
    out_required = argparse.ArgumentParser(add_help=False)
    out_required.add_argument("--out", required=True, help="output directory")

    rules_flag = argparse.ArgumentParser(add_help=False)
    rules_flag.add_argument("--rules", help="rules file (label<TAB>pattern)")
    rules_required = argparse.ArgumentParser(add_help=False)
    rules_required.add_argument("--rules", required=True, help="rules file (label<TAB>pattern)")

    model_flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    model_flags.add_argument("--epochs", type=int)
    model_flags.add_argument("--lr", type=float)
    model_flags.add_argument("--batch-size", type=int)
    model_flags.add_argument("--emb-dim", type=int, dest="d", metavar="EMB_DIM")
    model_flags.add_argument("--hidden", type=int, dest="h", metavar="HIDDEN")
    model_flags.add_argument("--clip-norm", type=_or_none(float),
                             help="gradient-norm clip; none turns clipping off")

    p = sub.add_parser("compile", parents=[out_flag, rules_required], help="compile rules to automata")
    p.add_argument("--labels", help="optional label file for validation")
    p.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("trace", parents=[rules_required], help="trace a sentence through every rule")
    p.add_argument("--sentence", required=True)
    p.add_argument("--full-match", action="store_true", help="disable the early stop")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("encode", parents=[out_flag, rules_flag], help="write JSONL features for a dataset")
    p.add_argument("--train", required=True, help="dataset to encode")
    p.add_argument("--gate-instance", action="store_true",
                   help="zero instance vectors of rejecting rules")
    p.add_argument("--full-match", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", parents=[out_flag, rules_flag, model_flags], help="train one model")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--dev", help="dev set for early stopping")
    p.add_argument("--variant", default="nnsc", choices=VARIANTS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--patience", type=_or_none(int), default=argparse.SUPPRESS)
    p.add_argument("--embeddings", help="pretrained embedding text file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[rules_flag], help="evaluate a checkpoint or the rule baseline")
    p.add_argument("--test", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--model", help="checkpoint path")
    which.add_argument("--rule-only", action="store_true", help="first-match rule classifier")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fewshot", parents=[out_required], help="write few-shot subsets")
    p.add_argument("--train", required=True)
    p.add_argument("--q", type=_int_list, default=ExperimentConfig.q_values)
    p.add_argument("--seeds", type=_int_list, default=ExperimentConfig.sample_seeds)
    p.add_argument("--augment-top3", type=_or_none(int))
    p.set_defaults(func=cmd_fewshot)

    p = sub.add_parser("synth-gen", parents=[out_required], help="generate the synthetic corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--classes", type=int)
    p.add_argument("--train-size", type=int)
    p.add_argument("--test-size", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("experiment", parents=[out_flag, rules_flag, model_flags],
                       help="run the seeded (variant, q) grid and write a CSV",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--variant", type=_str_list, dest="variants", metavar="VARIANT")
    p.add_argument("--q", type=_int_list, dest="q_values", metavar="Q")
    p.add_argument("--seeds", type=_int_list, dest="sample_seeds", metavar="SEEDS",
                   help="sampling seeds")
    p.add_argument("--train-seeds", type=_int_list)
    p.add_argument("--augment-top3", type=_or_none(int))
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run(argv: list[str] | None = None) -> int:
    """The `rulefuse` console script: `main`, with a RulefuseError or OSError
    reported as one `rulefuse: error: ...` line on stderr and exit code 2."""
    try:
        return main(argv)
    except (RulefuseError, OSError) as exc:
        print(f"rulefuse: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(run())
