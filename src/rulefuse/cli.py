"""Command-line interface.

Subcommands: compile, trace, encode, train, eval, fewshot, synth-gen,
experiment.  A `--config FILE` of flat `key=value` lines overrides any
flag of the same name.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .errors import RulefuseError
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
    TrainConfig,
    load_model,
    load_pretrained_embeddings,
    save_model,
    train,  # noqa: F401 - bench/tracer.py patches rulefuse.cli.train
)
from .rules import RuleSet, load_rules


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _optional_int(text: str) -> int | None:
    """An int, or None for `none` (the flag's feature switched off)."""
    return None if text.strip().lower() == "none" else int(text)


def _optional_float(text: str) -> float | None:
    """A float, or None for `none` (the flag's feature switched off)."""
    return None if text.strip().lower() == "none" else float(text)


def _load_ruleset(args, known_labels: set[str] | None = None) -> RuleSet:
    if not args.rules:
        return RuleSet(())
    return load_rules(args.rules, known_labels)


def _out_handle(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return sys.stdout


def cmd_compile(args) -> int:
    known = set(load_labels(args.labels)) if args.labels else None
    ruleset = _load_ruleset(args, known)
    mdfas = compile_rules(ruleset)
    fh = _out_handle(args)
    try:
        for rule, mdfa in zip(ruleset.rules, mdfas):
            if args.dot:
                fh.write(to_dot(mdfa, name=f"rule_{rule.rule_id}") + "\n")
            else:
                fh.write(
                    f"{rule.rule_id}\t{rule.label}\tstates={mdfa.state_count}\t"
                    f"finals={sorted(mdfa.finals)}\tdead={mdfa.dead}\n"
                )
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_trace(args) -> int:
    ruleset = _load_ruleset(args)
    mdfas = compile_rules(ruleset)
    sentence = Sentence.from_text(args.sentence)
    for rule, mdfa in zip(ruleset.rules, mdfas):
        trace = run_trace(mdfa, sentence, rule_id=rule.rule_id, full_match=args.full_match)
        visited = ",".join(str(s) for s in trace.visited)
        print(
            f"{rule.rule_id}\t{rule.label}\taccepted={trace.accepted}\t"
            f"consumed={trace.consumed}\tvisited={visited}"
        )
    return 0


def cmd_encode(args) -> int:
    dataset = load_dataset(args.train)
    ruleset = _load_ruleset(args, set(dataset.label_names))
    matcher = RuleMatcher(ruleset, compile_rules(ruleset))
    records = matcher.records(
        [sentence for sentence, _ in dataset.samples],
        [dataset.label_names[label] for _, label in dataset.samples],
        gate_instance=args.gate_instance,
        full_match=args.full_match,
    )
    fh = _out_handle(args)
    try:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.train)
    ruleset = _load_ruleset(args, set(dataset.label_names))
    check_variant(args.variant, ruleset)
    dev = load_dataset(args.dev, label_names=dataset.label_names) if args.dev else None
    test = load_dataset(args.test, label_names=dataset.label_names) if args.test else None
    cache = FeatureCache(ruleset, compile_rules(ruleset))
    params = init_model(args.variant, cache, dataset, args.emb_dim, args.hidden, args.seed)
    if args.embeddings:
        loaded = load_pretrained_embeddings(params, args.embeddings)
        print(f"loaded {loaded} pretrained embedding rows")
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        patience=args.patience,
        clip_norm=args.clip_norm,
    )
    history, acc = fit_run(params, cache, dataset, config, dev, test)
    completed = [entry for entry in history if "aborted" not in entry]
    if completed:
        last = completed[-1]
        dev_part = (
            f" dev_accuracy={last['dev_accuracy']:.4f}"
            if last["dev_accuracy"] is not None
            else ""
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
    if args.rule_only:
        dataset = load_dataset(args.test)
        ruleset = _load_ruleset(args, set(dataset.label_names))
        mdfas = compile_rules(ruleset)
        acc = rule_baseline_accuracy(ruleset, mdfas, dataset)
        print(f"rule_only_accuracy={acc:.4f}")
        return 0
    if not args.model:
        print("eval needs --model or --rule-only", file=sys.stderr)
        return 2
    params = load_model(args.model)
    dataset = load_dataset(args.test, label_names=params.labels)
    ruleset = _load_ruleset(args, set(dataset.label_names))
    mdfas = compile_rules(ruleset)
    acc = evaluate_accuracy(params, ruleset, mdfas, dataset)
    print(f"accuracy={acc:.4f}")
    return 0


def cmd_fewshot(args) -> int:
    dataset = load_dataset(args.train)
    os.makedirs(args.out, exist_ok=True)
    for q in args.q:
        config = FewShotConfig(q=q, seeds=args.seeds, augment_top3=args.augment_top3)
        for seed, subset in zip(args.seeds, sample_fewshot(dataset, config)):
            path = os.path.join(args.out, f"fewshot_q{q}_seed{seed}.tsv")
            write_dataset(subset, path)
            print(f"{path}\t{len(subset)} samples")
    return 0


def cmd_synth_gen(args) -> int:
    spec = SyntheticSpec(
        classes=args.classes,
        train_size=args.train_size,
        test_size=args.test_size,
        noise=args.noise,
        seed=args.seed,
    )
    train_set, test_set, rule_lines = generate_synthetic(spec)
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
    train_dataset = load_dataset(args.train)
    test_dataset = load_dataset(args.test, label_names=train_dataset.label_names)
    ruleset = _load_ruleset(args, set(train_dataset.label_names))
    mdfas = compile_rules(ruleset)
    config = ExperimentConfig(
        variants=args.variant,
        q_values=args.q,
        sample_seeds=args.seeds,
        train_seeds=args.train_seeds,
        augment_top3=args.augment_top3,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        clip_norm=args.clip_norm,
        d=args.emb_dim,
        h=args.hidden,
    )
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


def _subcommand_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> argparse action of every flag the subcommand accepts."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[command]._actions}


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Flat key=value file; values override parsed flags.

    Each value is converted as its flag's argparse `type` would convert it
    on the command line; on/off flags take 1/true/yes/on or anything else.
    """
    actions = _subcommand_actions(parser, args.command)
    with open(args.config, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            action = actions.get(key)
            if action is None or key in ("help", "config"):
                parser.error(f"unknown config key {key!r}")
            if action.nargs == 0:
                setattr(args, key, value.lower() in ("1", "true", "yes", "on"))
                continue
            try:
                parsed = action.type(value) if action.type else value
            except ValueError:
                parser.error(f"config key {key!r}: invalid value {value!r}")
            if action.choices is not None and parsed not in action.choices:
                parser.error(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
            setattr(args, key, parsed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulefuse",
        description="Word-pattern automata features for a small sentence classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file overriding flags")
    common.add_argument("--out", help="output path")

    rules_flag = argparse.ArgumentParser(add_help=False)
    rules_flag.add_argument("--rules", help="rules file (label<TAB>pattern)")

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--epochs", type=int, default=30)
    model_flags.add_argument("--lr", type=float, default=0.1)
    model_flags.add_argument("--batch-size", type=int, default=8)
    model_flags.add_argument("--emb-dim", type=int, default=16)
    model_flags.add_argument("--hidden", type=int, default=16)
    model_flags.add_argument("--clip-norm", type=_optional_float, default=5.0,
                             help="gradient-norm clip; none turns clipping off")

    p = sub.add_parser("compile", parents=[common, rules_flag], help="compile rules to automata")
    p.add_argument("--labels", help="optional label file for validation")
    p.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("trace", parents=[common, rules_flag], help="trace a sentence through every rule")
    p.add_argument("--sentence", required=True)
    p.add_argument("--full-match", action="store_true", help="disable the early stop")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("encode", parents=[common, rules_flag], help="write JSONL features for a dataset")
    p.add_argument("--train", required=True, help="dataset to encode")
    p.add_argument("--gate-instance", action="store_true",
                   help="zero instance vectors of rejecting rules")
    p.add_argument("--full-match", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", parents=[common, rules_flag, model_flags], help="train one model")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--dev", help="dev set for early stopping")
    p.add_argument("--variant", default="nnsc", choices=("nnsc", "instance", "word"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patience", type=_optional_int, default=None)
    p.add_argument("--embeddings", help="pretrained embedding text file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common, rules_flag], help="evaluate a checkpoint or the rule baseline")
    p.add_argument("--test", required=True)
    p.add_argument("--model", help="checkpoint path")
    p.add_argument("--rule-only", action="store_true", help="first-match rule classifier")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fewshot", parents=[common], help="write few-shot subsets")
    p.add_argument("--train", required=True)
    p.add_argument("--q", type=_int_list, default=(5,))
    p.add_argument("--seeds", type=_int_list, default=(0, 1, 2))
    p.add_argument("--augment-top3", type=_optional_int, default=None)
    p.set_defaults(func=cmd_fewshot)

    p = sub.add_parser("synth-gen", parents=[common], help="generate the synthetic corpus")
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--train-size", type=int, default=600)
    p.add_argument("--test-size", type=int, default=300)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("experiment", parents=[common, rules_flag, model_flags],
                       help="run the seeded (variant, q) grid and write a CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--variant", type=_str_list, default=("nnsc", "instance", "word"))
    p.add_argument("--q", type=_int_list, default=(5,))
    p.add_argument("--seeds", type=_int_list, default=(0, 1, 2),
                   help="sampling seeds")
    p.add_argument("--train-seeds", type=_int_list, default=(0, 1, 2, 3, 4))
    p.add_argument("--augment-top3", type=_optional_int, default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _apply_config_file(args, parser)
    return args.func(args)


def run(argv: list[str] | None = None) -> int:
    """The `rulefuse` console script: `main`, with a RulefuseError reported
    as one `rulefuse: error: ...` line on stderr and exit code 2."""
    try:
        return main(argv)
    except RulefuseError as exc:
        print(f"rulefuse: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(run())
