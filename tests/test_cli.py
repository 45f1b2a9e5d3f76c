import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import rulefuse.experiment
from rulefuse.cli import build_parser, config_from_flags, main, run
from rulefuse.data import SyntheticSpec, load_dataset
from rulefuse.encoding import RuleMatcher, encode_instance, encode_word_tags
from rulefuse.errors import (
    CapacityExceededError,
    ConfigError,
    NumericalError,
    RulesMismatchError,
    UnknownLabelError,
)
from rulefuse.experiment import ExperimentConfig, compile_rules, evaluate_accuracy, rule_binding
from rulefuse.matching import run_trace
from rulefuse.model import ModelParams, TrainConfig, load_model, save_model
from rulefuse.rules import load_rules


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main([
        "synth-gen", "--out", str(root), "--classes", "6",
        "--train-size", "120", "--test-size", "60", "--noise", "0.1", "--seed", "1",
    ]) == 0
    return root


def test_synth_gen_outputs(corpus):
    assert (corpus / "train.tsv").exists()
    assert (corpus / "test.tsv").exists()
    assert (corpus / "rules.tsv").exists()
    assert len((corpus / "train.tsv").read_text().splitlines()) == 120


def test_compile_summary(corpus, capsys):
    main(["compile", "--rules", str(corpus / "rules.tsv")])
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert all("states=" in line for line in out)


def test_compile_dot(corpus, capsys):
    main(["compile", "--rules", str(corpus / "rules.tsv"), "--dot"])
    out = capsys.readouterr().out
    assert out.count("digraph") == 6


def test_compile_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    # the label used to read `label=""hi", back\slash, <other>"`: invalid DOT
    rules = tmp_path / "rules.tsv"
    rules.write_text('quote\tsay "hi" back\\slash\n', encoding="utf-8")
    assert main(["compile", "--rules", str(rules), "--dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "digraph rule_1 {"
    assert '  0 -> 1 [label="\\"hi\\", back\\\\slash, <other>"];' in lines
    assert '  3 -> 4 [label="back\\\\slash"];' in lines


def test_trace_lines(corpus, capsys):
    main([
        "trace", "--rules", str(corpus / "rules.tsv"),
        "--sentence", "w01 alpha w02 beta",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("1\t")
    assert any("accepted=True" in line for line in lines)


def test_encode_jsonl(corpus, tmp_path):
    out = tmp_path / "features.jsonl"
    main([
        "encode", "--rules", str(corpus / "rules.tsv"),
        "--train", str(corpus / "train.tsv"), "--out", str(out),
    ])
    lines = out.read_text().splitlines()
    assert len(lines) == 120
    record = json.loads(lines[0])
    assert set(record) == {"text", "label", "instance", "tags"}
    assert len(record["instance"]) == 6


@pytest.mark.parametrize(
    "flags", [[], ["--gate-instance"], ["--full-match"], ["--gate-instance", "--full-match"]]
)
def test_encode_jsonl_equals_per_rule_traces(corpus, tmp_path, flags):
    out = tmp_path / "features.jsonl"
    main([
        "encode", "--rules", str(corpus / "rules.tsv"),
        "--train", str(corpus / "train.tsv"), "--out", str(out), *flags,
    ])
    gate, full = "--gate-instance" in flags, "--full-match" in flags
    ruleset = load_rules(corpus / "rules.tsv")
    mdfas = compile_rules(ruleset)
    dataset = load_dataset(corpus / "train.tsv")
    expected = []
    for sentence, label in dataset.samples:
        traces = [
            run_trace(mdfa, sentence, full_match=full)
            for rule, mdfa in zip(ruleset.rules, mdfas)
        ]
        record = {
            "text": sentence.text(),
            "label": dataset.label_names[label],
            "instance": [
                [int(v) for v in encode_instance(trace, mdfa.state_count, gate=gate)]
                for trace, mdfa in zip(traces, mdfas)
            ],
            "tags": [[int(t) for t in encode_word_tags(trace, sentence.n).tags] for trace in traces],
        }
        expected.append(json.dumps(record) + "\n")
    assert out.read_text() == "".join(expected)


def test_train_eval_roundtrip(corpus, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    main([
        "train", "--rules", str(corpus / "rules.tsv"),
        "--train", str(corpus / "train.tsv"), "--test", str(corpus / "test.tsv"),
        "--variant", "instance", "--epochs", "12", "--lr", "0.3",
        "--emb-dim", "8", "--hidden", "8", "--seed", "0", "--out", str(ckpt),
    ])
    out = capsys.readouterr().out
    assert "test_accuracy=" in out
    assert ckpt.exists()
    params = load_model(ckpt)
    assert params.variant == "instance"
    main([
        "eval", "--rules", str(corpus / "rules.tsv"),
        "--test", str(corpus / "test.tsv"), "--model", str(ckpt),
    ])
    assert "accuracy=" in capsys.readouterr().out


def test_eval_rejects_rules_the_checkpoint_was_not_trained_with(corpus, tmp_path, capsys):
    # an instance checkpoint scored garbage, with no error, on reordered rules
    ckpt = tmp_path / "model.npz"
    main([
        "train", "--rules", str(corpus / "rules.tsv"), "--train", str(corpus / "train.tsv"),
        "--variant", "instance", "--epochs", "2", "--emb-dim", "4", "--hidden", "4",
        "--out", str(ckpt),
    ])
    capsys.readouterr()
    lines = (corpus / "rules.tsv").read_text().splitlines()
    reordered = tmp_path / "reordered.tsv"
    reordered.write_text("\n".join(lines[::-1]) + "\n")
    edited = tmp_path / "edited.tsv"
    edited.write_text("\n".join(lines[:2] + [lines[2] + " extra"] + lines[3:]) + "\n")
    test = str(corpus / "test.tsv")
    with pytest.raises(RulesMismatchError, match=r"^rule 1 "):
        main(["eval", "--rules", str(reordered), "--test", test, "--model", str(ckpt)])
    with pytest.raises(RulesMismatchError, match=r"^rule 3 .*extra"):
        main(["eval", "--rules", str(edited), "--test", test, "--model", str(ckpt)])
    with pytest.raises(RulesMismatchError, match=r"^rule 1 .*missing"):
        main(["eval", "--test", test, "--model", str(ckpt)])
    assert main(["eval", "--rules", str(corpus / "rules.tsv"), "--test", test,
                 "--model", str(ckpt)]) == 0
    assert capsys.readouterr().out.startswith("accuracy=")


def test_unbound_v1_checkpoint_still_evaluates(corpus, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    main([
        "train", "--rules", str(corpus / "rules.tsv"), "--train", str(corpus / "train.tsv"),
        "--variant", "word", "--epochs", "2", "--emb-dim", "4", "--hidden", "4",
        "--out", str(ckpt),
    ])
    params = load_model(ckpt)
    ruleset = load_rules(corpus / "rules.tsv")
    assert [rule["label"] for rule in params.rules] == [rule.label for rule in ruleset.rules]
    params.rules = None
    save_model(params, ckpt)
    meta = json.loads(np.load(ckpt, allow_pickle=False)["meta"].item())
    assert meta["version"] == "rulefuse-v1" and "rules" not in meta
    reordered = tmp_path / "reordered.tsv"
    reordered.write_text("\n".join((corpus / "rules.tsv").read_text().splitlines()[::-1]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--rules", str(reordered), "--test", str(corpus / "test.tsv"),
                 "--model", str(ckpt)]) == 0
    assert capsys.readouterr().out.startswith("accuracy=")


def test_eval_of_a_checkpoint_without_label_names_is_a_one_line_error(corpus, tmp_path, capsys):
    # labels were numbered in test-file order: a 4-label test file against a
    # 3-class model printed accuracy=0.2500 and exited 0
    ckpt = tmp_path / "model.npz"
    params = ModelParams.init("nnsc", {"<unk>": 0, "a": 1}, d=4, h=3, C=3, seed=0)
    save_model(params, ckpt)
    assert load_model(ckpt).labels is None
    test = tmp_path / "test.tsv"
    test.write_text("w\ta\nx\ta\ny\ta\nz\ta\n")
    for test_path in (test, tmp_path / "missing.tsv"):  # before --test is read
        assert run(["eval", "--test", str(test_path), "--model", str(ckpt)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"rulefuse: error: checkpoint {ckpt} records no label names")
        assert len(err.splitlines()) == 1


def test_nnsc_train_and_eval_encode_nothing(corpus, tmp_path, capsys, monkeypatch):
    def no_encoding(*args, **kwargs):
        raise AssertionError("an nnsc run encoded a sentence")

    monkeypatch.setattr(RuleMatcher, "run_batch", no_encoding)
    monkeypatch.setattr(RuleMatcher, "encode", no_encoding)
    ckpt = tmp_path / "model.npz"
    rules, test = str(corpus / "rules.tsv"), str(corpus / "test.tsv")
    assert main(["train", "--rules", rules, "--train", str(corpus / "train.tsv"),
                 "--test", test, "--epochs", "1", "--emb-dim", "4", "--hidden", "4",
                 "--out", str(ckpt)]) == 0
    assert main(["eval", "--rules", rules, "--test", test, "--model", str(ckpt)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("accuracy=")


def test_nnsc_eval_parses_the_rules_but_compiles_none(corpus, tmp_path, capsys, monkeypatch):
    ckpt = tmp_path / "model.npz"
    rules, test = str(corpus / "rules.tsv"), str(corpus / "test.tsv")
    assert main(["train", "--rules", rules, "--train", str(corpus / "train.tsv"),
                 "--epochs", "1", "--emb-dim", "4", "--hidden", "4", "--out", str(ckpt)]) == 0
    params = load_model(ckpt)
    ruleset = load_rules(rules)
    dataset = load_dataset(test, params.labels)
    want = evaluate_accuracy(params, ruleset, compile_rules(ruleset), dataset)
    # one more rule whose DFA exceeds the state budget: only compiling it fails
    too_big = tmp_path / "rules.tsv"
    label = ruleset.rules[0].label
    too_big.write_text((corpus / "rules.tsv").read_text() + f"{label}\t( . )* a{' .' * 14}\n")
    with pytest.raises(CapacityExceededError):
        compile_rules(load_rules(too_big))
    compiled = []
    monkeypatch.setattr(rulefuse.experiment, "compile_ast", compiled.append)
    capsys.readouterr()
    for rules_file in (rules, str(too_big)):
        assert main(["eval", "--rules", rules_file, "--test", test, "--model", str(ckpt)]) == 0
        assert capsys.readouterr().out == f"accuracy={want:.4f}\n"
    assert compiled == []
    too_big.write_text("no-such-label\t( . )* a\n")  # still label-checked
    with pytest.raises(UnknownLabelError):
        main(["eval", "--rules", str(too_big), "--test", test, "--model", str(ckpt)])


def test_eval_rule_only(corpus, capsys):
    main([
        "eval", "--rules", str(corpus / "rules.tsv"),
        "--test", str(corpus / "test.tsv"), "--rule-only",
    ])
    out = capsys.readouterr().out
    acc = float(out.split("=")[1])
    assert 0.8 <= acc <= 1.0  # noise 0.1 leaves ~90% rule-consistent labels


def test_fewshot_writes_subsets(corpus, tmp_path, capsys):
    out_dir = tmp_path / "fewshot"
    main([
        "fewshot", "--train", str(corpus / "train.tsv"),
        "--q", "2", "--seeds", "0,1", "--out", str(out_dir),
    ])
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["fewshot_q2_seed0.tsv", "fewshot_q2_seed1.tsv"]
    assert len((out_dir / files[0]).read_text().splitlines()) == 12


def test_experiment_csv(corpus, tmp_path):
    out = tmp_path / "results.csv"
    main([
        "experiment", "--rules", str(corpus / "rules.tsv"),
        "--train", str(corpus / "train.tsv"), "--test", str(corpus / "test.tsv"),
        "--variant", "nnsc,instance", "--q", "2", "--seeds", "0",
        "--train-seeds", "0", "--epochs", "2", "--emb-dim", "4", "--hidden", "4",
        "--out", str(out),
    ])
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "variant,q,sample_seed,train_seed,accuracy,wall_secs"
    assert len(lines) == 1 + 2 + 2  # header + 2 data rows + 2 aggregate rows


def _flags_file(tmp_path, text):
    path = tmp_path / "run.args"
    path.write_text(text)
    return f"@{path}"


def test_config_file_overrides_flags(corpus, tmp_path, capsys):
    # a flags file is read where it stands in argv, so its --sentence wins
    flags = _flags_file(tmp_path, '--sentence "alpha w00 beta"  # rule 1 accepts this\n')
    main([
        "trace", "--rules", str(corpus / "rules.tsv"), "--sentence", "ignored words", flags,
    ])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1\talpha_beta\taccepted=True\t")


def test_flags_after_a_flags_file_override_it(tmp_path):
    flags = _flags_file(tmp_path, "train --train t.tsv\n--epochs 40 --lr 0.3\n")
    args = build_parser().parse_args([flags, "--epochs", "5"])
    assert (args.command, args.train, args.epochs, args.lr) == ("train", "t.tsv", 5, 0.3)


def test_a_flags_file_may_start_with_a_byte_order_mark(tmp_path):
    flags = _flags_file(tmp_path, "\ufeff--epochs 1\n--lr 0.3\n")
    args = build_parser().parse_args(["train", "--train", "t.tsv", flags])
    assert (args.epochs, args.lr) == (1, 0.3)


def test_unknown_config_key_errors(corpus, tmp_path, capsys):
    flags = _flags_file(tmp_path, "--no-such-flag 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--rules", str(corpus / "rules.tsv"), "--sentence", "x", flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag 3" in capsys.readouterr().err


def _parse_with_file(argv, text, tmp_path):
    return build_parser().parse_args(argv + [_flags_file(tmp_path, text)])


def test_config_values_use_flag_types(corpus, tmp_path):
    # defaults of None (patience) used to leave raw strings, and clip_norm
    # could not be switched off
    args = _parse_with_file(
        ["train", "--train", str(corpus / "train.tsv")],
        "--patience 3\n--clip-norm none --lr 0.25\n",
        tmp_path,
    )
    assert args.patience == 3
    assert args.clip_norm is None
    assert args.lr == 0.25
    flags = build_parser().parse_args(
        ["train", "--train", "x", "--clip-norm", "none", "--patience", "none"]
    )
    assert flags.clip_norm is None and flags.patience is None


@pytest.mark.parametrize(
    "argv, values",
    [
        (
            ["train", "--train", "t.tsv"],
            ["--epochs", "7", "--lr", "0.25", "--batch-size", "4", "--emb-dim", "6",
             "--hidden", "5", "--clip-norm", "none", "--variant", "word", "--seed", "3",
             "--patience", "2", "--test", "x.tsv", "--rules", "r.tsv"],
        ),
        (
            ["experiment", "--train", "t.tsv", "--test", "x.tsv"],
            ["--variant", "nnsc,word", "--q", "2,3", "--seeds", "4,5", "--train-seeds", "6",
             "--augment-top3", "2", "--clip-norm", "1.5", "--epochs", "3"],
        ),
        (
            ["encode", "--train", "t.tsv"],
            ["--gate-instance", "--full-match", "--out", "f.jsonl"],
        ),
        (["compile"], ["--rules", "r.tsv", "--labels", "l.txt", "--dot", "--out", "r.dot"]),
        (["trace"], ["--rules", "r.tsv", "--sentence", "w03 alpha  'w11' beta", "--full-match"]),
        (["eval", "--test", "x.tsv"], ["--rules", "r.tsv", "--model", "m.npz"]),
        (
            ["fewshot", "--train", "t.tsv"],
            ["--q", "2,3", "--seeds", "1", "--augment-top3", "none", "--out", "fs"],
        ),
        (
            ["synth-gen"],
            ["--classes", "4", "--train-size", "10", "--test-size", "5", "--noise", "0.2",
             "--seed", "7", "--out", "syn"],
        ),
    ],
)
def test_config_file_matches_command_line(argv, values, tmp_path):
    # required flags may come from the file too (compile, trace, eval)
    half = len(values) // 2
    text = f"# {argv[0]} flags\n{shlex.join(values[:half])}\n{shlex.join(values[half:])}  # end\n"
    from_file = _parse_with_file(argv, text, tmp_path)
    from_flags = build_parser().parse_args(argv + values)
    assert vars(from_file) == vars(from_flags)


def test_config_rejects_bad_choice(corpus, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _parse_with_file(
            ["train", "--train", str(corpus / "train.tsv")], "--variant bogus\n", tmp_path
        )
    assert exc.value.code == 2
    assert "argument --variant: invalid choice: 'bogus'" in capsys.readouterr().err


def test_an_unclosed_quote_in_a_flags_file_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["trace", "--rules", "r.tsv", _flags_file(tmp_path, '--sentence "alpha beta\n')])
    assert exc.value.code == 2
    assert "No closing quotation in flags file line" in capsys.readouterr().err


def test_a_missing_flags_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "none.args"
    with pytest.raises(SystemExit) as exc:
        run(["trace", "--rules", "r.tsv", "--sentence", "x", f"@{missing}"])
    assert exc.value.code == 2
    assert str(missing) in capsys.readouterr().err


def test_a_value_starting_with_at_is_read_literally_after_equals():
    args = build_parser().parse_args(["trace", "--rules", "r.tsv", "--sentence=@bob hi"])
    assert args.sentence == "@bob hi"


def test_train_reports_a_numerical_abort(corpus, tmp_path, capsys):
    # this learning rate overflows in the first epoch, so no epoch completes:
    # there is no trained model, so nothing is written and the run fails
    ckpt = tmp_path / "model.npz"
    argv = [
        "train", "--train", str(corpus / "train.tsv"), "--epochs", "20",
        "--lr", "1e12", "--clip-norm", "none", "--emb-dim", "4", "--hidden", "3",
        "--test", str(corpus / "test.tsv"), "--out", str(ckpt),
    ]
    with pytest.raises(NumericalError, match="training aborted \\(numerical\\) in epoch 1"):
        main(argv)
    assert capsys.readouterr().out == ""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rulefuse: error: training aborted (numerical) in epoch 1")
    assert captured.err.count("\n") == 1
    assert not ckpt.exists()


def test_train_abort_after_a_finished_epoch_keeps_that_epoch(corpus, tmp_path, capsys, monkeypatch):
    import rulefuse.model

    real = rulefuse.model.loss_and_grads
    calls = []

    def blow_up_in_epoch_two(params, batch):
        calls.append(len(batch))
        if sum(calls) > 120:  # the training set has 120 sentences
            raise NumericalError("non-finite loss nan")
        return real(params, batch)

    monkeypatch.setattr(rulefuse.model, "loss_and_grads", blow_up_in_epoch_two)
    ckpt = tmp_path / "model.npz"
    assert main([
        "train", "--train", str(corpus / "train.tsv"), "--epochs", "3",
        "--emb-dim", "4", "--hidden", "3", "--out", str(ckpt),
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("epochs=1 loss=")
    assert out[1:] == [
        "training aborted (numerical) in epoch 2; kept the parameters of the last finite epoch",
        f"checkpoint written to {ckpt}",
    ]
    assert load_model(ckpt).all_finite()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_with_a_non_finite_embedding_fails_and_writes_nothing(
    corpus, tmp_path, capsys, value
):
    # a NaN row used to train silently into a non-finite checkpoint
    word = load_dataset(corpus / "train.tsv").samples[0][0].words[0]
    emb = tmp_path / "emb.txt"
    emb.write_text(f"{word} 0.5 0 0 0\n{word} {value} 0 0 0\n")
    ckpt = tmp_path / "model.npz"
    assert run([
        "train", "--train", str(corpus / "train.tsv"), "--epochs", "1", "--emb-dim", "4",
        "--hidden", "3", "--embeddings", str(emb), "--out", str(ckpt),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rulefuse: error: ") and "(line 2)" in captured.err
    assert not ckpt.exists()


@pytest.mark.parametrize("command", [["compile"], ["compile", "--dot"],
                                     ["trace", "--sentence", "w01 alpha"]])
def test_compile_and_trace_require_rules(capsys, command):
    # both printed nothing and exited 0 without rules
    with pytest.raises(SystemExit) as info:
        main(command)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--rules" in captured.err


@pytest.mark.parametrize("flag", ["--variant", "--q", "--seeds", "--train-seeds"])
def test_experiment_with_an_empty_axis_fails_and_writes_nothing(corpus, tmp_path, capsys, flag):
    out = tmp_path / "results.csv"
    assert run([
        "experiment", "--rules", str(corpus / "rules.tsv"), "--train", str(corpus / "train.tsv"),
        "--test", str(corpus / "test.tsv"), "--epochs", "1", "--emb-dim", "4", "--hidden", "3",
        flag, "", "--out", str(out),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rulefuse: error: ") and "empty" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, values, axis", [
    ("--variant", "nnsc,nnsc", "variants"), ("--q", "2,3,2", "q_values"),
    ("--seeds", "0,0", "sample_seeds"), ("--train-seeds", "1,1", "train_seeds"),
])
def test_experiment_with_a_repeated_axis_value_fails_and_writes_nothing(
    corpus, tmp_path, capsys, flag, values, axis
):
    out = tmp_path / "results.csv"
    assert run([
        "experiment", "--rules", str(corpus / "rules.tsv"), "--train", str(corpus / "train.tsv"),
        "--test", str(corpus / "test.tsv"), "--epochs", "1", "--emb-dim", "4", "--hidden", "3",
        flag, values, "--out", str(out),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rulefuse: error: ") and f"{axis} axis repeats" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_eval_of_a_checkpoint_with_repeated_label_names_is_a_one_line_error(tmp_path, capsys):
    # labels ["x", "x"] loaded, every x line became class 1 and eval
    # printed accuracy=0.5000 with exit 0
    ckpt = tmp_path / "model.npz"
    save_model(ModelParams.init("nnsc", {"<unk>": 0, "a": 1}, d=4, h=3, C=2,
                                labels=["x", "y"]), ckpt)
    _rewrite_checkpoint(ckpt, lambda meta, arrays: meta.update(labels=["x", "x"]))
    test = tmp_path / "test.tsv"
    test.write_text("x\ta\nx\ta a\n")
    assert run(["eval", "--test", str(test), "--model", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"rulefuse: error: cannot read checkpoint {ckpt}: labels must be 2")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("labels", [[1, 2], ["X", "y"], [" x", "y"]])
def test_eval_of_a_checkpoint_with_unmatchable_label_names_is_a_one_line_error(
    tmp_path, capsys, labels
):
    # these loaded, and eval blamed the test file: "unknown label 'x' (line 1)"
    ckpt = tmp_path / "model.npz"
    save_model(ModelParams.init("nnsc", {"<unk>": 0, "a": 1}, d=4, h=3, C=2,
                                labels=["x", "y"]), ckpt)
    _rewrite_checkpoint(ckpt, lambda meta, arrays: meta.update(labels=labels))
    test = tmp_path / "test.tsv"
    test.write_text("x\ta\ny\ta a\n")
    assert run(["eval", "--test", str(test), "--model", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        f"rulefuse: error: cannot read checkpoint {ckpt}: labels must be a list of non-empty, "
        f"stripped, lowercased strings, got {labels!r}"
    )
    assert len(err.splitlines()) == 1


def _rewrite_checkpoint(path, change):
    """Rewrite the checkpoint at `path` after `change(meta, arrays)` edits it in place."""
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    meta = json.loads(arrays.pop("meta").item())
    change(meta, arrays)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def _instance_checkpoint(tmp_path):
    """A valid `instance` checkpoint with its rules and test files, as eval argv."""
    rules, test, ckpt = tmp_path / "rules.tsv", tmp_path / "test.tsv", tmp_path / "model.npz"
    rules.write_text("x\ta\ny\tb\n")
    test.write_text("x\ta\ny\tb a\n")
    ruleset = load_rules(rules)
    mdfas = compile_rules(ruleset)
    save_model(ModelParams.init(
        "instance", {"<unk>": 0, "a": 1, "b": 2}, d=4, h=3, C=2, p=ruleset.p,
        m_total=sum(m.state_count for m in mdfas), labels=["x", "y"],
        rules=rule_binding(ruleset, mdfas),
    ), ckpt)
    load_model(ckpt)  # so a failing load is the corruption's doing
    return ckpt, ["eval", "--rules", str(rules), "--test", str(test), "--model", str(ckpt)]


def _set_meta(**fields):
    return lambda meta, arrays: meta.update(fields)


def _set_word_id(word, index):
    return lambda meta, arrays: meta["vocab"].update({word: index})


def _rename_word(word, new):
    return lambda meta, arrays: meta["vocab"].update({new: meta["vocab"].pop(word)})


CORRUPTIONS = {
    "vocab_id_out_of_range": _set_word_id("b", 10**6),
    "vocab_id_negative": _set_word_id("b", -1),
    "vocab_id_duplicated": _set_word_id("b", 1),
    "vocab_id_a_float": _set_word_id("b", 2.0),
    "vocab_id_a_string": _set_word_id("b", "2"),
    "vocab_id_a_bool": _set_word_id("a", True),
    "d_a_float": _set_meta(d=4.5),
    "h_a_string": _set_meta(h="3"),
    "C_not_the_label_count": _set_meta(C=3),
    "p_negative": _set_meta(p=-1),
    "m_total_a_float": _set_meta(m_total=3.0),
    "labels_repeated": _set_meta(labels=["x", "x"]),
    "vocab_a_list": _set_meta(vocab=["<unk>", "a", "b"]),
    "vocab_word_uppercase": _rename_word("b", "A"),
    "vocab_word_padded": _rename_word("b", " b"),
    "vocab_word_two_words": _rename_word("b", "a b"),
    "vocab_word_empty": _rename_word("b", ""),
    "rules_removed": lambda meta, arrays: meta.pop("rules"),
    "rules_null": _set_meta(rules=None),
    "rules_an_int": _set_meta(rules=5),
    "rules_strings": _set_meta(rules=["x", "y"]),
    "rules_dicts_missing_keys": _set_meta(rules=[{"label": "x"}, {"label": "y"}]),
    "unknown_version": _set_meta(version="rulefuse-v9"),
    "unknown_variant": _set_meta(variant="lstm"),
    "negative_d": _set_meta(d=-4),
    "missing_tensor": lambda meta, arrays: arrays.pop("mlp_b2"),
    "nan_weight": lambda meta, arrays: arrays["att_w"].fill(np.nan),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_eval_of_a_corrupted_checkpoint_is_a_one_line_error_naming_it(tmp_path, capsys, case):
    # the vocabulary cases raised IndexError or printed an accuracy, and the
    # rules cases raised TypeError or KeyError from check_rule_binding
    ckpt, argv = _instance_checkpoint(tmp_path)
    _rewrite_checkpoint(ckpt, CORRUPTIONS[case])
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"rulefuse: error: cannot read checkpoint {ckpt}: ")
    assert len(err.splitlines()) == 1


def test_every_checkpoint_meta_key_has_a_corruption_case(tmp_path):
    # so that a new meta key cannot land without a case in CORRUPTIONS
    ckpt, _ = _instance_checkpoint(tmp_path)
    with np.load(ckpt, allow_pickle=False) as data:
        arrays = dict(data)
    meta = json.loads(arrays.pop("meta").item())
    assert meta["version"] == "rulefuse-v2"
    corrupted = set()
    for change in CORRUPTIONS.values():
        changed = json.loads(json.dumps(meta))
        change(changed, {name: array.copy() for name, array in arrays.items()})
        corrupted.update(
            key for key in meta
            if key not in changed or json.dumps(changed[key]) != json.dumps(meta[key])
        )
    assert set(meta) - {"version"} - corrupted == set()


def test_train_with_patience_and_no_clipping_from_config(corpus, tmp_path, capsys):
    flags = _flags_file(tmp_path, "--patience 1\n--clip-norm none\n")
    assert main([
        "train", "--rules", str(corpus / "rules.tsv"),
        "--train", str(corpus / "train.tsv"), "--dev", str(corpus / "test.tsv"),
        "--epochs", "3", "--emb-dim", "4", "--hidden", "4", flags,
    ]) == 0
    assert "dev_accuracy=" in capsys.readouterr().out


def test_train_with_patience_and_no_dev_set_fails_and_writes_nothing(corpus, tmp_path, capsys):
    # patience used to be ignored without a dev set: all epochs ran and exit was 0
    ckpt = tmp_path / "model.npz"
    assert run([
        "train", "--rules", str(corpus / "rules.tsv"), "--train", str(corpus / "train.tsv"),
        "--epochs", "3", "--patience", "0", "--emb-dim", "4", "--hidden", "4",
        "--out", str(ckpt),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rulefuse: error: patience needs a dev set to stop on\n"
    assert not ckpt.exists()


def test_fewshot_with_an_empty_q_list_fails_and_writes_nothing(corpus, tmp_path, capsys):
    # `--q ,` used to exit 0 having written nothing
    out = tmp_path / "fewshot"
    argv = ["fewshot", "--train", str(corpus / "train.tsv"), "--q", ",", "--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rulefuse: error: the q list is empty\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--batch-size", "0"], ["--emb-dim", "0"], ["--hidden", "0"], ["--epochs", "0"],
     ["--epochs", "-3"]],
    ids=lambda flags: "".join(flags),
)
def test_train_rejects_impossible_settings(corpus, tmp_path, capsys, flags):
    # these died with numpy/range errors or wrote an untrained checkpoint
    ckpt = tmp_path / "model.npz"
    with pytest.raises(ConfigError):
        main(["train", "--train", str(corpus / "train.tsv"), "--out", str(ckpt), *flags])
    assert not ckpt.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["train", "experiment"])
@pytest.mark.parametrize("variant", ["instance", "word"])
def test_rule_feature_variants_require_rules(corpus, tmp_path, capsys, command, variant):
    # without --rules these trained and wrote a plain nnsc model (p = 0)
    out = tmp_path / "out"
    argv = [command, "--train", str(corpus / "train.tsv"), "--variant", variant,
            "--epochs", "1", "--emb-dim", "4", "--hidden", "4", "--out", str(out)]
    if command == "experiment":
        argv += ["--test", str(corpus / "test.tsv"), "--q", "1", "--seeds", "0",
                 "--train-seeds", "0"]
    with pytest.raises(ConfigError, match="needs at least one rule"):
        main(argv)
    assert not out.exists()
    assert capsys.readouterr().out == ""


def _config_error_argv(corpus, tmp_path, case):
    labels = tmp_path / "labels.txt"
    labels.write_text("alpha_beta\nbeta_alpha\nalpha_beta\n")
    train = ["--train", str(corpus / "train.tsv")]
    grid = ["experiment", *train, "--test", str(corpus / "test.tsv"), "--epochs", "1",
            "--train-seeds", "0"]
    fewshot = ["fewshot", *train, "--out", str(tmp_path / "fewshot")]
    return {
        "variant": [*grid, "--variant", "bogus"],
        "q0": [*fewshot, "--q", "0"],
        "seeds": [*fewshot, "--seeds", ""],
        "experiment-q0": [*grid, "--variant", "nnsc", "--q", "0"],
        "labels": ["compile", "--rules", str(corpus / "rules.tsv"), "--labels", str(labels)],
    }[case]


@pytest.mark.parametrize("case", ["variant", "q0", "seeds", "experiment-q0", "labels"])
def test_bad_settings_raise_config_error(corpus, tmp_path, case):
    # each of these raised a bare ValueError
    with pytest.raises(ConfigError):
        main(_config_error_argv(corpus, tmp_path, case))


def test_run_reports_errors_in_one_line(corpus, tmp_path, capsys):
    argv = _config_error_argv(corpus, tmp_path, "variant")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rulefuse: error: unknown variant 'bogus'\n"
    assert run(["compile", "--rules", str(corpus / "rules.tsv")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_run_reports_a_rule_syntax_error_in_one_line(tmp_path, capsys):
    rules = tmp_path / "bad.tsv"
    rules.write_text("a\tshow me\nb\t( broken\n")
    assert run(["compile", "--rules", str(rules)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rulefuse: error: unbalanced parenthesis (line 2, offset 0)\n"


@pytest.mark.parametrize("flag", ["--train", "--rules"])
def test_run_reports_a_missing_input_file_in_one_line(corpus, tmp_path, capsys, flag):
    missing = str(tmp_path / "none.tsv")
    argv = ["train", "--rules", str(corpus / "rules.tsv"), "--train", str(corpus / "train.tsv"),
            "--epochs", "1", "--out", str(tmp_path / "model.npz")]
    argv[argv.index(flag) + 1] = missing
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rulefuse: error: ") and missing in captured.err
    assert captured.err.count("\n") == 1


def test_train_embeddings_are_loaded_into_the_checkpoint(corpus, tmp_path, capsys):
    # with lr 0 the loaded rows reach the checkpoint unchanged
    train = load_dataset(corpus / "train.tsv")
    words = sorted({word for sentence, _ in train.samples for word in sentence.words})[:5]
    rows = {word: [0.125 * (k + 1), -0.5, 0.25 * k, 1.0 / (k + 3)] for k, word in enumerate(words)}
    emb = tmp_path / "emb.txt"
    emb.write_text(
        "".join(f"{word} {' '.join(repr(v) for v in vals)}\n" for word, vals in rows.items())
        + "no_such_word 1.0 2.0 3.0 4.0\n\n"
    )
    ckpt = tmp_path / "model.npz"
    assert main([
        "train", "--rules", str(corpus / "rules.tsv"), "--train", str(corpus / "train.tsv"),
        "--variant", "word", "--epochs", "1", "--lr", "0", "--emb-dim", "4", "--hidden", "4",
        "--embeddings", str(emb), "--out", str(ckpt),
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"loaded {len(rows)} pretrained embedding rows"
    assert out[1].startswith("epochs=1 ")
    params = load_model(ckpt)
    for word, vals in rows.items():
        assert params.emb[params.vocab[word]].tolist() == vals


@pytest.mark.parametrize("flags", [["--epochs", "2", "--patience", "0"], ["--epochs", "0"]],
                         ids=["patience-without-dev", "epochs0"])
def test_train_with_embeddings_and_a_bad_setting_prints_nothing(corpus, tmp_path, capsys, flags):
    # `loaded 1 pretrained embedding rows` used to come before the error
    word = load_dataset(corpus / "train.tsv").samples[0][0].words[0]
    emb = tmp_path / "emb.txt"
    emb.write_text(f"{word} 0.5 0 0 0\n")
    ckpt = tmp_path / "model.npz"
    assert run([
        "train", "--train", str(corpus / "train.tsv"), "--emb-dim", "4", "--hidden", "3",
        "--embeddings", str(emb), "--out", str(ckpt), *flags,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rulefuse: error: ") and captured.err.count("\n") == 1
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_out_into_a_missing_directory_fails_before_reading_input(
    corpus, tmp_path, capsys, monkeypatch, command
):
    # the run used to do all its work and only then fail to write its result
    def read_input(*args, **kwargs):
        raise AssertionError("read an input before checking --out")

    monkeypatch.setattr("rulefuse.cli.load_dataset", read_input)
    missing = tmp_path / "no" / "such"
    argv = [command, "--train", str(corpus / "train.tsv"), "--test", str(corpus / "test.tsv"),
            "--epochs", "1", "--emb-dim", "4", "--hidden", "3", "--out", str(missing / "out")]
    if command == "experiment":
        argv += ["--variant", "nnsc", "--q", "1", "--seeds", "0", "--train-seeds", "0"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rulefuse: error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("command", ["compile", "encode"])
def test_compile_and_encode_check_out_before_reading_rules(tmp_path, capsys, command):
    # the error named the missing rules file: --out was checked after all the work
    missing = tmp_path / "no"
    argv = [command, "--rules", str(tmp_path / "absent.tsv"), "--out", str(missing / "x")]
    if command == "encode":
        argv += ["--train", str(tmp_path / "absent_train.tsv")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rulefuse: error: [Errno 2] No such file or directory: {str(missing)!r}\n"


@pytest.mark.parametrize("argv", [
    ["synth-gen", "--classes", "3", "--train-size", "20", "--test-size", "10"],
    ["fewshot", "--train", "t.tsv", "--q", "1"],
], ids=["synth-gen", "fewshot"])
def test_synth_gen_and_fewshot_need_out(tmp_path, capsys, monkeypatch, argv):
    # without --out, synth-gen generated and then ended in a raw TypeError traceback
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["eval", "--test", "x.tsv", "--rule-only", "--rules", "r.tsv"],
    ["trace", "--rules", "r.tsv", "--sentence", "w01 alpha"],
], ids=["eval", "trace"])
def test_eval_and_trace_reject_out(tmp_path, capsys, monkeypatch, argv):
    # both accepted --out, ignored it and printed to stdout
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", "ev.txt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out ev.txt" in capsys.readouterr().err
    assert not (tmp_path / "ev.txt").exists()


@pytest.mark.parametrize("argv, config", [
    (["train", "--train", "t.tsv"], TrainConfig()),
    (["experiment", "--train", "t.tsv", "--test", "x.tsv"], ExperimentConfig()),
    (["synth-gen", "--out", "syn"], SyntheticSpec()),
], ids=["train", "experiment", "synth-gen"])
def test_flags_left_out_leave_the_config_defaults(argv, config):
    assert config_from_flags(type(config), build_parser().parse_args(argv)) == config


def test_fewshot_defaults_are_the_experiment_grid_defaults():
    args = build_parser().parse_args(["fewshot", "--train", "t.tsv", "--out", "fs"])
    assert (args.q, args.seeds) == (ExperimentConfig.q_values, ExperimentConfig.sample_seeds)


@pytest.mark.parametrize("argv, config", [
    (["train", "--train", "t.tsv", "--epochs", "7", "--lr", "0.25", "--batch-size", "4",
      "--emb-dim", "6", "--hidden", "5", "--clip-norm", "none", "--seed", "3", "--patience", "2"],
     TrainConfig(epochs=7, batch_size=4, lr=0.25, seed=3, patience=2, clip_norm=None, d=6, h=5)),
    (["experiment", "--train", "t.tsv", "--test", "x.tsv", "--variant", "nnsc,word", "--q", "2,3",
      "--seeds", "4,5", "--train-seeds", "6", "--augment-top3", "2", "--emb-dim", "6",
      "--hidden", "5"],
     ExperimentConfig(variants=("nnsc", "word"), q_values=(2, 3), sample_seeds=(4, 5),
                      train_seeds=(6,), augment_top3=2, d=6, h=5)),
    (["synth-gen", "--classes", "4", "--train-size", "10", "--test-size", "5", "--noise", "0.2",
      "--seed", "7", "--out", "syn"],
     SyntheticSpec(classes=4, train_size=10, test_size=5, noise=0.2, seed=7)),
], ids=["train", "experiment", "synth-gen"])
def test_every_config_flag_sets_its_field(argv, config):
    assert config_from_flags(type(config), build_parser().parse_args(argv)) == config


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_train_test_accuracy_equals_eval_of_its_checkpoint(corpus, tmp_path, capsys, variant):
    ckpt = tmp_path / "model.npz"
    rules, test = str(corpus / "rules.tsv"), str(corpus / "test.tsv")
    assert main([
        "train", "--rules", rules, "--train", str(corpus / "train.tsv"), "--test", test,
        "--variant", variant, "--epochs", "3", "--lr", "0.3", "--emb-dim", "4",
        "--hidden", "4", "--out", str(ckpt),
    ]) == 0
    trained = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("test_accuracy=")]
    assert main(["eval", "--rules", rules, "--test", test, "--model", str(ckpt)]) == 0
    evaluated = capsys.readouterr().out.splitlines()
    assert len(trained) == 1
    assert evaluated == [trained[0].replace("test_accuracy=", "accuracy=")]


def test_train_with_a_missing_test_file_fails_before_training(corpus, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    with pytest.raises(FileNotFoundError):
        main([
            "train", "--train", str(corpus / "train.tsv"), "--test", str(tmp_path / "none.tsv"),
            "--epochs", "1", "--emb-dim", "4", "--hidden", "4", "--out", str(ckpt),
        ])
    assert capsys.readouterr().out == ""
    assert not ckpt.exists()


def _eval_argv(corpus, *flags):
    return ["eval", "--rules", str(corpus / "rules.tsv"), "--test", str(corpus / "test.tsv"),
            *flags]


@pytest.mark.parametrize("flags, message", [
    ([], "one of the arguments --model --rule-only is required"),
    (["--rule-only", "--model", "/nonexistent.npz"],
     "argument --model: not allowed with argument --rule-only"),
])
def test_eval_needs_exactly_one_of_model_and_rule_only(corpus, capsys, flags, message):
    # both flags used to print a rule-only accuracy and exit 0, ignoring the model
    with pytest.raises(SystemExit) as exc:
        run(_eval_argv(corpus, *flags))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("in_file, on_argv", [
    (["--model", "/nonexistent.npz"], ["--rule-only"]),
    (["--rule-only"], ["--model", "/nonexistent.npz"]),
], ids=["model-in-file", "rule-only-in-file"])
def test_flags_file_cannot_break_eval_exclusivity(corpus, tmp_path, capsys, in_file, on_argv):
    flags = _flags_file(tmp_path, shlex.join(in_file) + "\n")
    with pytest.raises(SystemExit) as exc:
        run(_eval_argv(corpus, *on_argv, flags))
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["ture", "2", ""])
def test_config_switch_rejects_other_values(corpus, tmp_path, capsys, value):
    # `full_match = ture` used to switch off a --full-match given as a flag;
    # an on/off flag takes no value, so a file cannot switch it back off
    with pytest.raises(SystemExit) as exc:
        _parse_with_file(["trace", "--rules", "r.tsv", "--sentence", "x", "--full-match"],
                         f"--full-match {shlex.quote(value)}\n", tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["train", "--seed=-1"], "seed must be >= 0, got -1"),
    (["experiment", "--train-seeds=-3"], "seed must be >= 0, got -3"),
    (["fewshot", "--seeds=-1"], "sampling seeds must be >= 0, got -1"),
    (["fewshot", "--augment-top3", "-2"], "augment_top3 must be None or >= 0, got -2"),
])
def test_negative_seeds_and_counts_are_one_line_errors(corpus, tmp_path, capsys, flags, message):
    # each of these ended in a raw numpy ValueError traceback
    command, *rest = flags
    argv = [command, "--train", str(corpus / "train.tsv"), *rest]
    if command == "fewshot":
        argv += ["--out", str(tmp_path / "fewshot")]
    else:
        argv += ["--test", str(corpus / "test.tsv"), "--epochs", "1", "--emb-dim", "4",
                 "--hidden", "4"]
    if command == "experiment":
        argv += ["--variant", "nnsc", "--q", "1", "--seeds", "0"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rulefuse: error: {message}\n"
    assert not (tmp_path / "fewshot").exists()


@pytest.mark.parametrize("flags, message", [
    (["--classes", "0"], "classes must be in 2..56, got 0"),
    (["--classes", "1"], "classes must be in 2..56, got 1"),
    (["--classes", "99"], "classes must be in 2..56, got 99"),
    (["--train-size", "-5"], "train_size must be >= 1, got -5"),
    (["--test-size", "0"], "test_size must be >= 1, got 0"),
    (["--noise", "1.5"], "noise must be in [0, 1], got 1.5"),
    (["--noise", "-0.5"], "noise must be in [0, 1], got -0.5"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_synth_gen_out_of_range_is_a_one_line_error(tmp_path, capsys, flags, message):
    out = tmp_path / "synth"
    assert run(["synth-gen", "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rulefuse: error: {message}\n"
    assert not out.exists()


def test_synth_gen_accepts_the_range_ends(tmp_path, capsys):
    for classes, noise in ((2, 0.0), (56, 1.0)):
        out = tmp_path / f"c{classes}"
        assert run(["synth-gen", "--out", str(out), "--classes", str(classes),
                    "--train-size", "1", "--test-size", "1", "--noise", str(noise)]) == 0
        assert len((out / "rules.tsv").read_text().splitlines()) == classes


def test_optional_number_flags_name_their_type(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--train", "t.tsv", "--patience", "x"])
    assert "invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["experiment", "--train", "t.tsv", "--test", "x.tsv", "--q", "5,x"],
    ["fewshot", "--train", "t.tsv", "--seeds", "0,a"],
], ids=["experiment-q", "fewshot-seeds"])
def test_list_flags_name_their_type(capsys, argv):
    # the error used to name the helper: invalid _int_list value
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert f"invalid int list value: {argv[-1]!r}" in capsys.readouterr().err


def test_rule_only_eval_without_rules_is_a_one_line_error(corpus, capsys):
    # it printed rule_only_accuracy=0.0000 and exited 0
    assert run(["eval", "--test", str(corpus / "test.tsv"), "--rule-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rulefuse: error: the rule-only baseline needs at least one rule\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(after: str, fence: str) -> str:
    """The body of the first `fence` code block that follows `after`."""
    text = README.read_text(encoding="utf-8")
    return text.split(after, 1)[1].split(fence + "\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_commands_parse(tmp_path, monkeypatch):
    # the flags file the @FILE example reads is the one README shows
    (tmp_path / "train.args").write_text(_readme_block("## Flags files", "```text"))
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in _readme_block("## Quickstart", "```bash").replace("\\\n", " ").splitlines():
        tokens = shlex.split(line, comments=True)
        if ">" in tokens:
            tokens = tokens[: tokens.index(">")]
        if tokens:
            assert tokens[0] == "rulefuse", line
            commands.append(build_parser().parse_args(tokens[1:]))
    assert {args.command for args in commands} == {
        "synth-gen", "compile", "trace", "encode", "train", "eval", "fewshot", "experiment",
    }
    from_file = next(args for args in commands if args.command == "train" and args.epochs == 5)
    assert from_file.variant == "instance" and from_file.out == "model.npz"
