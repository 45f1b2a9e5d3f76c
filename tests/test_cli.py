import json

import numpy as np
import pytest

from rulefuse.cli import _apply_config_file, build_parser, main, run
from rulefuse.data import load_dataset
from rulefuse.encoding import encode_instance, encode_word_tags
from rulefuse.errors import ConfigError, RulesMismatchError
from rulefuse.experiment import compile_rules
from rulefuse.matching import run_trace
from rulefuse.model import load_model, save_model
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
            run_trace(mdfa, sentence, rule_id=rule.rule_id, full_match=full)
            for rule, mdfa in zip(ruleset.rules, mdfas)
        ]
        record = {
            "text": sentence.text(),
            "label": dataset.label_names[label],
            "instance": [
                [int(v) for v in encode_instance(trace, mdfa.state_count, gate=gate).values]
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
    assert [rule["label"] for rule in params.rules] == load_rules(corpus / "rules.tsv").labels()
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


def test_config_file_overrides_flags(corpus, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("sentence = alpha w00 beta\n")
    main([
        "trace", "--rules", str(corpus / "rules.tsv"),
        "--sentence", "ignored words", "--config", str(config),
    ])
    lines = capsys.readouterr().out.splitlines()
    # the alpha..beta rule accepts the configured sentence, not the flag one
    assert any("accepted=True" in line for line in lines)


def test_unknown_config_key_errors(corpus, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("no_such_flag = 3\n")
    with pytest.raises(SystemExit):
        main([
            "trace", "--rules", str(corpus / "rules.tsv"),
            "--sentence", "x", "--config", str(config),
        ])


def _parse_with_config(argv, text, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(text)
    parser = build_parser()
    args = parser.parse_args(argv + ["--config", str(config)])
    _apply_config_file(args, parser)
    return args


def test_config_values_use_flag_types(corpus, tmp_path):
    # defaults of None (patience) used to leave raw strings, and clip_norm
    # could not be switched off
    args = _parse_with_config(
        ["train", "--train", str(corpus / "train.tsv")],
        "patience = 3\nclip-norm = none\nlr = 0.25\n",
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
            {"epochs": "7", "lr": "0.25", "batch-size": "4", "emb-dim": "6", "hidden": "5",
             "clip-norm": "none", "variant": "word", "seed": "3", "patience": "2",
             "test": "x.tsv", "rules": "r.tsv"},
        ),
        (
            ["experiment", "--train", "t.tsv", "--test", "x.tsv"],
            {"variant": "nnsc,word", "q": "2,3", "seeds": "4,5", "train-seeds": "6",
             "augment-top3": "2", "clip-norm": "1.5", "epochs": "3"},
        ),
        (
            ["encode", "--train", "t.tsv"],
            {"gate-instance": "true", "full-match": "yes", "out": "f.jsonl"},
        ),
    ],
)
def test_config_file_matches_command_line(argv, values, tmp_path):
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    from_config = _parse_with_config(argv, text, tmp_path)
    flags = []
    for key, value in values.items():
        flags += [f"--{key}"] if value in ("true", "yes") else [f"--{key}", value]
    from_flags = build_parser().parse_args(argv + flags + ["--config", str(tmp_path / "run.conf")])
    assert vars(from_config) == vars(from_flags)


def test_config_rejects_bad_choice(corpus, tmp_path):
    with pytest.raises(SystemExit):
        _parse_with_config(
            ["train", "--train", str(corpus / "train.tsv")], "variant = bogus\n", tmp_path
        )


def test_train_reports_a_numerical_abort(corpus, capsys):
    # this learning rate overflows in the first epoch, so no epoch completes
    assert main([
        "train", "--train", str(corpus / "train.tsv"), "--epochs", "20",
        "--lr", "1e12", "--clip-norm", "none", "--emb-dim", "4", "--hidden", "3",
    ]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "training aborted (numerical) in epoch 1; kept the parameters of the last finite epoch"
    ]


def test_train_with_patience_and_no_clipping_from_config(corpus, tmp_path, capsys):
    config = tmp_path / "train.conf"
    config.write_text("patience = 1\nclip_norm = none\n")
    assert main([
        "train", "--rules", str(corpus / "rules.tsv"),
        "--train", str(corpus / "train.tsv"), "--dev", str(corpus / "test.tsv"),
        "--epochs", "3", "--emb-dim", "4", "--hidden", "4", "--config", str(config),
    ]) == 0
    assert "dev_accuracy=" in capsys.readouterr().out


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
