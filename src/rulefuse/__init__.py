"""rulefuse: word-pattern automata features for a small sentence classifier.

Human-written word-level patterns are compiled into minimal complete DFAs;
feeding a sentence through each automaton yields a state trace that is
encoded either as a per-rule state-indicator vector or as per-word binary
tags.  Those features plug into a compact BLSTM-attention classifier at
the classifier input ("instance") or the embedding input ("word"); "nnsc"
is the feature-free baseline.
"""

from .automata import Mdfa, compile, determinize, minimize, nfa_from_ast, to_dot
from .data import (
    Dataset,
    FewShotConfig,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    sample_fewshot,
)
from .encoding import (
    RuleMatcher,
    WordTagSeq,
    encode_all,
    encode_instance,
    encode_word_tags,
)
from .errors import (
    CapacityExceededError,
    CheckpointError,
    ConfigError,
    DimensionMismatchError,
    EmptyDatasetError,
    MalformedLineError,
    MissingFeaturesError,
    NumericalError,
    RegexSyntaxError,
    RulefuseError,
    RulesMismatchError,
    UnknownLabelError,
)
from .experiment import (
    ExperimentConfig,
    compile_rules,
    evaluate_accuracy,
    rule_baseline_accuracy,
    run_experiment,
)
from .matching import Sentence, Trace, run_trace
from .model import (
    ActivationRecord,
    ModelParams,
    TrainConfig,
    TrainItem,
    build_vocab,
    forward,
    load_model,
    loss_and_grads,
    predict,
    save_model,
    train,
)
from .rules import RuleSet, load_rules, parse_regex, unparse

__version__ = "0.1.0"
