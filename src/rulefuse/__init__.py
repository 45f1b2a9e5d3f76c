"""rulefuse: word-pattern automata features for a small sentence classifier.

Human-written word-level patterns are compiled into minimal complete DFAs;
feeding a sentence through each automaton yields a state trace that is
encoded either as a per-rule state-indicator vector or as per-word binary
tags.  Those features plug into a compact BLSTM-attention classifier at
the classifier input ("instance") or the embedding input ("word"); "nnsc"
is the feature-free baseline.

The package root exports nothing: import each name from its module, e.g.
``from rulefuse.experiment import run_experiment``.
"""
