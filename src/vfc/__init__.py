"""Desk-scale toolkit for Kuranishi atlases with finite isotropy.

Modules
-------
exterior_engine
    Exact rational matrices and the sign of a transverse zero.
expressions
    Expression ASTs with forward-mode (dual-number) derivatives.
charts_atlas
    Chart/atlas data model, validators, categories and realizations.
reduction_perturb
    Reductions, pruned categories, perturbations, adaptedness constants.
zeroset_branched
    Zero finding, groupoid completion, weights, 0-dimensional classes.
examples_cli
    Built-in worked examples, the run pipeline and its JSON reports.
cli
    The ``vfc`` command line.
"""

__version__ = "0.1.0"
