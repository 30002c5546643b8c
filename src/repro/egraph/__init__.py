"""An egg-style e-graph engine (Willsey et al., POPL 2021), in Python.

This is the substrate both Diospyros and Isaria build on: a congruence-
closed union-find of *e-classes*, each holding a set of *e-nodes* whose
children are e-class ids.  Equality saturation repeatedly matches
rewrite-rule left-hand sides against the graph and unions them with
instantiated right-hand sides, deferring congruence repair to an
explicit ``rebuild`` (egg's key performance idea).

Modules:

- :mod:`repro.egraph.unionfind` — union-find with path compression;
- :mod:`repro.egraph.egraph` — e-classes, hashcons, rebuild, and the
  incrementally maintained per-op candidate index;
- :mod:`repro.egraph.compile_pattern` — rewrites compiled to flat
  programs: an egg-style e-matching VM program for the LHS, run as a
  Python function generated once per program shape, and a postorder
  instantiation program for the RHS;
- :mod:`repro.egraph.ematch` — pattern matching over e-classes
  through the compiled LHS programs;
- :mod:`repro.egraph.rewrite` — rewrite rules and application;
- :mod:`repro.egraph.runner` — the saturation loop with node/iteration/
  time limits, egg's backoff rule scheduler (replaceable by any
  ``RuleScheduler``), and hot-path perf counters;
- :mod:`repro.egraph.extract` — bottom-up minimum-cost extraction.
"""

from repro.egraph.unionfind import UnionFind
from repro.egraph.egraph import EGraph, EClass, ENode
from repro.egraph.compile_pattern import (
    CompiledPattern,
    compile_pattern,
)
from repro.egraph.ematch import ematch, match_in_class
from repro.egraph.rewrite import Rewrite, parse_rewrite
from repro.egraph.runner import (
    RunnerLimits,
    RunnerReport,
    RuleScheduler,
    SaturationPerf,
    StopReason,
    BackoffScheduler,
    run_saturation,
)
from repro.egraph.extract import Extractor, extract_best
from repro.egraph.dot import to_dot

__all__ = [
    "UnionFind",
    "EGraph",
    "EClass",
    "ENode",
    "CompiledPattern",
    "compile_pattern",
    "ematch",
    "match_in_class",
    "Rewrite",
    "parse_rewrite",
    "RunnerLimits",
    "RunnerReport",
    "RuleScheduler",
    "SaturationPerf",
    "StopReason",
    "BackoffScheduler",
    "run_saturation",
    "Extractor",
    "extract_best",
    "to_dot",
]
