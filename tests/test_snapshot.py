"""The e-graph byte container (tests/egraph_snapshot.py).

The contract under test: a restored e-graph is *state-identical* to
the serialized one, so the differential tests that copy and
byte-compare graphs through it compare like with like.  Corrupt or
version-mismatched bytes always raise :class:`SnapshotError`, never
a wrong answer.
"""

from __future__ import annotations

import json

import pytest

from egraph_snapshot import (
    MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    egraph_from_doc,
    egraph_to_doc,
    load_egraph,
    load_snapshot_meta,
    save_egraph,
)

from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import parse_rewrite
from repro.egraph.runner import RunnerLimits, run_saturation
from repro.lang.parser import parse

_COMM = parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")
_ASSOC = parse_rewrite("assoc", "(+ (+ ?a ?b) ?c) => (+ ?a (+ ?b ?c))")
_MUL_COMM = parse_rewrite("mul-comm", "(* ?a ?b) => (* ?b ?a)")
_RULES = [_COMM, _ASSOC, _MUL_COMM]


def _worked_graph() -> tuple[EGraph, int]:
    """A graph with real history: merged classes, dirty-then-rebuilt."""
    g = EGraph()
    root = g.add_term(
        parse("(* (+ (+ (Get x 0) (Get x 1)) (Get x 2)) (Get y 0))")
    )
    run_saturation(
        g,
        _RULES,
        RunnerLimits(max_iterations=3, max_nodes=500_000, time_limit=120.0),
    )
    return g, root


class TestContainer:
    def test_save_load_save_is_fixpoint(self):
        g, _ = _worked_graph()
        data = save_egraph(g)
        restored, meta = load_egraph(data)
        assert save_egraph(restored) == data
        assert meta["schema"] == SNAPSHOT_VERSION
        assert len(meta["digest"]) == 16

    def test_restored_graph_matches_live_state(self):
        g, root = _worked_graph()
        restored, _ = load_egraph(save_egraph(g))
        assert restored.n_nodes == g.n_nodes
        assert restored.n_classes == g.n_classes
        assert restored.find(root) == g.find(root)
        assert restored._hashcons == g._hashcons
        assert list(restored._hashcons) == list(g._hashcons)  # order too

    def test_meta_rides_the_uncompressed_header(self):
        g, _ = _worked_graph()
        data = save_egraph(g, meta={"kernel": "k1", "phase": "expansion"})
        meta, _body = load_snapshot_meta(data)
        assert meta["kernel"] == "k1"
        assert meta["phase"] == "expansion"
        # The meta line must be scannable without decompression.
        header_line = data.split(b"\n", 2)[1]
        assert b'"kernel":"k1"' in header_line

    def test_empty_graph_round_trips(self):
        data = save_egraph(EGraph())
        restored, _ = load_egraph(data)
        assert restored.n_classes == 0
        assert save_egraph(restored) == data

    def test_not_a_snapshot_raises(self):
        with pytest.raises(SnapshotError):
            load_snapshot_meta(b"no newline here")

    def test_bad_magic_raises(self):
        g, _ = _worked_graph()
        data = b"XSNP9" + save_egraph(g)[len(MAGIC):]
        with pytest.raises(SnapshotError, match="magic"):
            load_egraph(data)

    def test_missing_body_raises(self):
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot_meta(MAGIC + b"\n{}")

    def test_garbled_meta_line_raises(self):
        data = MAGIC + b"\nnot-json\nbody"
        with pytest.raises(SnapshotError, match="meta"):
            load_snapshot_meta(data)

    def test_truncated_body_raises(self):
        g, _ = _worked_graph()
        data = save_egraph(g)
        with pytest.raises(SnapshotError, match="corrupt"):
            load_egraph(data[: len(data) - 20])

    def test_schema_mismatch_raises(self):
        g, _ = _worked_graph()
        magic, meta_line, body = save_egraph(g).split(b"\n", 2)
        meta = json.loads(meta_line)
        meta["schema"] = SNAPSHOT_VERSION + 1
        forged = b"\n".join(
            [magic, json.dumps(meta).encode("utf-8"), body]
        )
        with pytest.raises(SnapshotError, match="schema"):
            load_egraph(forged)

    def test_payload_version_mismatch_raises(self):
        g, _ = _worked_graph()
        doc = egraph_to_doc(g)
        doc["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            egraph_from_doc(doc)
