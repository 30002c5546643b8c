"""Versioned byte-level serialization of e-graphs, a test helper.

The differential tests copy and byte-compare e-graphs through it: two
graphs that serialize to equal bytes hold the same internal state.
Following the eqsat-dialect observation that e-graphs flatten cleanly
into table form (nodes / classes / union-find), it has three layers:

- :func:`egraph_to_doc` / :func:`egraph_from_doc` — the flat-table
  document form (interned node table, class table, hashcons pairs,
  union-find parent array, op-index, counters);
- :func:`dump_snapshot` / :func:`load_snapshot` — the byte container:
  magic + version line, an *uncompressed* JSON meta line (cheap to
  scan without inflating the body), and a zlib-compressed JSON
  payload;
- :func:`save_egraph` / :func:`load_egraph` — one-call e-graph ↔
  bytes round-trip.

Restoration rebuilds the *exact* internal state — dict insertion
orders, worklist, touched set, staleness counters — so a restored
graph behaves byte-identically to the live one under further
saturation and extraction.  A stateful field added to
:class:`~repro.egraph.egraph.EGraph` must be added to
:func:`egraph_to_doc` / :func:`egraph_from_doc` too (with a schema
version bump), or copies silently diverge from live graphs.  Anything
malformed raises :class:`SnapshotError`.
"""

from __future__ import annotations

import hashlib
import json
import zlib

from repro.egraph.egraph import EClass, EGraph

#: Schema version of the serialized e-graph document.  Bump on any
#: change to the payload layout; readers reject mismatches.
SNAPSHOT_VERSION = 1

#: First container line: file magic + container format version.
MAGIC = b"RSNP1"


class SnapshotError(ValueError):
    """A snapshot byte string or document is corrupt or unsupported."""


# -- payload encoding --------------------------------------------------------
#
# An e-node payload is None, an int/float, a string, or a (str, int)
# pair (the ``Get`` accessor).  ``0`` encodes None; everything else is
# a ``[tag, ...]`` list so the decoder never guesses.

_PAY_NUM = 1
_PAY_STR = 2
_PAY_PAIR = 3


def _encode_payload(payload):
    if payload is None:
        return 0
    if isinstance(payload, bool):  # bool is an int; reject explicitly
        raise SnapshotError(f"unsupported payload {payload!r}")
    if isinstance(payload, (int, float)):
        return [_PAY_NUM, payload]
    if isinstance(payload, str):
        return [_PAY_STR, payload]
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], str)
        and isinstance(payload[1], int)
    ):
        return [_PAY_PAIR, payload[0], payload[1]]
    raise SnapshotError(f"unsupported payload {payload!r}")


def _decode_payload(doc):
    if doc == 0:
        return None
    tag = doc[0]
    if tag == _PAY_NUM:
        value = doc[1]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SnapshotError(f"bad numeric payload {doc!r}")
        return value
    if tag == _PAY_STR:
        return str(doc[1])
    if tag == _PAY_PAIR:
        return (str(doc[1]), int(doc[2]))
    raise SnapshotError(f"unknown payload tag {doc!r}")


# -- e-graph <-> document ----------------------------------------------------


def egraph_to_doc(egraph: EGraph) -> dict:
    """The flat-table document form of ``egraph``.

    Every distinct e-node tuple appearing in class node lists, parent
    lists, or the hashcons is interned once into a node table (op
    index + payload + child class ids); classes, parents, and the
    hashcons then reference nodes by table index.  List orders mirror
    the live dict/list insertion orders exactly, which is what makes
    restoration behavior-identical (rebuild and extraction iterate
    those containers).
    """
    ops: list[str] = []
    op_ids: dict[str, int] = {}
    nodes: list[list] = []
    node_ids: dict[tuple, int] = {}

    def op_id(op: str) -> int:
        idx = op_ids.get(op)
        if idx is None:
            idx = op_ids[op] = len(ops)
            ops.append(op)
        return idx

    def node_id(node: tuple) -> int:
        idx = node_ids.get(node)
        if idx is None:
            idx = node_ids[node] = len(nodes)
            op, payload, children = node
            nodes.append(
                [op_id(op), _encode_payload(payload), *children]
            )
        return idx

    classes = []
    for eclass in egraph._classes.values():
        parents_flat: list[int] = []
        for pnode, pclass in eclass.parents:
            parents_flat.append(node_id(pnode))
            parents_flat.append(pclass)
        classes.append(
            [eclass.id, [node_id(n) for n in eclass.nodes], parents_flat]
        )
    return {
        "version": SNAPSHOT_VERSION,
        "ops": ops,
        "nodes": nodes,
        "classes": classes,
        "hashcons": [
            [node_id(n), cid] for n, cid in egraph._hashcons.items()
        ],
        # Path compression rewrites parents on reads, so equal
        # union-finds may hold different arrays: the byte comparisons
        # also check that both sides compressed the same paths.
        "uf": list(egraph._uf._parent),
        "worklist": list(egraph._worklist),
        "touched": sorted(egraph._touched),
        "op_index": [
            [op_id(op), list(ids)]
            for op, ids in egraph._op_index.items()
        ],
        "counters": {
            "n_unions": egraph._n_unions,
            "n_adds": egraph._n_adds,
            "n_live_nodes": egraph._n_live_nodes,
            "index_stale": egraph._index_stale,
        },
    }


def egraph_from_doc(doc: dict) -> EGraph:
    """Rebuild an :class:`EGraph` from :func:`egraph_to_doc` output.

    The restored graph is state-identical to the serialized one:
    further saturation, rebuilds, and extraction proceed exactly as
    they would have on the original.  Malformed documents raise
    :class:`SnapshotError`.
    """
    try:
        if doc["version"] != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {doc['version']!r} "
                f"(this reader handles {SNAPSHOT_VERSION})"
            )
        ops = [str(op) for op in doc["ops"]]
        nodes = [
            (ops[row[0]], _decode_payload(row[1]), tuple(row[2:]))
            for row in doc["nodes"]
        ]
        egraph = EGraph()
        parents = [int(p) for p in doc["uf"]]
        if any(not 0 <= p < len(parents) for p in parents):
            raise SnapshotError("union-find parent id out of range")
        egraph._uf._parent = parents
        for cid, node_idxs, parents_flat in doc["classes"]:
            eclass = EClass(cid)
            eclass.nodes = [nodes[i] for i in node_idxs]
            eclass.parents = [
                (nodes[parents_flat[j]], parents_flat[j + 1])
                for j in range(0, len(parents_flat), 2)
            ]
            egraph._classes[cid] = eclass
        egraph._hashcons = {
            nodes[i]: cid for i, cid in doc["hashcons"]
        }
        egraph._worklist = [int(c) for c in doc["worklist"]]
        egraph._touched = set(int(c) for c in doc["touched"])
        egraph._op_index = {
            ops[oi]: [int(c) for c in ids]
            for oi, ids in doc["op_index"]
        }
        counters = doc["counters"]
        egraph._n_unions = int(counters["n_unions"])
        egraph._n_adds = int(counters["n_adds"])
        egraph._n_live_nodes = int(counters["n_live_nodes"])
        egraph._index_stale = int(counters["index_stale"])
        return egraph
    except SnapshotError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed e-graph snapshot: {exc}")


# -- the byte container ------------------------------------------------------


def dump_snapshot(payload: dict, meta: dict | None = None) -> bytes:
    """Serialize ``payload`` into the versioned snapshot container.

    Layout: the :data:`MAGIC` line, one *uncompressed* JSON meta line
    (readable without inflating the body), then the zlib-compressed
    JSON payload.  The meta line
    always carries ``schema`` (the payload schema version) and
    ``digest`` — a short SHA-256 of the canonical payload JSON.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    meta_doc = dict(meta or {})
    meta_doc["schema"] = SNAPSHOT_VERSION
    meta_doc["digest"] = hashlib.sha256(body).hexdigest()[:16]
    meta_line = json.dumps(
        meta_doc, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    # Level 1: snapshot bodies are table-heavy JSON that compresses
    # ~3x at any level; higher levels cost 5x the time for ~3% size.
    return b"\n".join([MAGIC, meta_line, zlib.compress(body, 1)])


def load_snapshot_meta(data: bytes) -> tuple[dict, bytes]:
    """Validate the container header; return ``(meta, compressed body)``.

    Cheap — the body is *not* decompressed, so the content digest
    comes from the meta line alone.  Raises
    :class:`SnapshotError` on a bad magic, version, or meta line.
    """
    if not isinstance(data, bytes) or b"\n" not in data:
        raise SnapshotError("not a snapshot: no container header")
    magic, rest = data.split(b"\n", 1)
    if magic != MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic[:12]!r}")
    if b"\n" not in rest:
        raise SnapshotError("truncated snapshot: missing body")
    meta_line, body = rest.split(b"\n", 1)
    try:
        meta = json.loads(meta_line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"bad snapshot meta line: {exc}")
    if not isinstance(meta, dict):
        raise SnapshotError("snapshot meta line is not an object")
    if meta.get("schema") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot schema {meta.get('schema')!r}"
        )
    return meta, body


def load_snapshot(data: bytes) -> tuple[dict, dict]:
    """Parse snapshot bytes; returns ``(meta, payload)``.

    Raises :class:`SnapshotError` for anything short of a well-formed
    container: wrong magic, unsupported version, truncated or
    corrupted compressed body, non-JSON payload.
    """
    meta, body = load_snapshot_meta(data)
    try:
        payload = json.loads(zlib.decompress(body))
    except (zlib.error, ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"corrupt snapshot body: {exc}")
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload is not an object")
    return meta, payload


def save_egraph(egraph: EGraph, meta: dict | None = None) -> bytes:
    """``egraph`` as snapshot bytes (``meta`` rides the header line)."""
    return dump_snapshot(egraph_to_doc(egraph), meta=meta)


def load_egraph(data: bytes) -> tuple[EGraph, dict]:
    """Restore ``(egraph, meta)`` from :func:`save_egraph` bytes."""
    meta, payload = load_snapshot(data)
    return egraph_from_doc(payload), meta
