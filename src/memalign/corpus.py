"""JSONL corpora and the deterministic synthetic instance generator.

Synthetic instances are built around an evidence chain: the full graph
contains a chain of gold nodes (N1 -> N2 -> ...) plus distractor nodes
and distractor edges confined to the distractor set, so the subgraph
induced on the gold nodes is exactly the chain.  The gold answer is a
noun unique within the instance, placed in the description of one chain
node.  Content vectors are split into segment blocks; each chain
position contributes a fixed signature pattern to the block of the
segment that covers it, which is what makes partial-context (masked)
retrieval learnable.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .graphs import (
    EVIDENCE_HEADER,
    FULL_HEADER,
    Edge,
    EvidenceSubgraph,
    GraphFormatError,
    MemoryGraph,
    Node,
    build_graph,
    emit,
    emit_evidence,
    scan,
    subset_violations,
)
from .seeding import component_rng
from .tokenization import graph_surface_words
from .vocab import Vocabulary, build_vocabulary
from .unified import InstanceContent, segment_blocks

ADJECTIVES = (
    "amber", "ancient", "brisk", "calm", "coastal", "crimson", "dusty",
    "eager", "faded", "gentle", "gilded", "hollow", "iron", "jagged",
    "lunar", "marble", "misty", "narrow", "oaken", "pale", "quiet",
    "rapid", "rustic", "silent", "solar", "sturdy", "timber", "vivid",
)

NOUNS = (
    "anchor", "archive", "basin", "beacon", "bridge", "canal", "canyon",
    "castle", "cavern", "chapel", "cistern", "citadel", "compass", "crater",
    "delta", "engine", "estuary", "forge", "fortress", "garden", "glacier",
    "granary", "harbor", "hearth", "island", "jetty", "keep", "lagoon",
    "lantern", "lighthouse", "meadow", "mill", "monument", "obelisk",
    "orchard", "plateau", "quarry", "reef", "reservoir", "ridge", "spire",
    "steeple", "summit", "terrace", "tower", "tunnel", "vault", "viaduct",
)

RELATIONS = (
    "anchors", "connects", "feeds", "guards", "overlooks", "powers",
    "shelters", "supports",
)

# Inclusive ranges of a synthetic instance's node count, gold chain length
# and extra edge count.  Every instance keeps at least two distractor nodes,
# so each range is met and at least one extra edge fits among them.
NODES_RANGE = (6, 9)
CHAIN_RANGE = (2, 4)
EXTRA_EDGES_RANGE = (1, 3)

# The confidence of every synthetic gold subgraph, and the scale of the
# noise each distractor node adds to one segment block of the content.
GOLD_CONFIDENCE = 0.9
DISTRACTOR_NOISE = 0.2


class CorpusError(ValueError):
    pass


# The instance attributes under which validate_records keeps the scan of
# each graph text until the graph is built; they are not fields, so they
# take no part in equality.
_FULL_SCAN = "_full_scan"
_GOLD_SCAN = "_gold_scan"


@dataclass(frozen=True)
class CorpusInstance:
    id: str
    query: str
    gold_answer: str
    full_graph_text: str
    gold_subgraph_text: str
    content_vector: tuple[float, ...]
    segment_count: int

    # Each graph is built on first use and kept with the instance.  It is
    # built from the scan that validate_records kept, which the build then
    # drops, or else from a scan of its text.

    def full_graph(self) -> MemoryGraph:
        return self._full_graph

    def gold_subgraph(self) -> EvidenceSubgraph:
        return self._gold_subgraph

    @functools.cached_property
    def _full_graph(self) -> MemoryGraph:
        nodes, edges, _ = self._scan(_FULL_SCAN, self.full_graph_text, FULL_HEADER)
        return build_graph(nodes, edges)

    @functools.cached_property
    def _gold_subgraph(self) -> EvidenceSubgraph:
        nodes, edges, confidence = self._scan(
            _GOLD_SCAN, self.gold_subgraph_text, EVIDENCE_HEADER
        )
        return EvidenceSubgraph(build_graph(nodes, edges), confidence)

    def _scan(self, key: str, text: str, header: str) -> tuple:
        return self.__dict__.pop(key, None) or scan(text, header)

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "query": self.query,
                "gold_answer": self.gold_answer,
                "full_graph_text": self.full_graph_text,
                "gold_subgraph_text": self.gold_subgraph_text,
                "content_vector": list(self.content_vector),
                "segment_count": self.segment_count,
            },
            sort_keys=True,
        )


REQUIRED_FIELDS = (
    "id",
    "query",
    "gold_answer",
    "full_graph_text",
    "gold_subgraph_text",
    "content_vector",
    "segment_count",
)
STRING_FIELDS = REQUIRED_FIELDS[:-2]
# The types json.loads gives a number (a JSON true is a bool, not a number).
JSON_NUMBERS = frozenset((int, float))


class Record(NamedTuple):
    """One corpus record as decoded, before validation: its line in the file,
    the text fields (strings), the content vector as a tuple of floats (or
    as the JSON gave it, when that is not a list of numbers that float64
    can hold) and the segment count as the JSON gave it."""

    line: int
    id: str
    query: str
    gold_answer: str
    full_graph_text: str
    gold_subgraph_text: str
    content_vector: object
    segment_count: object


def corpus_to_jsonl(instances: list[CorpusInstance]) -> str:
    return "\n".join(inst.to_json() for inst in instances) + "\n"


def save_corpus(instances: list[CorpusInstance], path: str | Path) -> None:
    Path(path).write_text(corpus_to_jsonl(instances), encoding="utf-8")


def load_corpus(path: str | Path, d_c: int = 64) -> list[CorpusInstance]:
    """Load and fully validate a JSONL corpus.

    Every instance must have string text fields, unique ids, a finite
    content vector of ``d_c`` entries, one to ``d_c`` segments (each needs
    a content entry of its own), and graph texts that scan and pass subset
    verification; no invalid instance ever reaches training.  Validation
    builds no graph objects: each instance keeps the scans of its graph
    texts and builds its graphs from them on first use, so a load scans
    each graph text once.

    A corpus that validates leaves its decoded records in a sidecar
    (``corpus.jsonl.decoded`` beside ``corpus.jsonl``).  A later load of
    the same bytes reads its records from there instead of parsing the
    JSON again, and validates them all the same.  A missing, stale or
    damaged sidecar, or records the validator refuses, leave the verdict
    to the JSONL.
    """
    path = Path(path)
    raw = path.read_bytes()
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    sidecar = path.with_name(path.name + SIDECAR_SUFFIX)
    records = _read_sidecar(sidecar, digest)
    if records is not None:
        try:
            return validate_records(records, d_c)
        except CorpusError:
            pass  # the JSONL gives the verdict, naming its line
    # The validator takes each record as it is decoded, so the first bad
    # line gives the verdict, whichever of the two refuses it.
    decoded, fed = itertools.tee(decode_corpus(_corpus_text(raw)))
    instances = validate_records(fed, d_c)
    _write_sidecar(sidecar, digest, list(decoded))
    return instances


def _corpus_text(raw: bytes) -> str:
    """The corpus bytes as ``Path.read_text(encoding="utf-8")`` reads them:
    UTF-8, with ``\\r\\n`` and a lone ``\\r`` read as ``\\n``."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = _universal_newlines(raw[: exc.start].decode("utf-8")).count("\n") + 1
        raise CorpusError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def decode_corpus(text: str) -> Iterator[Record]:
    """The records of a corpus text, in line order: each line that is not
    blank must be a JSON object holding every required field, the text
    fields strings.  A content vector that is a list of numbers becomes a
    tuple of floats, unless float64 cannot hold one of them."""
    # JSON strings may hold U+2028, U+2029 and U+0085 raw, and
    # str.splitlines() would break lines at them.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise CorpusError(f"line {lineno}: expected a JSON object")
        for fieldname in REQUIRED_FIELDS:
            if fieldname not in record:
                raise CorpusError(f"line {lineno}: missing field {fieldname}")
        for fieldname in STRING_FIELDS:
            if not isinstance(record[fieldname], str):
                raise CorpusError(f"line {lineno}: {fieldname} is not a string")
        content = record["content_vector"]
        if _is_number_list(content):
            # An integer beyond float64 leaves the list for the validator to
            # refuse, after the checks that come first.
            with contextlib.suppress(OverflowError):
                content = tuple(map(float, content))
        yield Record(lineno, *map(record.__getitem__, STRING_FIELDS), content, record["segment_count"])


def _is_number_list(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= JSON_NUMBERS


def validate_records(records: Iterable[Record], d_c: int) -> list[CorpusInstance]:
    """The instances of decoded records, each checked in turn: a unique id,
    ``d_c`` finite numbers of content, a segment count from one to ``d_c``,
    graph texts that scan and a gold subgraph that passes subset
    verification.  The first record that fails is a :class:`CorpusError`
    naming its line or instance id.  Each instance keeps the two scans,
    from which its first :meth:`~CorpusInstance.full_graph` and
    :meth:`~CorpusInstance.gold_subgraph` build the graphs."""
    instances: list[CorpusInstance] = []
    seen_ids: set[str] = set()
    for record in records:
        lineno, instance_id = record.line, record.id
        if instance_id in seen_ids:
            raise CorpusError(f"line {lineno}: duplicate id {instance_id!r}")
        seen_ids.add(instance_id)
        content = record.content_vector
        if type(content) is not tuple:  # not decoded to floats
            if not _is_number_list(content):
                raise CorpusError(f"line {lineno}: content_vector is not a list of numbers")
            raise CorpusError(f"line {lineno}: content_vector has an entry beyond float64")
        if len(content) != d_c:
            raise CorpusError(
                f"line {lineno}: content_vector has {len(content)} entries, expected {d_c}"
            )
        if not all(map(math.isfinite, content)):
            raise CorpusError(f"line {lineno}: content_vector has a non-finite entry")
        segments = record.segment_count
        if type(segments) is not int or segments < 1:  # a JSON true is no count
            raise CorpusError(f"line {lineno}: segment_count {segments!r} is not a positive integer")
        if segments > d_c:
            raise CorpusError(f"line {lineno}: segment_count {segments} exceeds d_c {d_c}")
        instance = CorpusInstance(
            id=instance_id,
            query=record.query,
            gold_answer=record.gold_answer,
            full_graph_text=record.full_graph_text,
            gold_subgraph_text=record.gold_subgraph_text,
            content_vector=content,
            segment_count=segments,
        )
        try:
            full = scan(instance.full_graph_text, FULL_HEADER)
            gold = scan(instance.gold_subgraph_text, EVIDENCE_HEADER)
        except GraphFormatError as exc:
            raise CorpusError(
                f"instance {instance_id!r}: invalid graph text ({exc})"
            ) from exc
        violations = subset_violations(gold[0].items(), gold[1], full[0], full[1])
        if violations:
            kinds = ", ".join(v.kind for v in violations)
            raise CorpusError(
                f"instance {instance_id!r}: gold subgraph fails subset "
                f"verification ({kinds})"
            )
        vars(instance).update({_FULL_SCAN: full, _GOLD_SCAN: gold})
        instances.append(instance)
    return instances


# -- the decoded sidecar -------------------------------------------------
#
# Layout (integers little-endian):
#
#     tag       SIDECAR_TAG
#     digest    16 bytes  BLAKE2b (digest size 16) of the corpus file's bytes
#     checksum  uint32    CRC-32 of the body
#     body      records n uint64, content width w uint64;
#               one UTF-8 JSON array of n rows [line, segment_count, id,
#               query, gold_answer, full_graph_text, gold_subgraph_text];
#               n * w float64 content entries, row-major
#
# Like __pycache__, the sidecar is trusted to hold what this module wrote:
# damage is detected and deleting it is always safe.

SIDECAR_SUFFIX = ".decoded"
SIDECAR_TAG = b"memalign decoded corpus 1\n"
_HEAD = len(SIDECAR_TAG) + 16 + 4
_SIZES = struct.Struct("<QQ")


def _checksum(body) -> bytes:
    return struct.pack("<I", zlib.crc32(body))


def _is_row(row) -> bool:
    return (
        type(row) is list
        and len(row) == 7
        and type(row[0]) is int
        and type(row[1]) is int
        and all(type(text) is str for text in row[2:])
    )


def _read_sidecar(path: Path, digest: bytes) -> list[Record] | None:
    """The records a sidecar holds for the corpus bytes of ``digest``, or
    None when it is missing, unreadable, written for other bytes or damaged."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if (
        len(data) < _HEAD + _SIZES.size
        or not data.startswith(SIDECAR_TAG)
        or data[len(SIDECAR_TAG) : len(SIDECAR_TAG) + 16] != digest
    ):
        return None
    body = memoryview(data)[_HEAD:]
    if data[_HEAD - 4 : _HEAD] != _checksum(body):
        return None
    n, width = _SIZES.unpack_from(body)
    rows_end = len(body) - 8 * n * width
    if rows_end < _SIZES.size:
        return None
    try:
        rows = json.loads(bytes(body[_SIZES.size : rows_end]))
    except ValueError:
        return None
    if type(rows) is not list or len(rows) != n or not all(map(_is_row, rows)):
        return None
    content = np.frombuffer(body[rows_end:], dtype="<f8").reshape(n, width).tolist()
    return [
        Record(line, *texts, tuple(vector), segments)
        for (line, segments, *texts), vector in zip(rows, content)
    ]


def _write_sidecar(path: Path, digest: bytes, records: list[Record]) -> None:
    """Write the sidecar of validated ``records`` through a temporary file;
    a failed write leaves nothing and raises nothing, as the sidecar only
    spares work."""
    rows = [
        [r.line, r.segment_count, r.id, r.query, r.gold_answer,
         r.full_graph_text, r.gold_subgraph_text]
        for r in records
    ]
    width = len(records[0].content_vector) if records else 0
    content = np.array([r.content_vector for r in records], dtype="<f8")
    body = _SIZES.pack(len(rows), width) + json.dumps(rows).encode() + content.tobytes()
    temp = None
    try:
        handle, temp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(handle, "wb") as out:
            out.write(SIDECAR_TAG + digest + _checksum(body) + body)
        os.replace(temp, path)
    except OSError:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


# -- segment geometry ----------------------------------------------------


def chain_segment(position: int, segment_count: int) -> int:
    """Segment covering chain position ``position`` (1-based).

    Chain nodes alternate between the two paradigm halves; within a half
    they occupy early slots first, except the fourth node which sits one
    slot deeper so that it only becomes visible at full coverage.
    """
    if segment_count < 2:
        return 0
    half = segment_count // 2
    side = (position - 1) % 2
    slot = (position - 1) // 2
    if position >= 4:
        slot += 1
    return side * half + (slot % half)


def coverage_mask(side: int, fraction: float, segment_count: int) -> set[int]:
    """Visible segments for one paradigm side at a coverage fraction.

    Side 0 covers the first half of the segments, side 1 the second; a
    fraction in [0, 1] selects the leading slots of that half.
    """
    if side not in (0, 1):
        raise CorpusError("side must be 0 or 1")
    if segment_count < 2:
        raise CorpusError(f"coverage needs at least two segments, got {segment_count}")
    if not 0.0 <= fraction <= 1.0:
        raise CorpusError(f"coverage fraction {fraction} outside [0, 1]")
    half = segment_count // 2
    visible = math.ceil(fraction * half)
    start = side * half
    return set(range(start, start + visible))


def visible_gold(
    instance: CorpusInstance, visible_segments: set[int]
) -> EvidenceSubgraph:
    """Restrict the gold subgraph to chain nodes in visible segments."""
    gold = instance.gold_subgraph()
    keep_ids = {
        node.id
        for position, node in enumerate(gold.graph.nodes, start=1)
        if chain_segment(position, instance.segment_count) in visible_segments
    }
    nodes = tuple(n for n in gold.graph.nodes if n.id in keep_ids)
    edges = tuple(
        e
        for e in gold.graph.edges
        if e.source in keep_ids and e.target in keep_ids
    )
    return EvidenceSubgraph(MemoryGraph(nodes, edges), gold.confidence)


def segment_tags(
    segment_count: int, paradigms: tuple[str, str]
) -> tuple[tuple[int, str], ...]:
    """Default side split: first half of the segments per paradigm one,
    second half per paradigm two."""
    half = segment_count // 2
    return tuple(
        (s, paradigms[0] if s < half else paradigms[1])
        for s in range(segment_count)
    )


def instance_content(
    instance: CorpusInstance,
    paradigms: tuple[str, str] = ("explicit-sim", "latent-sim"),
) -> InstanceContent:
    return InstanceContent(
        id=instance.id,
        content_vector=np.asarray(instance.content_vector),
        gold_answer=instance.gold_answer,
        segment_tags=segment_tags(instance.segment_count, paradigms),
    )


# -- synthetic generation ------------------------------------------------


def generate_synthetic_corpus(
    n: int,
    seed: int,
    segment_count: int = 8,
    d_c: int = 64,
    content_noise: float = 0.5,
) -> list[CorpusInstance]:
    """Deterministic synthetic corpus of chain-evidence instances, each
    shaped by ``NODES_RANGE``, ``CHAIN_RANGE`` and ``EXTRA_EDGES_RANGE``,
    with the answer noun in the deepest chain node.  Every one of the
    ``segment_count`` segments needs a content entry of its own, so it
    may not exceed ``d_c``.
    """
    if n < 1:
        raise CorpusError("need n >= 1")
    if segment_count < 2:
        raise CorpusError("need at least two segments, one per paradigm side")
    if segment_count > d_c:
        raise CorpusError(f"segment_count {segment_count} exceeds d_c {d_c}")

    rng = component_rng(seed, "corpus")
    pattern_rng = component_rng(seed, "corpus-patterns")
    blocks = segment_blocks(d_c, segment_count)
    max_block = max(block.stop - block.start for block in blocks)
    patterns = pattern_rng.standard_normal((CHAIN_RANGE[1], max_block))

    instances: list[CorpusInstance] = []
    for index in range(n):
        total = int(rng.integers(NODES_RANGE[0], NODES_RANGE[1] + 1))
        g = int(rng.integers(CHAIN_RANGE[0], CHAIN_RANGE[1] + 1))
        nouns = rng.choice(NOUNS, size=total, replace=False)
        adjs = rng.choice(ADJECTIVES, size=total)
        nodes = tuple(
            Node(f"N{i + 1}", f"{adjs[i]} {nouns[i]}") for i in range(total)
        )

        chain_edges = tuple(
            Edge(f"N{k}", f"N{k + 1}", str(rng.choice(RELATIONS)))
            for k in range(1, g)
        )
        distractors = [f"N{i + 1}" for i in range(g, total)]
        pairs = [
            (a, b) for a in distractors for b in distractors if a != b
        ]
        max_extra = min(EXTRA_EDGES_RANGE[1], len(pairs))
        n_extra = int(rng.integers(EXTRA_EDGES_RANGE[0], max_extra + 1))
        chosen = rng.choice(len(pairs), size=n_extra, replace=False)
        extra_edges = tuple(
            Edge(pairs[p][0], pairs[p][1], str(rng.choice(RELATIONS)))
            for p in sorted(int(c) for c in chosen)
        )
        full = MemoryGraph(nodes, chain_edges + extra_edges)

        gold_nodes = nodes[:g]
        gold = EvidenceSubgraph(MemoryGraph(gold_nodes, chain_edges), GOLD_CONFIDENCE)

        gold_answer = str(nouns[g - 1])

        mentions = " and ".join(node.description for node in gold_nodes)
        query = f"which chain of {g} links runs through {mentions}"

        content = content_noise * rng.standard_normal(d_c)
        for position in range(1, g + 1):
            block = blocks[chain_segment(position, segment_count)]
            content[block] += patterns[position - 1][: block.stop - block.start]
        for i in range(g, total):
            block = blocks[int(rng.integers(segment_count))]
            content[block] += DISTRACTOR_NOISE * rng.standard_normal(block.stop - block.start)

        instances.append(
            CorpusInstance(
                id=f"inst-{seed}-{index:05d}",
                query=query,
                gold_answer=gold_answer,
                full_graph_text=emit(full, "full"),
                gold_subgraph_text=emit_evidence(gold),
                content_vector=tuple(content.tolist()),
                segment_count=segment_count,
            )
        )
    return instances


def corpus_vocabulary(instances: list[CorpusInstance]) -> Vocabulary:
    """Vocabulary over all full-graph and gold-subgraph surface words."""

    def words():
        for instance in instances:
            yield from graph_surface_words(instance.full_graph())
            sub = instance.gold_subgraph()
            yield from graph_surface_words(sub.graph, sub.confidence)

    return build_vocabulary(words())
