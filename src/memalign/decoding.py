"""Grammar- and subset-constrained greedy decoding.

At every step a dynamic mask permits only tokens that (a) keep the stream
inside the linearization grammar and (b) replay node/edge lines that
exist verbatim in the full memory graph.  The constraint engine records
which of the full graph's lines completed, and the chosen confidence
value, so the evidence subgraph is assembled from that record instead of
re-parsed from the tokens: it verifies by construction, also for
descriptions and relations with irregular whitespace, words that share a
structural token's spelling, and words or node ids the vocabulary lacks.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .graphs import EvidenceSubgraph, MemoryGraph
from .retriever import RetrieverModel
from .tokenization import edge_line_tokens, node_line_tokens
from .vocab import (
    BOS,
    EOS,
    TOK_CONFIDENCE,
    TOK_EDGES,
    TOK_EOL,
    TOK_HEADER,
    TOK_NODES,
    Vocabulary,
)


class DecodeError(RuntimeError):
    pass


# The most requests decode_many keeps in flight: enough rows to spread each
# step's NumPy calls thin, few enough to keep the step's temporaries small.
# On the serve corpus (d_m = 128), 32 to 64 rows decode fastest.
DECODE_WINDOW = 64


# Phases with exactly one legal token: (that token, the phase it leads to).
_FIXED_PHASES = {
    "header": (TOK_HEADER, "nodes-marker"),
    "nodes-marker": (TOK_NODES, "nodes-eol"),
    "nodes-eol": (TOK_EOL, "node-line-start"),
    "edges-eol": (TOK_EOL, "edge-line-start"),
    "confidence-eol": (TOK_EOL, "confidence-value"),
    "confidence-value-eol": (TOK_EOL, "eos"),
    "eos": (EOS, "eos"),
}

# Phases whose legal set is the engine's mask, each with the token that
# closes the section (legal at every line start), the phase that token
# leads to and the phase of a line begun there.
_LINE_STARTS = {
    "node-line-start": (TOK_EDGES, "edges-eol", "node-line"),
    "edge-line-start": (TOK_CONFIDENCE, "confidence-eol", "edge-line"),
}
# Phases inside a line, and the line start a completed line returns to.
_LINES = {"node-line": "node-line-start", "edge-line": "edge-line-start"}


class GraphIndex:
    """The part of a decode that depends only on the full graph and the
    vocabulary, built once and shared by back-to-back decodes of that
    graph: the vocabulary keeps the last index an engine was given.

    ``token_lines`` holds the graph's node lines, then its edge lines, in
    graph order and without their trailing EOL, which the engine handles
    by position; a line is known by its index there, not by its tokens, so
    node ids that share a token (unseen ids, all UNK) stay apart.  Words
    the vocabulary lacks read as UNK.
    ``node_groups`` maps each first token of a node line to the indices of
    the node lines it starts, in graph order.  ``start_mask`` is the legal
    set at the first node-line start as a read-only boolean vocabulary
    mask, those first tokens and ``<EDGES>``, and ``start_count`` its
    number of legal tokens; each engine starts from a copy.  ``graph`` is
    the graph the index was built from.
    Nothing in an index changes after it is built.
    """

    def __init__(self, full_graph: MemoryGraph, vocab: Vocabulary):
        word_id = vocab.input_id
        lines = [node_line_tokens(node, word_id) for node in full_graph.nodes]
        lines += [edge_line_tokens(edge, word_id) for edge in full_graph.edges]
        self.token_lines = tuple(tuple(line[:-1]) for line in lines)
        groups: dict[int, list[int]] = {}
        for i in range(len(full_graph.nodes)):
            groups.setdefault(lines[i][0], []).append(i)
        self.node_groups = {first: tuple(group) for first, group in groups.items()}
        mask = np.zeros(len(vocab), dtype=bool)
        mask[[*groups, TOK_EDGES]] = True
        mask.flags.writeable = False
        self.start_mask = mask
        self.start_count = len(groups) + 1
        self.graph = full_graph


class ConstraintEngine:
    """Tracks the grammar state and the set of legal next tokens for one
    decode against a fixed full graph, whose :class:`GraphIndex` it reads:
    the vocabulary's last index when that was built from an equal graph,
    else a new one, which the vocabulary then keeps in its place.

    Node lines and edge lines are replayed alike.  ``pending`` maps each
    first token to the unused lines it starts, in graph order, and the
    legal set at a line start is one boolean vocabulary mask, ``mask``,
    with ``count`` legal tokens: the first tokens with an unused line and
    the token that closes the section.  Before ``<EDGES>`` the pending
    lines are the index's node groups and the mask a copy of its start
    mask.  The completed node set is final once ``<EDGES>`` is taken, so
    the open edges (both endpoint nodes completed, compared by node id)
    are grouped by first token then, and the mask becomes those tokens
    and ``[CONFIDENCE]``.  Inside a line, ``candidates`` holds the pending
    lines that share the tokens taken so far; the EOL completes the first
    of them of the current length.  A completed line leaves its group,
    except the last, which stays while the first token's mask entry
    clears.  Every step other than a line start costs time in the
    candidates, not in the size of the graph.

    A decode takes each run of decided tokens from :meth:`take_run`, which
    tells by ``at_choice`` whether the run stopped at a choice, and there
    asks :meth:`choose` for the legal token with the highest logit; neither
    builds the legal set at a line start.
    :meth:`allowed_tokens` lists the legal set.

    A line ends by its length, not by the first EOL token, so a word
    spelled like a structural token is replayed as part of its line.  The
    engine records the index of each line as it completes, ``completed``,
    and the confidence value taken; :meth:`evidence` assembles the
    subgraph from that record.
    """

    def __init__(self, full_graph: MemoryGraph, vocab: Vocabulary):
        self.vocab = vocab
        # Decodes of one graph come back to back (an instance's views and
        # coverage levels), so the last index catches every repeat.
        index = vocab.graph_index
        if index is None or index.graph != full_graph:
            index = vocab.graph_index = GraphIndex(full_graph, vocab)
        self.index = index
        self.phase = "header"
        self.mask = index.start_mask.copy()
        self.count = index.start_count
        # The groups stay the index's; a completion replaces its own.
        self.pending: dict[int, Sequence[int]] = dict(index.node_groups)
        # Inside a line: the tokens taken of it, and its candidates.
        self.pos = 0
        self.candidates: Sequence[int] = ()
        self.done = False
        # Whether the last run stopped because the next token is a choice.
        self.at_choice = False
        # The record: completed lines' indices, in order, and the
        # confidence value once taken.
        self.completed: list[int] = []
        self.confidence: float | None = None

    def allowed_tokens(self) -> list[int]:
        """The legal next tokens, in ascending id order."""
        phase = self.phase
        if phase in _LINES:
            pos = self.pos
            lines = self.index.token_lines
            return sorted(
                {lines[i][pos] if pos < len(lines[i]) else TOK_EOL for i in self.candidates}
            )
        if phase in _FIXED_PHASES:
            return [_FIXED_PHASES[phase][0]]
        if phase in _LINE_STARTS:
            return np.flatnonzero(self.mask).tolist()
        if phase == "confidence-value":
            return list(self.vocab.confidence_ids)
        raise DecodeError(f"no legal continuation from phase {phase!r}")

    def take_run(self) -> list[int]:
        """Consume and return the decided tokens up to the next choice, none
        after the confidence value or EOS; empty at a choice,
        :class:`DecodeError` when the next token is a dead end.  A line with
        one candidate left is one slice of its tokens and EOL.
        ``at_choice`` tells whether the run stopped at a choice, so a
        decode need not ask again to learn of it."""
        run: list[int] = []
        self.at_choice = False
        while not self.done:
            phase = self.phase
            if phase in _LINES:
                candidates, pos, lines = self.candidates, self.pos, self.index.token_lines
                if len(candidates) == 1:
                    line = lines[candidates[0]]
                    run += line[pos:]
                    run.append(TOK_EOL)
                    self.pos = len(line)
                    self._complete(candidates[0])
                    continue
                legal = {lines[i][pos] if pos < len(lines[i]) else TOK_EOL for i in candidates}
            elif phase in _FIXED_PHASES:
                legal = (_FIXED_PHASES[phase][0],)
            elif phase in _LINE_STARTS:
                # The closing token is always legal, and forced when alone.
                if self.count > 1:
                    self.at_choice = True
                    break
                legal = (_LINE_STARTS[phase][0],)
            else:  # the confidence value
                legal = self.vocab.confidence_ids
            if not legal and not run:
                raise DecodeError(f"grammar dead end in phase {phase!r}")
            if len(legal) != 1:
                self.at_choice = len(legal) > 1
                break
            (token,) = legal
            self.advance(token)
            run.append(token)
            if phase == "confidence-value":
                break
        return run

    def choose(self, row_logits: np.ndarray) -> int:
        """The legal next token with the highest of ``row_logits`` (one
        logit per vocabulary token), ties to the lowest id: the token
        ``allowed[row_logits[allowed].argmax()]`` picks from ``allowed =
        allowed_tokens()``."""
        if self.phase in _LINE_STARTS:
            mask = self.mask
            token = int(np.where(mask, row_logits, -np.inf).argmax())
            # Only when every legal logit is -inf can the argmax land on
            # an illegal token; the lowest legal id is then the pick.
            return token if mask[token] else int(mask.argmax())
        allowed = self.allowed_tokens()
        if not allowed:
            raise DecodeError(f"grammar dead end in phase {self.phase!r}")
        return allowed[int(row_logits.take(allowed).argmax())]

    def _reject(self, token: int) -> None:
        if 0 <= token < len(self.mask):
            raise DecodeError(
                f"token {self.vocab.token(token)!r} not legal in phase {self.phase!r}"
            )
        raise DecodeError(f"token id {token} not legal in phase {self.phase!r}")

    def advance(self, token: int) -> None:
        """Consume ``token``; raises :class:`DecodeError`, leaving the state
        unchanged, when it is not legal."""
        phase = self.phase
        if phase in _LINES:
            pos = self.pos
            lines = self.index.token_lines
            candidates = self.candidates
            if token == TOK_EOL:
                # Duplicate lines resolve to the first unused index.  With
                # no line of this length, an EOL word continues a longer
                # line.
                for i in candidates:
                    if len(lines[i]) == pos:
                        self._complete(i)
                        return
            matches = [i for i in candidates if pos < len(lines[i]) and lines[i][pos] == token]
            if not matches:
                self._reject(token)
            self.pos = pos + 1
            self.candidates = matches
        elif phase in _FIXED_PHASES:
            expected, next_phase = _FIXED_PHASES[phase]
            if token != expected:
                self._reject(token)
            self.phase = next_phase
            if phase == "eos":
                self.done = True
        elif phase in _LINE_STARTS:
            closing, next_phase, line_phase = _LINE_STARTS[phase]
            if token == closing:
                if token == TOK_EDGES:
                    self._open_edges()
                self.phase = next_phase
            # An id outside the vocabulary, which an index would wrap or
            # overrun, starts no line.
            elif 0 <= token < len(self.mask) and self.mask[token]:
                self.pos = 1
                self.candidates = self.pending[token]
                self.phase = line_phase
            else:
                self._reject(token)
        elif phase == "confidence-value":
            if token not in self.vocab.confidence_ids:
                self._reject(token)
            self.confidence = float(self.vocab.token(token))
            self.phase = "confidence-value-eol"
        else:
            raise DecodeError(f"cannot advance from phase {phase!r}")

    def _complete(self, i: int) -> None:
        """Record line ``i`` as completed and return to the line start."""
        first = self.index.token_lines[i][0]
        unused = self.pending[first]
        if len(unused) == 1:
            self.mask[first] = False
            self.count -= 1
        else:
            self.pending[first] = [j for j in unused if j != i]
        self.completed.append(i)
        self.candidates = ()
        self.phase = _LINES[self.phase]

    def _open_edges(self) -> None:
        """Group the edges whose endpoint nodes were both completed by first
        token, and turn the mask into those tokens and ``[CONFIDENCE]``."""
        graph = self.index.graph
        lines = self.index.token_lines
        done = {graph.nodes[i].id for i in self.completed}
        pending: dict[int, list[int]] = {}
        for i, edge in enumerate(graph.edges, len(graph.nodes)):
            if edge.source in done and edge.target in done:
                pending.setdefault(lines[i][0], []).append(i)
        self.pending = pending
        self.mask[:] = False
        self.mask[[*pending, TOK_CONFIDENCE]] = True
        self.count = len(pending) + 1

    def evidence(self) -> EvidenceSubgraph:
        """The evidence subgraph of the lines completed so far and the
        confidence value taken."""
        nodes, edges = self.index.graph.nodes, self.index.graph.edges
        n = len(nodes)
        return EvidenceSubgraph(
            MemoryGraph(
                tuple(nodes[i] for i in self.completed if i < n),
                tuple(edges[i - n] for i in self.completed if i >= n),
            ),
            self.confidence,
        )


def decode_many(
    model: RetrieverModel,
    vocab: Vocabulary,
    requests: Iterable[tuple[MemoryGraph, np.ndarray, np.ndarray]],
) -> list[EvidenceSubgraph]:
    """Greedy constrained decoding of ``(full_graph, q, h)`` requests in
    lock step.

    Every request has its own :class:`ConstraintEngine` over its graph's
    :class:`GraphIndex`, which consecutive requests for equal graphs share
    (an engine keeps its index while it decodes), and every row reads its
    input projections from the model's projection table.  The rows run the
    cell training runs: requests that join together get their initial
    states from one ``init_states`` call, and each step runs ``transition``
    once over the rows still decoding and ``logits`` once over the rows at
    a choice, which take their engine's :meth:`~ConstraintEngine.choose`.
    A row takes each run of decided tokens from its engine in one
    :meth:`~ConstraintEngine.take_run` call and feeds it one token a step;
    a run that stopped at a choice (``at_choice``) ends with that choice,
    so the engine is asked for the next run only after it.
    Inputs and states are gathered by ``ndarray.take``.  Once a row takes
    its confidence value, only EOL and EOS can follow and no logits read
    the states after it, so the row ends there, with its evidence subgraph
    assembled from its engine's record.  The next request joins as soon as
    fewer than :data:`DECODE_WINDOW` rows are decoding, so memory stays
    bounded; ``requests`` is consumed in order.

    The last row, once no request can join it (every lone decode, and the
    end of every batch), leaves the lock step for a loop of its own: one
    one-row ``transition`` per run token, and at a choice one
    ``transition`` and one ``logits`` row.  A batch row and a lone decode
    (one row, which NumPy hands to gemv) may round a state's last bits
    differently, so they take the same tokens unless two legal tokens'
    logits tie within that rounding.  Every output passes subset
    verification against its full graph, also when the vocabulary lacks
    some of its words or node ids.

    A row needs no token budget, as each full-graph line completes at
    most once, and cannot dead-end once the vocabulary has a confidence
    value token.  So a request fails only as it joins: a malformed one
    raises at once, before any later request is taken, as a loop over the
    requests in input order would.  A model whose vocabulary size is not
    ``len(vocab)``, or a vocabulary without a confidence value token,
    raises :class:`DecodeError` before any request is taken.
    """
    if model.vocab_size != len(vocab):
        raise DecodeError(
            f"retriever has {model.vocab_size} token rows but the vocabulary "
            f"has {len(vocab)} tokens"
        )
    if not vocab.confidence_ids:
        raise DecodeError("vocabulary has no confidence value token")
    pending = iter(requests)
    exhausted = False
    subgraphs: list[EvidenceSubgraph | None] = []  # per request taken, in input order
    # The requests decoding, in input order, as [index, engine, last token
    # (the next step's input), queued run (its engine took it already, None
    # for a choice that ends it)], and their states.
    rows: list[list] = []
    state = np.empty((0, model.d_m))
    # Every token's input projection, built once per model, not per call.
    projections = model.projections()

    while True:
        joined = []  # the joining rows' conditioning rows
        while not exhausted and len(rows) < DECODE_WINDOW:
            request = next(pending, None)
            if request is None:
                exhausted = True
                break
            full_graph, q, h = request
            engine = ConstraintEngine(full_graph, vocab)
            joined.append(model.conditioning(q, h))
            rows.append([len(subgraphs), engine, BOS, []])
            subgraphs.append(None)
        if joined:
            state = np.vstack((state, model.init_states(np.stack(joined))))
        if len(rows) < 2 and exhausted:
            break  # no request can join: a last row runs alone below

        kept, taken, inputs, choices = [], [], [], []
        for k, row in enumerate(rows):
            i, engine, last, run = row
            if not run:
                if engine.confidence is not None:
                    # The engine is released before the next request joins.
                    subgraphs[i] = engine.evidence()
                    row[1] = engine = None
                    continue
                run = row[3] = engine.take_run()
                if engine.at_choice:
                    run.append(None)
            token = run.pop(0)
            if token is None:
                choices.append(len(kept))
            kept.append(k)
            taken.append(token)
            inputs.append(last)
        if len(kept) < len(rows):
            rows = [rows[k] for k in kept]
            state = state.take(kept, axis=0)
            if not rows:
                continue

        # Every row's state consumes its last token; only the choice rows
        # (more than one legal token) need logits.
        state = model.transition(projections.take(inputs, axis=1), state)
        if choices:
            chosen = state if len(choices) == len(rows) else state.take(choices, axis=0)
            for row_logits, k in zip(model.logits(chosen), choices):
                taken[k] = token = rows[k][1].choose(row_logits)
                rows[k][1].advance(token)
        for row, token in zip(rows, taken):
            row[2] = token

    if rows:
        # The last row, alone: a run costs one transition per token, and
        # the choice that ends it one transition and one logits row more.
        i, engine, last, run = rows[0]
        while True:
            for token in run:
                state = model.transition(projections[:, last : last + 1], state)
                if token is None:
                    token = engine.choose(model.logits(state)[0])
                    engine.advance(token)
                last = token
            if engine.confidence is not None:
                break
            run = engine.take_run()
            if engine.at_choice:
                run.append(None)
        subgraphs[i] = engine.evidence()
    return subgraphs


def generate_subgraph(
    model: RetrieverModel,
    full_graph: MemoryGraph,
    q: np.ndarray,
    h: np.ndarray,
    vocab: Vocabulary,
) -> EvidenceSubgraph:
    """Greedy constrained decoding of one evidence subgraph: the one-request
    case of :func:`decode_many`, so it passes subset verification against
    ``full_graph``."""
    return decode_many(model, vocab, [(full_graph, q, h)])[0]
