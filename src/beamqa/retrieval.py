"""Lexical corpus index, BM25 retrieval, and evidence gathering.

The index is an Okapi BM25 inverted index whose postings carry each
document's finished term weight, so a query only adds up weights.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator, Sequence

from .accounting import CostLedger
from .prompts import render_genread_prompt, render_summarize_prompt
from .providers import TAG_GENREAD, TAG_SUMMARIZE

if TYPE_CHECKING:
    from .search import SearchConfig

RETRIEVE_SUMMARIZE = "retrieve_summarize"
GENERATE_BACKGROUND = "generate_background"
EVIDENCE_MODES = (RETRIEVE_SUMMARIZE, GENERATE_BACKGROUND)

PROVENANCE_RETRIEVED = "retrieved"
PROVENANCE_GENERATED = "generated"

BM25_K1 = 1.2
BM25_B = 0.75
# retrieve sums bounds and partial scores in another order than the exact
# score, so it prunes only below the cutoff less this share of it: rounding
# (about 1e-16 per addition) can then never drop a document that ties.
_PRUNE_MARGIN = 1e-9

INDEX_FORMAT = "beamqa-lexical-index"
INDEX_VERSION = 3

# Postings that ``_all_in_range`` reads as one integer: enough that the
# per-integer work vanishes, few enough that its integers take only a few
# hundred KB.
_LANE_CHUNK = 1 << 16


class _Separators(dict):
    """A ``str.translate`` table that keeps alphanumeric characters and maps
    every other one to a space; each character's entry is made on first
    sight. Threads may fill it at once: every one writes the same value."""

    def __missing__(self, code: int) -> int:
        value = self[code] = code if chr(code).isalnum() else 32
        return value


_SEPARATORS = _Separators()


class DuplicateDocumentError(ValueError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


class LineFormatError(ValueError):
    """A line of a line-delimited JSON input (a corpus or a dataset) that
    holds no valid record; the message names the file and the line."""

    def __init__(self, path: str | Path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no


def tokenize(text: str) -> list[str]:
    """The runs of ``str.isalnum()`` characters in ``text.lower()``.

    Every other character, ``_`` included, separates tokens. The
    translation table behind it grows by one entry per distinct character
    it has seen.
    """
    return text.lower().translate(_SEPARATORS).split()


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    body: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if not self.body:
            raise ValueError(f"document {self.doc_id!r} has an empty body")


@dataclass(frozen=True)
class Evidence:
    """One unit of gathered background text with provenance."""

    text: str
    source_query: str
    provenance: str
    doc_ids: tuple[str, ...] = ()
    retrieval_scores: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        object.__setattr__(self, "retrieval_scores", tuple(self.retrieval_scores))
        if self.provenance not in (PROVENANCE_RETRIEVED, PROVENANCE_GENERATED):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == PROVENANCE_GENERATED and self.doc_ids:
            raise ValueError("generated evidence cannot carry doc_ids")
        if len(self.doc_ids) != len(self.retrieval_scores):
            raise ValueError("doc_ids and retrieval_scores must align")


class LexicalIndex:
    """Immutable BM25 index: postings in CSR form with precomputed weights,
    and the documents' text as one UTF-8 block.

    The postings of the ``k``-th term, ``k = term_ids[term]``, are
    ``positions[start:end]`` (document positions, strictly ascending) and
    ``weights[start:end]`` (that document's BM25 term weight), where
    ``start, end = offsets[k], offsets[k + 1]``; ``save_index`` writes the
    arrays out as they are. ``retrieve`` finds a document in a term's
    postings by binary search, so it relies on the order; ``load_index``
    trusts a file's positions to be in that order, as it trusts its weights
    and lengths.

    Document ``i`` is ``ids[i]``, with title ``text[off[2i]:off[2i+1]]`` and
    body ``text[off[2i+1]:off[2i+2]]`` of the UTF-8 ``text``, where ``off``
    is ``text_offsets``. ``index_corpus`` builds these arrays and
    ``load_index`` reads them; either hands them to the constructor as they
    are, so ``text`` is bytes-like: the ``bytearray`` the build filled, or
    the ``bytes`` a file held; the index never changes it. A ``Document`` is
    decoded only when asked for: for a hit, or by ``documents``. Nothing is
    cached, so an index can be shared by threads.
    """

    def __init__(
        self, ids: Iterable[str], text: bytes | bytearray, text_offsets: array, doc_len: array,
        terms: Sequence[str], offsets: array, positions: array, weights: array,
    ):
        self._ids = tuple(ids)
        self._text = text
        self._text_offsets = text_offsets
        self._doc_len = doc_len
        self._term_ids = dict(zip(terms, range(len(terms))))
        self._offsets = offsets
        self._positions = positions
        self._weights = weights

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def documents(self) -> tuple[Document, ...]:
        """Every document, in index order, decoded anew on each access."""
        return tuple(map(self._document, range(len(self._ids))))

    def _document(self, pos: int) -> Document:
        text, off = self._text, self._text_offsets
        title, body, end = off[2 * pos], off[2 * pos + 1], off[2 * pos + 2]
        return Document(self._ids[pos], text[title:body].decode("utf-8"), text[body:end].decode("utf-8"))


def index_corpus(docs: Iterable[Document]) -> LexicalIndex:
    """Build an immutable index, reading ``docs`` once; duplicate ids, empty
    corpora and corpora without a single token are rejected."""
    ids: dict[str, None] = {}  # the document ids, in index order
    text = bytearray()
    text_offsets = array("q", [0])
    doc_len = array("i")
    doc_terms: dict[str, array] = {}  # term -> the positions of its documents
    repeats: dict[str, array] = {}  # term -> [k, tf, ...] for each tf != 1 at doc_terms[term][k]
    for i, doc in enumerate(docs):
        if doc.doc_id in ids:
            raise DuplicateDocumentError(doc.doc_id)
        ids[doc.doc_id] = None
        for field in (doc.title, doc.body):
            text += field.encode("utf-8")
            text_offsets.append(len(text))
        tokens = tokenize(f"{doc.title} {doc.body}")
        doc_len.append(len(tokens))
        for term, tf in Counter(tokens).items():
            posting = doc_terms.get(term)
            if posting is None:
                posting = doc_terms[term] = array("i")
            if tf != 1:
                side = repeats.get(term)
                if side is None:
                    side = repeats[term] = array("i")
                side.append(len(posting))
                side.append(tf)
            posting.append(i)
    if not ids:
        raise ValueError("cannot index an empty corpus")
    total_len = sum(doc_len)
    if not total_len:
        raise ValueError("no document has a token")
    n = len(ids)
    avg_doc_len = total_len / n
    # Each weight is idf * tf * (k1 + 1) / (tf + norm[pos]), evaluated in
    # the formula's order so that scores are the same to the last bit;
    # tf == 1, most postings, takes the same operations precomputed, and
    # the postings in ``repeats`` are then overwritten by the whole formula.
    norm = [BM25_K1 * (1 - BM25_B + BM25_B * dl / avg_doc_len) for dl in doc_len]
    norm_tf1 = [1 + x for x in norm]
    k1_plus_1 = BM25_K1 + 1
    # The arrays are made once at their final size and filled a term's slice
    # at a time: grown instead, they leave freed copies behind that a later
    # build in the same process would find still resident.
    terms = list(doc_terms)
    n_postings = sum(map(len, doc_terms.values()))
    offsets = array("i", [0]) * (len(terms) + 1)
    positions = array("i", [0]) * n_postings
    weights = array("d", [0.0]) * n_postings
    end = 0
    for k, term in enumerate(terms, start=1):
        # Each term's list is dropped once copied, so the lists' memory is
        # given back while the pass runs.
        term_positions = doc_terms.pop(term)
        df = len(term_positions)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        num_tf1 = idf * 1 * k1_plus_1
        start, end = end, end + df
        positions[start:end] = term_positions
        offsets[k] = end
        weights[start:end] = array("d", [num_tf1 / norm_tf1[pos] for pos in term_positions])
        side = repeats.get(term, ())
        for j, tf in zip(side[0::2], side[1::2]):
            weights[start + j] = idf * tf * k1_plus_1 / (tf + norm[term_positions[j]])
    return LexicalIndex(ids, text, text_offsets, doc_len, terms, offsets, positions, weights)


def retrieve(index: LexicalIndex, query: str, n: int) -> list[tuple[Document, float]]:
    """Top-``n`` documents by BM25 (k1=1.2, b=0.75); ties break by doc_id.

    Only documents sharing at least one query term are matches; fewer than
    ``n`` matches returns them all, zero matches returns an empty list. A
    term repeated in the query counts once per occurrence.

    The search is max-score (Turtle & Flood 1995), in three steps:

    1. Read. The posting lists are added up in order of the most each term
       can add to a score, rarest terms first, until the terms left could
       not lift a document not yet seen into the top ``n``; the long lists
       of frequent terms are then never read.
    2. Finish. Each document that can still make the cut has the weights
       of the unread lists added to its partial score. Each unread list is
       read whichever way touches fewer entries: one pass over the list
       that looks the documents up, or a binary search per document.
    3. Rescore. Only the documents whose finished score reaches the
       ``n``-th best, less the margin below, are scored exactly, their
       weights summed in query token order as a sum over every list adds
       them.

    Partial and finished scores add the same weights in another order, so
    they differ from the exact score only by rounding. They are used only
    to prune, below a cutoff lowered by ``_PRUNE_MARGIN``, which rounding
    cannot cross; every score returned is the exact one, the same to the
    last bit as that of a full scan.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    term_ids, offsets = index._term_ids, index._offsets
    positions, weights = index._positions, index._weights
    query_spans = []
    for term in tokenize(query):
        k = term_ids.get(term)
        if k is not None:
            query_spans.append((offsets[k], offsets[k + 1]))
    # No weight reaches idf * (k1 + 1), since tf / (tf + norm) < 1; a term
    # repeated in the query has one list, and one such bound, per occurrence.
    n_docs, k1_plus_1 = len(index), BM25_K1 + 1
    terms = []
    for start, end in query_spans:
        df = end - start
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        terms.append((idf * k1_plus_1, start, end))
    terms.sort(reverse=True)

    # Read the lists from the highest bound down while a document found in
    # none of them so far could still make the top n.
    partial: dict[int, float] = {}
    unread = []
    for i, (_, start, end) in enumerate(terms):
        if len(partial) >= n:
            floor = heapq.nlargest(n, partial.values())[-1] * (1 - _PRUNE_MARGIN)
            rest = sum(bound for bound, _, _ in terms[i:])
            if rest < floor:
                unread = terms[i:]
                # n documents score at least the floor, so one whose partial
                # score plus the bounds of the unread terms is below it
                # cannot make the cut.
                partial = {pos: score for pos, score in partial.items() if score + rest >= floor}
                break
        span, added = positions[start:end], weights[start:end]
        # Add the smaller side into the larger: a list longer than the
        # partial scores becomes the dict, and the scores are folded into it.
        if len(partial) < len(span):
            partial, scores = dict(zip(span, added)), partial
            get = partial.get
            for pos, score in scores.items():
                partial[pos] = get(pos, 0.0) + score
        else:
            get = partial.get
            for pos, weight in zip(span, added):
                partial[pos] = get(pos, 0.0) + weight

    # Finish the survivors on the unread lists.
    for _, start, end in unread:
        if _one_pass_touches_fewer(end - start, len(partial)):
            for pos, weight in zip(positions[start:end], weights[start:end]):
                if pos in partial:
                    partial[pos] += weight
        else:
            for pos in partial:
                k = bisect_left(positions, pos, start, end)
                if k < end and positions[k] == pos:
                    partial[pos] += weights[k]

    # Prune again at the n-th best finished score; score the rest exactly.
    if len(partial) > n:
        floor = heapq.nlargest(n, partial.values())[-1] * (1 - _PRUNE_MARGIN)
        partial = {pos: score for pos, score in partial.items() if score >= floor}
    matches = []
    for pos in partial:
        score = 0.0
        for start, end in query_spans:
            k = bisect_left(positions, pos, start, end)
            if k < end and positions[k] == pos:
                score += weights[k]
        matches.append((pos, score))
    ids = index._ids
    matches.sort(key=lambda kv: (-kv[1], ids[kv[0]]))
    return [(index._document(pos), score) for pos, score in matches[:n]]


def _one_pass_touches_fewer(length: int, survivors: int) -> bool:
    """Whether one pass over a posting list of ``length`` entries touches
    fewer of them than a binary search for each survivor, which touches
    about log2(``length``) entries."""
    return length <= survivors * length.bit_length()


def _docs_block(hits: Sequence[tuple[Document, float]]) -> str:
    parts = []
    for doc, _ in hits:
        parts.append(f"{doc.title}\n{doc.body}" if doc.title else doc.body)
    return "\n\n".join(parts)


def gather_evidence(
    original_question: str,
    query: str,
    config: "SearchConfig",
    complete: Callable[[str, str], Generator],
    index: LexicalIndex | None,
    ledger: CostLedger,
) -> Generator:
    """Return one Evidence for ``query``, per the configured mode, from a
    generator that yields what ``complete(prompt, tag)`` yields: a generator
    that sends a request, counts the call and returns its text. ``ledger``
    counts the retrieval.

    retrieve_summarize: one retrieval for ``query``, then a single
    summarization call over the concatenated top-N documents (framed by the
    original question). Zero hits yield empty evidence without a call.
    generate_background: one background-generation call for the original
    question, no retrieval.
    """
    if config.evidence_mode == GENERATE_BACKGROUND:
        text = yield from complete(render_genread_prompt(original_question), TAG_GENREAD)
        return Evidence(text.strip(), query, PROVENANCE_GENERATED)
    hits = retrieve(index, query, config.retrieval_docs)
    ledger.record_retrieval()
    if not hits:
        return Evidence("", query, PROVENANCE_RETRIEVED)
    text = yield from complete(render_summarize_prompt(original_question, _docs_block(hits)), TAG_SUMMARIZE)
    return Evidence(
        text.strip(),
        query,
        PROVENANCE_RETRIEVED,
        doc_ids=tuple(doc.doc_id for doc, _ in hits),
        retrieval_scores=tuple(score for _, score in hits),
    )


def read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a
    line-delimited JSON file. Each line is decoded as UTF-8 on its own; a
    line that is not UTF-8, not JSON or not an object raises
    ``LineFormatError``."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                reason = f"not UTF-8 (byte {raw[err.start]:#04x} at offset {err.start})"
                raise LineFormatError(path, line_no, reason) from err
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise LineFormatError(path, line_no, f"invalid JSON ({err.msg})") from err
            if not isinstance(record, dict):
                raise LineFormatError(path, line_no, "record is not an object")
            yield line_no, record


def load_corpus(path: str | Path) -> Iterator[Document]:
    """Yield each document of a line-delimited corpus of {id, title, text}
    records as its line is read; a bad line, or one that repeats an earlier
    id, raises ``LineFormatError`` when it is reached."""
    first_line: dict[str, int] = {}
    for line_no, raw in read_json_lines(path):
        doc_id = raw.get("id")
        text = raw.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise LineFormatError(path, line_no, "missing or empty 'id'")
        if not isinstance(text, str) or not text:
            raise LineFormatError(path, line_no, "missing or empty 'text'")
        title = raw.get("title", "")
        if not isinstance(title, str):
            raise LineFormatError(path, line_no, "'title' must be a string")
        if doc_id in first_line:
            reason = f"duplicate id {doc_id!r} (first on line {first_line[doc_id]})"
            raise LineFormatError(path, line_no, reason)
        first_line[doc_id] = line_no
        yield Document(doc_id=doc_id, title=title, body=text)


# The arrays of an index file, in file order, with their array typecodes;
# the text block follows them.
_ARRAYS = (
    ("doc_len", "i"), ("offsets", "i"), ("positions", "i"), ("weights", "d"), ("text_offsets", "q"),
)


def save_index(index: LexicalIndex, path: str | Path) -> None:
    """Write a v3 index file: one JSON header line, the raw arrays, then the text.

    The header holds the terms in posting order, the document ids, each
    array's length and the text's, the item sizes and the byte order; the
    arrays follow in ``_ARRAYS`` order, then the documents' text as one
    UTF-8 block. Term ``k``'s postings are ``offsets[k]:offsets[k+1]`` of
    ``positions`` and ``weights``, so loading never re-tokenizes.
    """
    arrays = {name: getattr(index, f"_{name}") for name, _ in _ARRAYS}
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "byteorder": sys.byteorder,
        "itemsize": {code: array(code).itemsize for _, code in _ARRAYS},
        "lengths": {**{name: len(arr) for name, arr in arrays.items()}, "text": len(index._text)},
        "terms": list(index._term_ids),
        "ids": list(index._ids),
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for arr in arrays.values():
            arr.tofile(handle)
        handle.write(index._text)


def load_index(path: str | Path) -> LexicalIndex:
    """Read a v3 index file; an older version asks for the index to be rebuilt."""

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{path}: malformed index file: {what}")

    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
            raise ValueError(f"{path} is not a lexical index file")
        version = header.get("version")
        if version != INDEX_VERSION:
            raise ValueError(
                f"{path}: index format version {version!r} is not read by this beamqa, "
                f"which reads version {INDEX_VERSION}; re-run `beamqa index` to rebuild it"
            )
        lengths, itemsize = header.get("lengths"), header.get("itemsize")
        check(header.get("byteorder") in ("little", "big"), "unknown byte order")
        check(isinstance(lengths, dict) and isinstance(itemsize, dict), "no array lengths")
        arrays = {name: array(code) for name, code in _ARRAYS}
        text_size = lengths.get("text")
        check(type(text_size) is int and text_size >= 0, "bad length for 'text'")
        size = text_size
        for name, arr in arrays.items():
            count = lengths.get(name)
            check(itemsize.get(arr.typecode) == arr.itemsize, f"item size of {name!r} differs from this platform's")
            check(type(count) is int and count >= 0, f"bad length for {name!r}")
            size += count * arr.itemsize
        remaining = os.fstat(handle.fileno()).st_size - handle.tell()
        check(size == remaining, f"the header's arrays and text take {size} bytes, the file holds {remaining}")
        for name, code in _ARRAYS:
            # Read straight into an array of the header's length: fromfile
            # would read into a bytes object first and then copy it.
            arr = arrays[name] = array(code, [0]) * lengths[name]
            want = len(arr) * arr.itemsize
            got = handle.readinto(arr)
            check(got == want, f"{name!r} is truncated: {got} of {want} bytes")
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
        text = handle.read(text_size)
        check(len(text) == text_size, f"the text is truncated: {len(text)} of {text_size} bytes")

    ids, terms = header.get("ids"), header.get("terms")
    check(isinstance(ids, list) and isinstance(terms, list), "no ids or terms")
    check(all(map(isinstance, terms, repeat(str))), "a term is not a string")
    check(all(map(isinstance, ids, repeat(str))) and all(ids), "a document id is empty or not a string")
    check(len(ids) > 0 and len(set(ids)) == len(ids), "the document ids are missing or repeat")
    doc_len, offsets, positions = arrays["doc_len"], arrays["offsets"], arrays["positions"]
    check(len(doc_len) == len(ids), "doc_len does not match the documents")
    check(len(offsets) == len(terms) + 1 and len(set(terms)) == len(terms), "offsets do not match the terms")
    check(offsets[0] == 0 and offsets[-1] == len(positions) == len(arrays["weights"]),
          "offsets do not match the postings")
    check(all(map(int.__le__, offsets, offsets[1:])), "offsets are not ascending")
    check(_all_in_range(positions, len(ids)), "a posting names no document")
    _check_text(text, arrays["text_offsets"], len(ids), check)
    return LexicalIndex(ids, text, arrays["text_offsets"], doc_len, terms, offsets, positions, arrays["weights"])


def _all_in_range(items: array, n: int) -> bool:
    """Whether every item of the signed array ``items``, of ``w``-bit items,
    is in ``range(n)``, n >= 1.

    It reads each run of up to ``_LANE_CHUNK`` items as one integer ``x``
    with one lane per item, the item's bits read as unsigned (SIMD within a
    register: Lamport 1975, "Multiple byte processing with full-word
    instructions"). A lane's top bit marks a negative item. Adding
    ``2**(w-1) - n`` to a lane holding a non-negative item ``v`` sets the top
    bit exactly when ``v >= n`` and carries nothing into the next lane, so
    the lowest lane whose item is out of range sets its top bit in ``x`` or
    in ``x + shift``, and no lane below it disturbs that.
    """
    size, order = items.itemsize, sys.byteorder
    top_bit = 1 << (8 * size - 1)
    lane_shift = top_bit - min(n, top_bit)  # an n >= 2**(w-1) bounds every non-negative item
    masks: dict[int, tuple[int, int]] = {}  # chunk length in bytes -> (top, shift)
    step = _LANE_CHUNK * size
    with memoryview(items).cast("B") as raw:
        for start in range(0, len(raw), step):
            chunk = raw[start:start + step]
            if len(chunk) not in masks:
                masks[len(chunk)] = tuple(
                    int.from_bytes(lane.to_bytes(size, order) * (len(chunk) // size), order)
                    for lane in (top_bit, lane_shift)
                )
            top, shift = masks[len(chunk)]
            x = int.from_bytes(chunk, order)
            if (x | (x + shift)) & top:
                return False
    return True


def _check_text(
    text: bytes | bytearray, off: array, n_docs: int, check: Callable[[bool, str], None]
) -> None:
    """Check that ``off`` cuts the bytes-like ``text`` into ``n_docs`` titles
    and non-empty bodies of whole UTF-8 characters, so that any hit decodes."""
    check(len(off) == 2 * n_docs + 1 and off[0] == 0 and off[-1] == len(text),
          "text offsets do not match the documents and the text")
    check(all(map(int.__le__, off, off[1:])), "text offsets are not ascending")
    check(all(map(int.__lt__, off[1::2], off[2::2])), "a document has an empty body")
    is_ascii = text.isascii()  # ASCII is valid UTF-8, and every cut falls between characters
    if not is_ascii:
        try:
            text.decode("utf-8")  # only to validate: a str may take four bytes a character
        except UnicodeDecodeError as err:
            check(False, f"the text is not UTF-8 ({err.reason} at byte {err.start})")
    # In valid UTF-8, a cut before any byte but a continuation byte (10xxxxxx)
    # falls between two characters.
    check(is_ascii or all(text[i] & 0xC0 != 0x80 for i in off[:-1] if i < len(text)),
          "a text offset splits a character")
