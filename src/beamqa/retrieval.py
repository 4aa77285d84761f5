"""Lexical corpus index, BM25 retrieval, and evidence gathering.

The index is a plain Okapi BM25 inverted index built for desk-scale corpora.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .accounting import CostLedger
from .prompts import render_genread_prompt, render_summarize_prompt
from .providers import CompletionProvider, CompletionRequest, TAG_GENREAD, TAG_SUMMARIZE

if TYPE_CHECKING:
    from .search import SearchConfig

RETRIEVE_SUMMARIZE = "retrieve_summarize"
GENERATE_BACKGROUND = "generate_background"
EVIDENCE_MODES = (RETRIEVE_SUMMARIZE, GENERATE_BACKGROUND)

PROVENANCE_RETRIEVED = "retrieved"
PROVENANCE_GENERATED = "generated"

BM25_K1 = 1.2
BM25_B = 0.75

INDEX_FORMAT = "beamqa-lexical-index"
INDEX_VERSION = 1

_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)


class DuplicateDocumentError(ValueError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


class CorpusFormatError(ValueError):
    def __init__(self, path: str | Path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empties."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


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
    """Immutable inverted index with the statistics BM25 needs."""

    def __init__(self, docs: Sequence[Document]):
        self._docs = tuple(docs)
        self._doc_len: list[int] = []
        self._postings: dict[str, list[tuple[int, int]]] = {}
        seen: set[str] = set()
        for i, doc in enumerate(self._docs):
            if doc.doc_id in seen:
                raise DuplicateDocumentError(doc.doc_id)
            seen.add(doc.doc_id)
            tokens = tokenize(f"{doc.title} {doc.body}")
            self._doc_len.append(len(tokens))
            counts: dict[str, int] = {}
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
            for term, tf in counts.items():
                self._postings.setdefault(term, []).append((i, tf))
        if not self._docs:
            raise ValueError("cannot index an empty corpus")
        self.avg_doc_len = sum(self._doc_len) / len(self._docs)
        n = len(self._docs)
        self._idf = {
            term: math.log(1.0 + (n - len(posting) + 0.5) / (len(posting) + 0.5))
            for term, posting in self._postings.items()
        }

    def __len__(self) -> int:
        return len(self._docs)

    @property
    def documents(self) -> tuple[Document, ...]:
        return self._docs


def index_corpus(docs: Iterable[Document]) -> LexicalIndex:
    """Build an immutable index; duplicate ids and empty corpora are rejected."""
    return LexicalIndex(list(docs))


def retrieve(index: LexicalIndex, query: str, n: int) -> list[tuple[Document, float]]:
    """Top-``n`` documents by BM25 (k1=1.2, b=0.75); ties break by doc_id.

    Only documents sharing at least one query term are matches; fewer than
    ``n`` matches returns them all, zero matches returns an empty list.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scores: dict[int, float] = {}
    for term in tokenize(query):
        posting = index._postings.get(term)
        if not posting:
            continue
        idf = index._idf[term]
        for doc_pos, tf in posting:
            norm = tf + BM25_K1 * (1 - BM25_B + BM25_B * index._doc_len[doc_pos] / index.avg_doc_len)
            scores[doc_pos] = scores.get(doc_pos, 0.0) + idf * tf * (BM25_K1 + 1) / norm
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], index._docs[kv[0]].doc_id))
    return [(index._docs[pos], score) for pos, score in ranked[:n]]


def _docs_block(hits: Sequence[tuple[Document, float]]) -> str:
    parts = []
    for doc, _ in hits:
        parts.append(f"{doc.title}\n{doc.body}" if doc.title else doc.body)
    return "\n\n".join(parts)


def gather_evidence(
    original_question: str,
    query: str,
    config: "SearchConfig",
    provider: CompletionProvider,
    index: LexicalIndex | None,
    ledger: CostLedger,
) -> Evidence:
    """Produce one Evidence for ``query``, per the configured mode.

    retrieve_summarize: one retrieval for ``query``, then a single
    summarization call over the concatenated top-N documents (framed by the
    original question). Zero hits yield empty evidence without a call.
    generate_background: one background-generation call for the original
    question, no retrieval.
    """
    if config.evidence_mode == GENERATE_BACKGROUND:
        prompt = render_genread_prompt(original_question)
        resp = provider.complete(CompletionRequest(prompt=prompt, tag=TAG_GENREAD))
        ledger.record_api_call(resp.prompt_tokens, resp.completion_tokens)
        return Evidence(resp.text.strip(), query, PROVENANCE_GENERATED)
    if index is None:
        raise ValueError("retrieve_summarize mode needs an index")
    hits = retrieve(index, query, config.retrieval_docs)
    ledger.record_retrieval()
    if not hits:
        return Evidence("", query, PROVENANCE_RETRIEVED)
    prompt = render_summarize_prompt(original_question, _docs_block(hits))
    resp = provider.complete(CompletionRequest(prompt=prompt, tag=TAG_SUMMARIZE))
    ledger.record_api_call(resp.prompt_tokens, resp.completion_tokens)
    return Evidence(
        resp.text.strip(),
        query,
        PROVENANCE_RETRIEVED,
        doc_ids=tuple(doc.doc_id for doc, _ in hits),
        retrieval_scores=tuple(score for _, score in hits),
    )


def load_corpus(path: str | Path) -> list[Document]:
    """Read a line-delimited corpus of {id, title, text} records."""
    docs: list[Document] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as err:
                raise CorpusFormatError(path, line_no, f"invalid JSON ({err.msg})") from err
            if not isinstance(raw, dict):
                raise CorpusFormatError(path, line_no, "record is not an object")
            doc_id = raw.get("id")
            text = raw.get("text")
            if not isinstance(doc_id, str) or not doc_id:
                raise CorpusFormatError(path, line_no, "missing or empty 'id'")
            if not isinstance(text, str) or not text:
                raise CorpusFormatError(path, line_no, "missing or empty 'text'")
            title = raw.get("title", "")
            if not isinstance(title, str):
                raise CorpusFormatError(path, line_no, "'title' must be a string")
            docs.append(Document(doc_id=doc_id, title=title, body=text))
    return docs


def save_index(index: LexicalIndex, path: str | Path) -> None:
    """Persist the corpus snapshot with a format/version header.

    Postings are rebuilt deterministically on load, which keeps the file
    small and immune to statistics drift.
    """
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "documents": [
            {"id": d.doc_id, "title": d.title, "text": d.body} for d in index.documents
        ],
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")


def load_index(path: str | Path) -> LexicalIndex:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or raw.get("format") != INDEX_FORMAT:
        raise ValueError(f"{path} is not a lexical index file")
    if raw.get("version") != INDEX_VERSION:
        raise ValueError(f"unsupported index version {raw.get('version')!r}")
    docs = [Document(d["id"], d.get("title", ""), d["text"]) for d in raw["documents"]]
    return index_corpus(docs)
