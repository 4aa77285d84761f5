import random

import pytest

from beamqa.accounting import CostLedger
from beamqa.providers import ScriptRule, ScriptedProvider
from beamqa.retrieval import (
    CorpusFormatError,
    Document,
    DuplicateDocumentError,
    Evidence,
    GENERATE_BACKGROUND,
    gather_evidence,
    index_corpus,
    load_corpus,
    load_index,
    retrieve,
    save_index,
    tokenize,
)
from beamqa.search import SearchConfig

from support import naive_bm25


def docs3():
    return [
        Document("d1", "Cats", "the quick cat sat on the mat"),
        Document("d2", "Dogs", "a loud dog barked at the cat"),
        Document("d3", "Fish", "silver fish swim in cold water"),
    ]


def random_corpus(rng, n_docs=10, vocab_size=18):
    vocab = [f"word{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        body = " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 30)))
        docs.append(Document(f"doc{i:02d}", "", body))
    return docs, vocab


# --- tokenization ----------------------------------------------------


def test_tokenize_lowercases_and_splits_non_alphanumeric():
    assert tokenize("Harper's Ferry, 1859_raid!") == ["harper", "s", "ferry", "1859", "raid"]


def test_tokenize_drops_empty_tokens():
    assert tokenize("  ...  ") == []


# --- index construction ----------------------------------------------------


def test_index_counts_documents():
    assert len(index_corpus(docs3())) == 3


def test_duplicate_doc_id_rejected():
    docs = docs3() + [Document("d1", "Dup", "another body")]
    with pytest.raises(DuplicateDocumentError) as err:
        index_corpus(docs)
    assert err.value.doc_id == "d1"


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        index_corpus([])


def test_average_doc_length_matches_hand_count():
    index = index_corpus(docs3())
    # titles are indexed too: 1+7, 1+7, 1+6 tokens
    lengths = [8, 8, 7]
    assert index.avg_doc_len == pytest.approx(sum(lengths) / 3)
    for i, expected in enumerate(lengths):
        assert index._doc_len[i] == expected


def test_empty_body_rejected():
    with pytest.raises(ValueError):
        Document("d", "title", "")


# --- retrieval ----------------------------------------------------


def test_single_matching_doc_ranks_first():
    index = index_corpus(docs3())
    hits = retrieve(index, "silver fish", 3)
    assert hits[0][0].doc_id == "d3"


def test_scores_match_naive_bm25_on_toy_corpus():
    docs = docs3()
    index = index_corpus(docs)
    for query in ("cat", "the cat sat", "dog water", "nothing relevant zzz"):
        expected = naive_bm25(docs, query)
        got = {doc.doc_id: score for doc, score in retrieve(index, query, 3)}
        assert set(got) == set(expected)
        for doc_id, score in expected.items():
            assert got[doc_id] == pytest.approx(score, abs=1e-9)


def test_n_larger_than_corpus_returns_all_matches_sorted():
    index = index_corpus(docs3())
    hits = retrieve(index, "the cat dog fish water", 50)
    assert len(hits) == 3
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_zero_matches_returns_empty():
    index = index_corpus(docs3())
    assert retrieve(index, "unrelated zebra", 2) == []


def test_ties_break_by_doc_id():
    docs = [
        Document("b", "", "same words here"),
        Document("a", "", "same words here"),
    ]
    hits = retrieve(index_corpus(docs), "same words", 2)
    assert [d.doc_id for d, _ in hits] == ["a", "b"]
    assert hits[0][1] == hits[1][1]


def test_retrieval_prefix_monotonicity():
    rng = random.Random(5)
    docs, vocab = random_corpus(rng)
    index = index_corpus(docs)
    for _ in range(25):
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
        full = retrieve(index, query, 10)
        for n in range(1, 10):
            assert retrieve(index, query, n) == full[:n]


def test_retrieve_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        retrieve(index_corpus(docs3()), "cat", 0)


# --- evidence gathering ----------------------------------------------------


def test_generate_background_mode_costs_one_call_no_retrieval():
    provider = ScriptedProvider([ScriptRule(response="Generated background.", tag="genread")])
    ledger = CostLedger()
    config = SearchConfig(evidence_mode=GENERATE_BACKGROUND)
    evidence = gather_evidence("who?", "who exactly?", config, provider, None, ledger)
    assert evidence.provenance == "generated"
    assert evidence.doc_ids == ()
    assert evidence.text == "Generated background."
    assert evidence.source_query == "who exactly?"
    assert (ledger.api_times, ledger.retrieval_times) == (1, 0)


def test_retrieve_summarize_mode_costs_one_call_one_retrieval():
    index = index_corpus(docs3())
    provider = ScriptedProvider([ScriptRule(response="Cats sat on mats.", tag="summarize")])
    ledger = CostLedger()
    config = SearchConfig(retrieval_docs=2)
    evidence = gather_evidence("who sat?", "cat mat", config, provider, index, ledger)
    assert evidence.provenance == "retrieved"
    assert evidence.text == "Cats sat on mats."
    assert 1 <= len(evidence.doc_ids) <= 2
    assert len(evidence.doc_ids) == len(evidence.retrieval_scores)
    assert (ledger.api_times, ledger.retrieval_times) == (1, 1)


def test_zero_hit_retrieval_yields_empty_evidence_without_call():
    index = index_corpus(docs3())
    provider = ScriptedProvider([])  # any call would raise
    ledger = CostLedger()
    evidence = gather_evidence("who?", "zebra xylophone", SearchConfig(), provider, index, ledger)
    assert evidence.text == ""
    assert evidence.doc_ids == ()
    assert (ledger.api_times, ledger.retrieval_times) == (0, 1)


def test_generated_evidence_cannot_carry_doc_ids():
    with pytest.raises(ValueError):
        Evidence("text", "q", "generated", doc_ids=("d1",), retrieval_scores=(1.0,))


# --- corpus files and index persistence ---------------------------------------


def test_load_corpus_reads_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "title": "T", "text": "body one"}\n'
        "\n"
        '{"id": "b", "text": "body two"}\n',
        encoding="utf-8",
    )
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == ["a", "b"]
    assert docs[1].title == ""


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert err.value.line_no == 2


def test_load_corpus_requires_id_and_text(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"title": "no id", "text": "x"}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert "id" in str(err.value)


def test_index_round_trips_through_file(tmp_path):
    index = index_corpus(docs3())
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert len(loaded) == 3
    original = retrieve(index, "the cat", 3)
    reloaded = retrieve(loaded, "the cat", 3)
    assert [(d.doc_id, s) for d, s in original] == [(d.doc_id, s) for d, s in reloaded]


def test_load_index_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_index(path)
