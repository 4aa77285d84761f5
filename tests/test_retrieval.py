import heapq
import json
import math
import random
import re
import sys
import threading
import tracemalloc
from array import array
from bisect import bisect_left
from collections import Counter
from functools import partial
from itertools import accumulate, compress

import pytest
from hypothesis import given, settings, strategies as st

from beamqa import retrieval
from beamqa.accounting import CostLedger
from beamqa.providers import ScriptRule, ScriptedProvider
from beamqa.retrieval import (
    Document,
    DuplicateDocumentError,
    Evidence,
    GENERATE_BACKGROUND,
    LineFormatError,
    _Separators,
    _all_in_range,
    _one_pass_touches_fewer,
    gather_evidence,
    index_corpus,
    load_corpus,
    load_index,
    retrieve,
    save_index,
    tokenize,
)
from beamqa.search import SearchConfig, SearchRun, _Search

from support import naive_bm25, reference_tokenize, report_file_size


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


def test_tokenize_equals_splitting_on_non_alphanumeric_runs():
    rng = random.Random(3)
    alphabet = "aZ09_ .,-'\t\nÉßçΩж中文١٢½²\u0301\u200b"
    split = re.compile(r"[\W_]+")
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        assert tokenize(text) == [t for t in split.split(text.lower()) if t]


def test_separators_keep_exactly_the_regex_word_characters_but_underscore():
    # Every code point, surrogates included, through a fresh table, a block
    # at a time so that no table holds all of them.
    word = re.compile(r"[^\W_]")
    for start in range(0, 0x110000, 0x10000):
        chars = "".join(map(chr, range(start, start + 0x10000)))
        expected = "".join(c if word.fullmatch(c) else " " for c in chars)
        assert chars.translate(_Separators()) == expected


@settings(max_examples=300)
@given(st.text(st.characters(exclude_categories=())))
def test_tokenize_equals_the_regex_reference(text):
    assert tokenize(text) == reference_tokenize(text)


def test_tokenize_equals_the_reference_under_the_one_code_point_lower_expands():
    # "İ".lower() is "i" and a combining dot, which is not alphanumeric.
    assert tokenize("İstanbul xİy") == reference_tokenize("İstanbul xİy") == ["i", "stanbul", "xi", "y"]


def test_tokenize_fills_one_table_from_many_threads(monkeypatch):
    monkeypatch.setattr("beamqa.retrieval._SEPARATORS", _Separators())
    rng = random.Random(15)
    alphabet = [chr(c) for c in rng.sample(range(0x80, 0x30000), 4000)] + [" ", "_", "-"]
    texts = ["".join(rng.choice(alphabet) for _ in range(20_000)) for _ in range(8)]
    start = threading.Barrier(len(texts), timeout=10)
    results = [None] * len(texts)

    def worker(i):
        start.wait()
        results[i] = tokenize(texts[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(texts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for text, tokens in zip(texts, results):
        assert tokens == reference_tokenize(text)


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


def test_corpus_without_a_token_rejected():
    docs = [Document("d1", "", "..."), Document("d2", "", "!!")]
    with pytest.raises(ValueError, match="no document has a token"):
        index_corpus(docs)


def test_index_file_is_the_same_with_the_regex_tokenizer(tmp_path, monkeypatch):
    docs = [
        Document("d1", "Ærø Ferry", "ærø ferry ferry_route 1859 1859 1859 naïve Ωmega"),
        Document("d2", "", "straße STRASSE İstanbul 北京 北京 ٣٤ x²"),
        Document("d3", "snake_case", "snake case snake_case__case"),
        Document("d4", "Ferry", "the ferry left at 9:15 and the ferry came back"),
    ]
    save_index(index_corpus(docs), tmp_path / "translate")
    monkeypatch.setattr("beamqa.retrieval.tokenize", reference_tokenize)
    save_index(index_corpus(docs), tmp_path / "regex")
    assert (tmp_path / "translate").read_bytes() == (tmp_path / "regex").read_bytes()


def test_average_doc_length_matches_hand_count():
    docs = docs3()
    index = index_corpus(docs)
    # titles are indexed too: 1+7, 1+7, 1+6 tokens. A length enters only the
    # weights, through the norm of its document.
    lengths = [8, 8, 7]
    k1, b = retrieval.BM25_K1, retrieval.BM25_B
    norm = [k1 * (1 - b + b * dl / (sum(lengths) / 3)) for dl in lengths]
    for term, (start, end) in spans(index).items():
        df = end - start
        idf = math.log(1.0 + (3 - df + 0.5) / (df + 0.5))
        for pos, weight in zip(index._positions[start:end], index._weights[start:end]):
            tf = tokenize(f"{docs[pos].title} {docs[pos].body}").count(term)
            assert weight == idf * tf * (k1 + 1) / (tf + norm[pos]), (term, pos)


def test_empty_body_rejected():
    with pytest.raises(ValueError):
        Document("d", "title", "")


def test_empty_doc_id_rejected():
    with pytest.raises(ValueError, match="doc_id"):
        Document("", "title", "body")


_WORDS = st.lists(st.sampled_from(["ab", "cd", "é", "中文", "naïve", "x_y", "😀"]), max_size=10).map(" ".join)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(fields=st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=12))
def test_index_file_is_the_same_from_a_one_shot_generator_and_a_list(tmp_path_factory, fields):
    # Few words, so most bodies repeat one (tf > 1); titles may be empty.
    docs = [Document(f"d{i}", title, f"w{i % 3} {body}") for i, (title, body) in enumerate(fields)]
    path = tmp_path_factory.mktemp("same")
    save_index(index_corpus(docs), path / "list")
    save_index(index_corpus(doc for doc in docs), path / "generator")
    assert (path / "generator").read_bytes() == (path / "list").read_bytes()


@pytest.mark.parametrize("corpus", ["skewed", "non-ascii"])
def test_each_weight_is_the_bm25_formula_to_the_last_bit(corpus):
    """Postings with tf == 1 and with tf > 1 are weighted apart; each weight
    is still idf * tf * (k1 + 1) / (tf + norm), evaluated in that order."""
    if corpus == "skewed":
        docs, _ = skewed_corpus(random.Random(5))
    else:
        docs = [
            Document("d1", "Ωmega Ωmega", "naïve naïve naïve café"),
            Document("d2", "", "中文 中文 café"),
            Document("d3", "café", "straße 😀 straße x"),
        ]
    index = index_corpus(doc for doc in docs)
    counts = [Counter(reference_tokenize(f"{doc.title} {doc.body}")) for doc in docs]
    assert any(tf > 1 for count in counts for tf in count.values())
    lengths = [sum(count.values()) for count in counts]
    avg, n, k1, b = sum(lengths) / len(docs), len(docs), retrieval.BM25_K1, retrieval.BM25_B
    for term, (start, end) in spans(index).items():
        df = end - start
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        assert list(index._positions[start:end]) == [i for i, count in enumerate(counts) if term in count]
        for pos, weight in zip(index._positions[start:end], index._weights[start:end]):
            tf, norm = counts[pos][term], k1 * (1 - b + b * lengths[pos] / avg)
            assert weight == idf * tf * (k1 + 1) / (tf + norm), (term, pos)


def write_zipf_corpus(path, rng, n_docs, vocab_size=20000):
    """A corpus of ``n_docs`` titled documents over Zipf(1) terms."""
    cum_weights = list(accumulate(1 / rank for rank in range(1, vocab_size + 1)))
    vocab = [f"t{rank}" for rank in range(vocab_size)]
    with open(path, "w", encoding="utf-8") as out:
        for i in range(n_docs):
            title = " ".join(rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(0, 3)))
            body = " ".join(rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(20, 120)))
            out.write(json.dumps({"id": f"doc{i}", "title": title, "text": body}) + "\n")


def test_building_from_a_corpus_file_peaks_below_one_and_a_half_times_the_index(tmp_path):
    """The build reads the corpus once and holds neither its documents nor
    a second copy of their text: besides the index it keeps the per-term
    position lists, and frees each once it is copied."""
    path = tmp_path / "corpus.jsonl"
    write_zipf_corpus(path, random.Random(3), 2000)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        index = index_corpus(load_corpus(path))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(index) == 2000
    assert peak - start <= 1.5 * (size - start), (peak - start, size - start)


def test_built_postings_hold_no_spare_capacity(tmp_path):
    """The postings arrays are made at their final size, not grown: a grown
    array keeps spare capacity, and its freed copies stay resident."""
    path = tmp_path / "corpus.jsonl"
    write_zipf_corpus(path, random.Random(5), 300)
    index = index_corpus(load_corpus(path))
    for arr in (index._offsets, index._positions, index._weights):
        assert sys.getsizeof(arr) == sys.getsizeof(array(arr.typecode)) + len(arr) * arr.itemsize


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


def spans(index):
    """Each term's (start, end) in the postings arrays."""
    offsets = index._offsets
    return {term: (offsets[k], offsets[k + 1]) for term, k in index._term_ids.items()}


def full_scan_retrieve(index, query, n):
    """The reference: sum every posting of every query token, keep the top n."""
    scores = {}
    term_spans = spans(index)
    for term in tokenize(query):
        if term not in term_spans:
            continue
        start, end = term_spans[term]
        for pos, weight in zip(index._positions[start:end], index._weights[start:end]):
            scores[pos] = scores.get(pos, 0.0) + weight
    if len(scores) > n:
        cutoff = heapq.nlargest(n, scores.values())[-1]
        kept = compress(scores, map(cutoff.__le__, scores.values()))
        matches = [(pos, scores[pos]) for pos in kept]
    else:
        matches = list(scores.items())
    matches.sort(key=lambda kv: (-kv[1], index._ids[kv[0]]))
    return [(index._document(pos), score) for pos, score in matches[:n]]


def skewed_corpus(rng, n_docs=400):
    """Documents over terms from every doc down to a few, with duplicate bodies."""
    common = ["all"] + [f"most{i}" for i in range(3)]
    middle = [f"mid{i}" for i in range(20)]
    rare = [f"rare{i}" for i in range(120)]
    docs = []
    for i in range(n_docs):
        words = ["all"] * rng.randint(1, 4)
        words += [w for w in common[1:] if rng.random() < 0.9]
        words += rng.choices(middle, k=rng.randint(0, 8))
        words += rng.choices(rare, k=rng.randint(0, 3))
        rng.shuffle(words)
        docs.append(Document(f"doc{i:03d}", "", " ".join(words)))
    # Exact ties: the same body under several ids, at both ends of the order.
    for i in range(0, n_docs, 37):
        for copy in ("a", "z"):
            docs.append(Document(f"{copy}-copy-of-{i:03d}", "", docs[i].body))
    return docs, common + middle + rare + ["absent"]


def test_max_score_equals_full_scan_to_the_bit():
    rng = random.Random(17)
    docs, vocab = skewed_corpus(rng)
    index = index_corpus(docs)
    queries = [" ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(300)]
    queries += ["all", "all all", "rare3 rare3 all", "absent", "absent all", "mid1 mid1 mid1 most0"]
    queries += [docs[i].body for i in range(0, 400, 37)]  # a tied body as the query
    for query in queries:
        for n in (1, 2, 3, 10, 1000):
            expected = [(d.doc_id, repr(s)) for d, s in full_scan_retrieve(index, query, n)]
            got = [(d.doc_id, repr(s)) for d, s in retrieve(index, query, n)]
            assert got == expected, (query, n)


def test_max_score_never_reads_a_list_that_cannot_reach_the_top_n():
    class SliceLog(array):
        def __getitem__(self, key):
            if isinstance(key, slice):
                self.read.append((key.start, key.stop))
            return super().__getitem__(key)

    docs = [Document(f"d{i:03d}", "", f"common filler{i % 7}") for i in range(200)]
    docs[42] = Document("d042", "", "common needle")
    docs[99] = Document("d099", "", "common needle")
    index = index_corpus(docs)
    index._positions = SliceLog("i", index._positions)
    index._positions.read = []
    hits = retrieve(index, "common needle", 2)
    assert [d.doc_id for d, _ in hits] == ["d042", "d099"]
    assert index._positions.read == [spans(index)["needle"]]
    assert hits == full_scan_retrieve(index, "common needle", 2)


def question_corpus(rng, n_docs=600):
    """The benchmark question's shape: an entity in one document, then terms
    in nearly every document, of varied lengths and term counts."""
    docs = []
    for i in range(n_docs):
        words = [f"filler{rng.randrange(40)}" for _ in range(rng.randint(3, 40))]
        if rng.random() < 0.05:
            words += ["some"] * rng.randint(1, 2)
        if rng.random() < 0.9:
            words += ["near"] * rng.randint(1, 3)
        if rng.random() < 0.97:
            words += ["most"] * rng.randint(1, 2)
        words.append("what")
        rng.shuffle(words)
        docs.append(Document(f"doc{i:03d}", "", " ".join(words)))
    docs[123] = Document("doc123", "", docs[123].body + " entity")
    for i in range(0, n_docs, 53):  # exact ties, at both ends of the id order
        docs.append(Document(f"a-copy-of-{i:03d}", "", docs[i].body))
    return docs


# Terms in nearly every document, one repeated, after the entity.
QUESTIONS = ["what entity near most most", "entity most near what most"]


def test_finishing_the_question_shape_equals_full_scan_on_both_paths(monkeypatch):
    chosen = []

    def spy(length, survivors):
        chosen.append(_one_pass_touches_fewer(length, survivors))
        return chosen[-1]

    monkeypatch.setattr("beamqa.retrieval._one_pass_touches_fewer", spy)
    for seed in (1, 2, 3):
        index = index_corpus(question_corpus(random.Random(seed)))
        for query in QUESTIONS + ["what entity some near most most", "most entity most"]:
            for n in (1, 2, 3, 10):
                expected = [(d.doc_id, repr(s)) for d, s in full_scan_retrieve(index, query, n)]
                got = [(d.doc_id, repr(s)) for d, s in retrieve(index, query, n)]
                assert got == expected, (seed, query, n)
    # A long list read before the stop leaves many documents to finish, in
    # one pass; the entity's list alone (n = 1), or with a short one, leaves
    # few, found by binary search.
    assert True in chosen and False in chosen


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_exact_rescoring_touches_only_the_documents_left_after_the_second_prune(monkeypatch, n):
    index = index_corpus(question_corpus(random.Random(4)))
    searched = set()

    def spy(a, x, lo, hi):
        searched.add(x)
        return bisect_left(a, x, lo, hi)

    monkeypatch.setattr("beamqa.retrieval.bisect_left", spy)
    for query in QUESTIONS:
        searched.clear()
        hits = retrieve(index, query, n)
        assert hits == full_scan_retrieve(index, query, n)
        # The documents within the pruning margin of the n-th best score:
        # the n returned and any that tie with the last of them.
        scores = [s for _, s in full_scan_retrieve(index, query, len(index))]
        contenders = sum(s >= scores[n - 1] * (1 - 1e-9) for s in scores)
        assert len(searched) <= contenders <= n + 3, query


def test_retrieve_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        retrieve(index_corpus(docs3()), "cat", 0)


# --- evidence gathering ----------------------------------------------------


def engine_gather(question, query, config, provider, index, ledger):
    """``gather_evidence`` run as the engine runs a step, through its own
    send-and-count generator, counting into ``ledger``."""
    search = _Search(SearchRun(config, provider, index=index), "who?")
    complete = partial(search._complete, ledger=ledger)
    return search._result(search._start(gather_evidence(question, query, config, complete, index, ledger)))


def test_generate_background_mode_costs_one_call_no_retrieval():
    provider = ScriptedProvider([ScriptRule(response="Generated background.", tag="genread")])
    ledger = CostLedger()
    config = SearchConfig(evidence_mode=GENERATE_BACKGROUND)
    evidence = engine_gather("who?", "who exactly?", config, provider, None, ledger)
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
    evidence = engine_gather("who sat?", "cat mat", config, provider, index, ledger)
    assert evidence.provenance == "retrieved"
    assert evidence.text == "Cats sat on mats."
    assert 1 <= len(evidence.doc_ids) <= 2
    assert len(evidence.doc_ids) == len(evidence.retrieval_scores)
    assert (ledger.api_times, ledger.retrieval_times) == (1, 1)


def test_zero_hit_retrieval_yields_empty_evidence_without_call():
    index = index_corpus(docs3())
    provider = ScriptedProvider([])  # any call would raise
    ledger = CostLedger()
    evidence = engine_gather("who?", "zebra xylophone", SearchConfig(), provider, index, ledger)
    assert evidence.text == ""
    assert evidence.doc_ids == ()
    assert (ledger.api_times, ledger.retrieval_times) == (0, 1)


def test_generated_evidence_cannot_carry_doc_ids():
    with pytest.raises(ValueError):
        Evidence("text", "q", "generated", doc_ids=("d1",), retrieval_scores=(1.0,))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"provenance": "guessed"}, "unknown provenance"),
        ({"provenance": "retrieved", "doc_ids": ("d1", "d2"), "retrieval_scores": (1.0,)}, "must align"),
    ],
)
def test_evidence_rejects_an_unknown_provenance_or_misaligned_scores(fields, message):
    with pytest.raises(ValueError, match=message):
        Evidence("text", "q", **fields)


# --- corpus files and index persistence ---------------------------------------


def test_load_corpus_reads_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "title": "T", "text": "body one"}\n'
        "\n"
        '{"id": "b", "text": "body two"}\n'
        # An escaped surrogate pair is one character.
        r'{"id": "c", "title": "caf\u00e9", "text": "\ud83d\ude00"}' "\n",
        encoding="utf-8",
    )
    docs = list(load_corpus(path))
    assert [d.doc_id for d in docs] == ["a", "b", "c"]
    assert docs[1].title == ""
    assert (docs[2].title, docs[2].body) == ("caf\u00e9", "\U0001f600")


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "corpus.jsonl"
    for bad, reason in (
        ("not json", "invalid JSON (Expecting value)"),
        ('{"id": "b", "title": 7, "text": "x"}', "'title' must be a string"),
        # A JSON escape of half a surrogate pair decodes to a lone surrogate,
        # which the index file, a trace or a terminal cannot write as UTF-8.
        (r'{"id": "b\ud800", "text": "x"}', "'id' holds a lone surrogate"),
        (r'{"id": "b", "title": "\udfff", "text": "x"}', "'title' holds a lone surrogate"),
        (r'{"id": "b", "text": "caf\u00e9 \ud83d"}', "'text' holds a lone surrogate"),
    ):
        path.write_text('{"id": "a", "text": "ok"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(LineFormatError) as err:
            list(load_corpus(path))
        assert err.value.line_no == 2
        assert str(err.value) == f"{path}:2: {reason}"


@pytest.mark.parametrize(
    "second_line, offset",
    [
        (b'{"id": "b", "text": "caf\xff"}', 24),
        ("\ufeff".encode("utf-16-le") + '{"id": "b", "text": "x"}'.encode("utf-16-le"), 0),
    ],
    ids=["stray-byte", "utf-16"],
)
def test_load_corpus_names_the_line_that_is_not_utf8(tmp_path, second_line, offset):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes('{"id": "a", "text": "café"}\n'.encode("utf-8") + second_line + b"\n")
    with pytest.raises(LineFormatError) as err:
        list(load_corpus(path))
    assert err.value.line_no == 2
    assert str(err.value) == f"{path}:2: not UTF-8 (byte 0xff at offset {offset})"


def test_load_corpus_requires_id_and_text(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"title": "no id", "text": "x"}\n', encoding="utf-8")
    with pytest.raises(LineFormatError) as err:
        list(load_corpus(path))
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


# --- index file format v4 ---------------------------------------------------
#
# Several tests below keep "v2" or "v3" in their names from the format they
# were first written for; each now checks a v4 file, whose layout keeps every
# part they check.


# A v1 file as ``save_index`` once wrote it, an empty v2 file, and a v3 file
# of one document, which still held each document's length.
V1_FILE = json.dumps({
    "format": "beamqa-lexical-index",
    "version": 1,
    "documents": [{"id": "d1", "title": "Cats", "text": "the quick cat sat on the mat"}],
}).encode() + b"\n"
V2_FILE = json.dumps({
    "format": "beamqa-lexical-index",
    "version": 2,
    "byteorder": sys.byteorder,
    "itemsize": {"i": 4, "d": 8},
    "lengths": {"doc_len": 0, "offsets": 1, "positions": 0, "weights": 0},
    "terms": [],
    "documents": [],
}).encode() + b"\n\0\0\0\0"
V3_FILE = json.dumps({
    "format": "beamqa-lexical-index",
    "version": 3,
    "byteorder": sys.byteorder,
    "itemsize": {"i": 4, "d": 8, "q": 8},
    "lengths": {"doc_len": 1, "offsets": 2, "positions": 1, "weights": 1, "text_offsets": 3, "text": 3},
    "terms": ["cat"],
    "ids": ["d1"],
}).encode() + b"\n" + b"".join(
    arr.tobytes() for arr in (array("i", [1]), array("i", [0, 1]), array("i", [0]), array("d", [0.5]),
                              array("q", [0, 0, 3]))
) + b"cat"


@pytest.mark.parametrize("data", [V1_FILE, V2_FILE, V3_FILE], ids=["v1", "v2", "v3"])
def test_an_older_index_file_is_rejected_with_a_rebuild_message(tmp_path, data):
    path = tmp_path / "old-index"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=r"version \d is not read .* re-run `beamqa index`"):
        load_index(path)


def assert_same_index(loaded, fresh, queries):
    assert len(loaded) == len(fresh)
    assert loaded.documents == fresh.documents
    assert (loaded._offsets, loaded._positions, loaded._weights) == (fresh._offsets, fresh._positions, fresh._weights)
    for query in queries:
        for n in (1, 2, 10):
            expected = [(d, repr(s)) for d, s in retrieve(fresh, query, n)]
            assert [(d, repr(s)) for d, s in retrieve(loaded, query, n)] == expected, (query, n)


_FIELD_TEXT = st.text(
    alphabet=st.sampled_from('ab cd\n\t"\\/é中ж \U0001F600\U00010348_.'), max_size=12
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    fields=st.lists(
        st.tuples(st.text(min_size=1, max_size=6), _FIELD_TEXT, _FIELD_TEXT),
        min_size=1, max_size=12, unique_by=lambda f: f[0],
    ),
    query_words=st.lists(st.sampled_from(["ab", "cd", "é", "中", "ж", "zz", "\U00010348"]), max_size=4),
)
def test_v3_round_trip_equals_a_fresh_build_bit_for_bit(tmp_path_factory, fields, query_words):
    # Each body starts with a word, so no body is empty; titles may be.
    docs = [Document(doc_id, title, f"w{i} {body}") for i, (doc_id, title, body) in enumerate(fields)]
    fresh = index_corpus(docs)
    path = tmp_path_factory.mktemp("v3") / "index"
    save_index(fresh, path)
    queries = [" ".join(query_words), "w0", docs[-1].body, docs[0].title]
    assert fresh.documents == tuple(docs)
    assert_same_index(load_index(path), fresh, queries)


def test_positions_ascend_strictly_within_each_term_after_build_and_reload(tmp_path):
    rng = random.Random(23)
    docs, _ = skewed_corpus(rng)
    built = index_corpus(docs)
    save_index(built, tmp_path / "index")
    for index in (built, load_index(tmp_path / "index")):
        for start, end in spans(index).values():
            span = index._positions[start:end]
            assert all(a < b for a, b in zip(span, span[1:]))


def test_round_trip_equals_fresh_build_on_a_larger_corpus(tmp_path):
    rng = random.Random(11)
    docs, vocab = random_corpus(rng, n_docs=300, vocab_size=400)
    fresh = index_corpus(docs)
    save_index(fresh, tmp_path / "index")
    queries = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5))) for _ in range(60)]
    assert_same_index(load_index(tmp_path / "index"), fresh, queries)


def test_v2_file_is_the_json_header_then_the_arrays_byte_for_byte(tmp_path):
    rng = random.Random(29)
    alphabet = 'ab "\\\n\t/é中ж 😀'
    docs = [
        Document(
            f"id-{i}-{rng.choice(alphabet)}",
            "".join(rng.choices(alphabet, k=rng.randint(0, 6))),
            f"w{i % 50} " + "".join(rng.choices(alphabet, k=rng.randint(1, 12))),
        )
        for i in range(2600)
    ]
    index = index_corpus(docs)
    save_index(index, tmp_path / "index")
    offsets = array("i", [0] + [end for _, end in spans(index).values()])
    text_offsets, text = array("q", [0]), b""
    for doc in docs:
        for field in (doc.title, doc.body):
            text += field.encode("utf-8")
            text_offsets.append(len(text))
    header = {
        "format": "beamqa-lexical-index",
        "version": 4,
        "byteorder": sys.byteorder,
        "itemsize": {"i": array("i").itemsize, "d": array("d").itemsize, "q": array("q").itemsize},
        "lengths": {
            "offsets": len(offsets),
            "positions": len(index._positions),
            "weights": len(index._weights),
            "text_offsets": 2 * len(docs) + 1,
            "text": len(text),
        },
        "terms": list(spans(index)),
        "ids": [d.doc_id for d in docs],
    }
    expected = json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n"
    for arr in (offsets, index._positions, index._weights, text_offsets):
        expected += arr.tobytes()
    expected += text
    assert (tmp_path / "index").read_bytes() == expected
    assert load_index(tmp_path / "index").documents == tuple(docs)


def test_v2_file_starts_with_a_json_header_line(tmp_path):
    save_index(index_corpus(docs3()), tmp_path / "index")
    header = json.loads((tmp_path / "index").read_bytes().split(b"\n", 1)[0])
    assert (header["format"], header["version"]) == ("beamqa-lexical-index", 4)
    assert set(header) == {"format", "version", "byteorder", "itemsize", "lengths", "terms", "ids"}
    assert header["ids"] == ["d1", "d2", "d3"]
    assert set(header["lengths"]) == {"offsets", "positions", "weights", "text_offsets", "text"}
    assert header["lengths"]["text_offsets"] == 7


def test_repeated_query_term_counts_twice():
    docs = docs3()
    index = index_corpus(docs)
    once = dict((d.doc_id, s) for d, s in retrieve(index, "cat", 3))
    twice = dict((d.doc_id, s) for d, s in retrieve(index, "cat cat", 3))
    expected = naive_bm25(docs, "cat cat")
    assert set(twice) == set(expected) == set(once)
    for doc_id, score in expected.items():
        assert twice[doc_id] == pytest.approx(score, abs=1e-9)
        assert twice[doc_id] == pytest.approx(2 * once[doc_id], abs=1e-9)


def test_ties_at_the_cutoff_come_back_by_doc_id():
    ids = ["e", "b", "d", "a", "c"]
    docs = [Document(i, "", "tied words here") for i in ids]
    docs.append(Document("z", "", "tied tied words"))
    hits = retrieve(index_corpus(docs), "tied", 3)
    assert [d.doc_id for d, _ in hits] == ["z", "a", "b"]
    assert hits[1][1] == hits[2][1] < hits[0][1]


def test_loading_a_v2_file_never_tokenizes(tmp_path, monkeypatch):
    index = index_corpus(docs3())
    save_index(index, tmp_path / "index")
    expected = retrieve(index, "the cat", 3)

    def no_tokenize(text):
        raise AssertionError("load_index tokenized a document")

    monkeypatch.setattr("beamqa.retrieval.tokenize", no_tokenize)
    loaded = load_index(tmp_path / "index")
    monkeypatch.undo()
    assert retrieve(loaded, "the cat", 3) == expected


def test_loading_builds_no_document_and_retrieve_builds_one_per_hit(tmp_path, monkeypatch):
    rng = random.Random(31)
    docs, vocab = random_corpus(rng, n_docs=200, vocab_size=30)
    save_index(index_corpus(docs), tmp_path / "index")
    built = []
    check_document = Document.__post_init__

    def counting(doc):
        built.append(doc.doc_id)
        check_document(doc)

    def no_tokenize(text):
        raise AssertionError("load_index tokenized a document")

    monkeypatch.setattr(Document, "__post_init__", counting)
    monkeypatch.setattr("beamqa.retrieval.tokenize", no_tokenize)
    loaded = load_index(tmp_path / "index")
    assert built == []
    monkeypatch.setattr("beamqa.retrieval.tokenize", tokenize)
    hits = retrieve(loaded, " ".join(vocab[:6]), 2)
    assert built == [doc.doc_id for doc, _ in hits] and len(hits) == 2


def saved_index_file(tmp_path):
    path = tmp_path / "index"
    save_index(index_corpus(docs3()), path)
    header, body = path.read_bytes().split(b"\n", 1)
    return path, json.loads(header), body


def with_header(path, header, body):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


ARRAYS = (("offsets", "i"), ("positions", "i"), ("weights", "d"), ("text_offsets", "q"))


def split_body(header, body):
    """The arrays of a file's body, by name, and the text block after them."""
    arrays = {}
    for name, code in ARRAYS:
        arr = array(code)
        size = header["lengths"][name] * arr.itemsize
        arr.frombytes(body[:size])
        arrays[name], body = arr, body[size:]
    return arrays, body


def join_body(arrays, text):
    return b"".join(arrays[name].tobytes() for name, _ in ARRAYS) + text


def test_v2_file_in_the_other_byte_order_loads(tmp_path):
    index = index_corpus([*docs3(), Document("d4", "Ωmega", "cat ж 😀 naïve")])
    path = tmp_path / "index"
    save_index(index, path)
    header, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    arrays, text = split_body(header, body)
    for arr in arrays.values():
        arr.byteswap()
    header["byteorder"] = {"little": "big", "big": "little"}[header["byteorder"]]
    with_header(path, header, join_body(arrays, text))
    loaded = load_index(path)
    assert retrieve(loaded, "the cat", 4) == retrieve(index, "the cat", 4)
    assert loaded.documents == index.documents


@pytest.mark.parametrize("keep", [0.3, 0.9, -1, -9])
def test_truncated_v2_file_is_rejected(tmp_path, keep):
    path, _, _ = saved_index_file(tmp_path)
    data = path.read_bytes()
    cut = int(len(data) * keep) if keep > 0 else len(data) + keep
    path.write_bytes(data[:cut])
    with pytest.raises(ValueError):
        load_index(path)


def test_v2_file_with_trailing_bytes_is_rejected(tmp_path):
    path, header, body = saved_index_file(tmp_path)
    with_header(path, header, body + b"\0")
    with pytest.raises(ValueError, match="the file holds"):
        load_index(path)


@pytest.mark.parametrize(
    "name, delta",
    [
        ("offsets", 1), ("positions", -1), ("weights", 1), ("weights", -1),
        ("text_offsets", -1), ("text", 1), ("text", -1),
    ],
)
def test_v2_lengths_that_disagree_with_the_arrays_are_rejected(tmp_path, name, delta):
    path, header, body = saved_index_file(tmp_path)
    header["lengths"][name] += delta
    with_header(path, header, body)
    with pytest.raises(ValueError, match="malformed index file"):
        load_index(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h["ids"].pop(),
        lambda h: h["terms"].pop(),
        lambda h: h["terms"].__setitem__(1, h["terms"][0]),
        lambda h: h["itemsize"].__setitem__("d", 4),
        lambda h: h.__setitem__("byteorder", "middle"),
        lambda h: h["lengths"].__setitem__("weights", -1),
        lambda h: h["terms"].__setitem__(0, ["cat"]),
        lambda h: h["terms"].__setitem__(0, 7),
        lambda h: h["ids"].__setitem__(1, h["ids"][0]),
        lambda h: h["ids"].__setitem__(1, ""),
        lambda h: h["ids"].__setitem__(1, 2),
        lambda h: h.pop("ids"),
        lambda h: h["itemsize"].__setitem__("q", 4),
        lambda h: h["lengths"].__setitem__("text", "9"),
    ],
    ids=[
        "documents", "terms", "duplicate-term", "itemsize", "byteorder", "negative-length",
        "list-term", "int-term", "duplicate-id", "empty-id", "int-id", "no-ids",
        "offset-itemsize", "text-length",
    ],
)
def test_v2_header_that_disagrees_with_the_arrays_is_rejected(tmp_path, edit):
    path, header, body = saved_index_file(tmp_path)
    edit(header)
    with_header(path, header, body)
    with pytest.raises(ValueError, match="malformed index file"):
        load_index(path)


@pytest.mark.parametrize("where", [0, -1, 8], ids=["first", "last", "second-chunk"])
@pytest.mark.parametrize("bad", ["past-the-end", "negative"])
def test_v2_posting_that_names_no_document_is_rejected(tmp_path, monkeypatch, bad, where):
    # Chunks of 8 postings: docs3 has 21, so item 8 starts the second chunk.
    monkeypatch.setattr(retrieval, "_LANE_CHUNK", 8)
    path, header, body = saved_index_file(tmp_path)
    arrays, text = split_body(header, body)
    arrays["positions"][where] = len(header["ids"]) if bad == "past-the-end" else -1
    with_header(path, header, join_body(arrays, text))
    with pytest.raises(ValueError, match="names no document"):
        load_index(path)


_INT32_EDGES = st.sampled_from([0, 1, -1, -2, -(2**31), 2**31 - 1, 2**31 - 2, 2**24, -(2**24)])


@st.composite
def lane_cases(draw):
    """An int32 array, a count n and a chunk length; the items cluster at
    n - 1, n and the int32 edges, n may exceed every int32, and the array's
    length sits on either side of a multiple of the chunk length."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 2**31 - 1, 2**31]), st.integers(1, 2**32)))
    chunk = draw(st.sampled_from([1, 2, 3, 4, 7]))
    length = max(0, chunk * draw(st.integers(0, 4)) + draw(st.integers(-1, 1)))
    near_n = st.integers(min(n - 2, 2**31 - 2), min(n + 1, 2**31 - 1))
    in_range = st.integers(0, min(n, 2**31) - 1)
    item = st.one_of(_INT32_EDGES, near_n, in_range, st.integers(-(2**31), 2**31 - 1))
    return array("i", draw(st.lists(item, min_size=length, max_size=length))), n, chunk


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=lane_cases())
def test_the_lane_check_equals_an_item_by_item_range_check(case):
    items, n, chunk = case
    expected = all(0 <= p < n for p in items)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "_LANE_CHUNK", chunk)
        assert _all_in_range(items, n) == expected
    # Most draws hold an item out of range, so also check them made valid.
    valid = array("i", [p % min(n, 2**31) for p in items])
    assert _all_in_range(valid, n)


@pytest.mark.parametrize("length", [65535, 65536, 65537, 2 * 65536 + 1])
def test_the_lane_check_across_the_real_chunk_boundary(length):
    assert retrieval._LANE_CHUNK == 65536
    n = 1000
    items = array("i", [n - 1]) * length
    assert _all_in_range(items, n)
    # The first item, the last of the first chunk, the first of the second, the last.
    for where in (0, 65535, 65536, length - 1):
        if where < length:
            for bad in (n, -1, -(2**31)):
                items[where] = bad
                assert not _all_in_range(items, n), (where, bad)
            items[where] = n - 1


def test_a_past_the_end_posting_is_rejected_in_the_other_byte_order(tmp_path):
    path, header, body = saved_index_file(tmp_path)
    arrays, text = split_body(header, body)
    # 2**24 names no document of three, but its bytes swapped read 1: only a
    # check made after the loader swaps the bytes back rejects it.
    arrays["positions"][-1] = 1 << 24
    for arr in arrays.values():
        arr.byteswap()
    header["byteorder"] = {"little": "big", "big": "little"}[header["byteorder"]]
    with_header(path, header, join_body(arrays, text))
    with pytest.raises(ValueError, match="names no document"):
        load_index(path)


@pytest.mark.parametrize("cut", ["array", "text"])
def test_a_file_that_shrinks_after_its_size_check_is_rejected(tmp_path, monkeypatch, cut):
    path, header, body = saved_index_file(tmp_path)
    _, text = split_body(header, body)
    full_size = path.stat().st_size
    # The file loses its tail: into the last array, or only its text's last bytes.
    keep = len(body) - len(text) - 3 if cut == "array" else len(body) - 3
    path.write_bytes(path.read_bytes()[: full_size - len(body) + keep])
    report_file_size(monkeypatch, full_size)  # the size the header's lengths match
    message = "'text_offsets' is truncated" if cut == "array" else "the text is truncated"
    with pytest.raises(ValueError, match=f"malformed index file: {message}"):
        load_index(path)


def descend(off, text):
    off[2] = off[3] + 1  # the second title ends after its body starts
    return text


def end_short(off, text):
    off[-1] -= 1
    return text


def empty_body(off, text):
    off[3] = off[4]
    return text


@pytest.mark.parametrize(
    "edit, message",
    [
        (descend, "not ascending"),
        (end_short, "do not match"),
        (empty_body, "empty body"),
        (lambda off, text: text.replace(b"quick", b"qu\xffck"), "not UTF-8"),
        (lambda off, text: text.replace(b"Cats", b"Cat\xc3"), "not UTF-8"),
    ],
    ids=["descending", "ends-short", "empty-body", "bad-byte", "cut-sequence"],
)
def test_text_that_disagrees_with_its_offsets_is_rejected(tmp_path, edit, message):
    path, header, body = saved_index_file(tmp_path)
    arrays, text = split_body(header, body)
    text = edit(arrays["text_offsets"], text)
    header["lengths"]["text"] = len(text)
    with_header(path, header, join_body(arrays, text))
    with pytest.raises(ValueError, match=f"malformed index file: .*{message}"):
        load_index(path)


def test_a_text_offset_inside_a_character_is_rejected(tmp_path):
    path = tmp_path / "index"
    save_index(index_corpus([Document("d1", "é", "naïve cat")]), path)
    header, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    arrays, text = split_body(header, body)
    arrays["text_offsets"][1] = 1  # the title "é" is two bytes
    with_header(path, header, join_body(arrays, text))
    with pytest.raises(ValueError, match="splits a character"):
        load_index(path)
