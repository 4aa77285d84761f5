"""The seeded synthetic world a workload runs in.

Everything here is a pure function of the workload seed: the vocabulary, the
Zipf corpus, the questions, and each question's gold answer. The synthetic
provider (``provider.py``) uses the same functions to answer prompts, so a
response never depends on which thread asked or when.

Token shapes keep the roles apart: corpus words are consonant-vowel
syllables (``kelo``), question entities start with ``x``, gold answers with
``z`` and hash-derived (wrong) answers with ``y``.

Run as a script to write a workload's files::

    python3 bench/world.py --workload beam-latency --seed 1 --out DIR

which writes ``corpus.jsonl`` (``beamqa index`` input), ``dataset.jsonl``
(``beamqa eval`` input) and ``df.json`` (document frequency per term, used to
count postings scanned per query).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

_SYLLABLES = [c + v for c in "bdfgklmnprstv" for v in "aeiou"]
_BASE = len(_SYLLABLES)
_WORD_SPACE = _BASE**4
_MASK64 = 2**64 - 1

RELATIONS = (
    "origin", "founder", "capital", "author", "leader", "source", "rival",
    "heir", "mentor", "patron", "ally", "symbol", "motto", "emblem",
    "anthem", "currency", "successor", "predecessor", "architect", "composer", "inventor",
)
# A question's relation sets its class: a third of the relations mark
# questions the hashed scorer rates above the threshold (they exit at depth
# 1), one marks questions whose grounded seed always fails to answer (they
# raise SearchError when faults are injected).
EASY_RELATIONS = frozenset(RELATIONS[:7])
DOOMED_RELATIONS = frozenset(RELATIONS[7:8])
# Weyl-sequence steps: consecutive questions spread their relation and term
# ranks evenly. The sequences do not depend on the seed, so every seed's runs
# have the same mix of question classes and posting-list lengths; the seed
# draws the entities, the corpus, the gold answers and the provider's
# randomness.
_STEPS = {"rel": 0.6180339887498949, "term0": 0.4142135623730951, "term1": 0.7320508075688772}
QUESTION_RE = re.compile(r"what is the [a-z]+ of x[a-z]+(?: [a-z]+)*\?")
GOLD_RE = re.compile(r"\bz(?:[bdfgklmnprstv][aeiou])+\b")
STOP_WORDS = frozenset({"what", "is", "the", "of"}) | frozenset(RELATIONS)


def word(i: int) -> str:
    """The vocabulary word of rank ``i`` (0-based): at least two syllables."""
    i += _BASE
    out = []
    while i:
        i, r = divmod(i, _BASE)
        out.append(_SYLLABLES[r])
    return "".join(reversed(out))


def h64(seed: int, *parts: object) -> int:
    """A 64-bit hash of the seed and the parts; the world's only randomness."""
    digest = hashlib.blake2b(digest_size=8, key=(seed & _MASK64).to_bytes(8, "little"))
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "little")


def h01(seed: int, *parts: object) -> float:
    """A uniform draw in (0, 1) keyed by the seed and the parts."""
    return (h64(seed, *parts) + 0.5) / 2.0**64


def rare_rank(u: float, vocab: int) -> int:
    """A rank drawn uniformly from the rarest nine tenths of the vocabulary."""
    low = vocab // 10
    return low + min(vocab - low - 1, int(u * (vocab - low)))


def log_uniform_rank(u: float, vocab: int) -> int:
    """A rank spread evenly in log space over ``[0, vocab)``: frequent and rare
    terms are drawn alike, so some posting lists are long."""
    return min(vocab - 1, int(math.exp(u * math.log(vocab))) - 1)


def gold_answer(seed: int, question: str) -> str:
    return "z" + word(h64(seed, "gold", question) % _WORD_SPACE)


def hash_answer(seed: int, prompt: str) -> str:
    return "y" + word(h64(seed, "answer", prompt) % _WORD_SPACE)


@dataclass(frozen=True)
class Question:
    text: str
    entity: str
    terms: tuple[str, ...]
    gold: str


def spread_draw(stream: str, qid: int) -> float:
    """A draw in [0, 1) from a Weyl sequence over question ids."""
    return (qid + 1) * _STEPS[stream] % 1.0


def make_question(seed: int, qid: int, vocab: int) -> Question:
    entity = "x" + word(h64(seed, "entity") % _WORD_SPACE + qid)
    relation = RELATIONS[int(spread_draw("rel", qid) * len(RELATIONS))]
    terms = tuple(
        word(log_uniform_rank(spread_draw(f"term{j}", qid), vocab)) for j in range(2)
    )
    text = f"what is the {relation} of {entity} {' '.join(terms)}?"
    return Question(text, entity, terms, gold_answer(seed, text))


def relation_of(question: str) -> str:
    return question.split()[3]


def content_words(question: str) -> list[str]:
    return [w for w in question.rstrip("?").split() if w not in STOP_WORDS]


@dataclass(frozen=True)
class Sizes:
    """How large a workload's world is."""

    n_docs: int
    doc_len: int
    vocab: int
    n_questions: int


def write_world(seed: int, sizes: Sizes, out: Path) -> None:
    """Write the corpus, the dataset and the document-frequency table.

    Filler documents draw ``doc_len`` tokens from a Zipf(1) law over the
    vocabulary. Each question plants its entity (twice), its topic terms and
    its gold answer into one document of its own, so a query with the entity
    ranks that document first under BM25; the second hit of a query is the
    filler document that best matches its other words, so distinct queries
    gather distinct evidence.
    """
    if sizes.n_questions > sizes.n_docs:
        raise ValueError(f"{sizes.n_questions} planted documents do not fit in {sizes.n_docs}")
    rng = random.Random(seed)
    vocab_words = [word(i) for i in range(sizes.vocab)]
    zipf = list(itertools.accumulate(1.0 / rank for rank in range(1, sizes.vocab + 1)))
    filler = rng.choices(vocab_words, cum_weights=zipf, k=sizes.n_docs * sizes.doc_len)

    questions = [make_question(seed, qid, sizes.vocab) for qid in range(sizes.n_questions)]
    plants = dict(zip(rng.sample(range(sizes.n_docs), sizes.n_questions), questions))

    df: dict[str, int] = {}
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for d in range(sizes.n_docs):
            tokens = filler[d * sizes.doc_len:(d + 1) * sizes.doc_len]
            q = plants.get(d)
            if q is not None:
                inserts = [q.entity, q.entity, q.gold, *q.terms]
                slots = rng.sample(range(len(tokens) + 1), len(inserts))
                for slot, token in sorted(zip(slots, inserts), reverse=True):
                    tokens.insert(slot, token)
            for term in set(tokens):
                df[term] = df.get(term, 0) + 1
            record = {"id": f"d{d:06d}", "title": "", "text": " ".join(tokens)}
            handle.write(json.dumps(record) + "\n")
    with open(out / "dataset.jsonl", "w", encoding="utf-8") as handle:
        for q in questions:
            handle.write(json.dumps({"question": q.text, "answers": [q.gold]}) + "\n")
    (out / "df.json").write_text(json.dumps(df), encoding="utf-8")


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="write a workload's corpus and dataset")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_world(args.seed, WORKLOADS[args.workload].sizes, Path(args.out))


if __name__ == "__main__":
    main()
