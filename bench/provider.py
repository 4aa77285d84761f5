"""The synthetic, content-keyed completion provider.

Every response, simulated delay and injected fault is a pure function of
``(seed, tag, prompt, attempt)``. The attempt number is the count of
consecutive failed sends of the same ``(tag, prompt)`` by the calling thread,
plus one: the engine retries in the thread that saw the failure, so the
number never depends on how threads interleave.
"""

from __future__ import annotations

import math
import re
import threading
import time
from statistics import NormalDist

from beamqa.providers import (
    CompletionProvider,
    CompletionRequest,
    CompletionResponse,
    TAG_ANSWER,
    TAG_ASK,
    TAG_GENREAD,
    TAG_SCORE,
    TAG_SUMMARIZE,
    TransportError,
    estimate_tokens,
)

from workloads import DELAY_SIGMA, MEDIAN_DELAY_S, SCORE_CONSTANT, SCORE_HASHED
from world import (
    DOOMED_RELATIONS,
    EASY_RELATIONS,
    GOLD_RE,
    QUESTION_RE,
    content_words,
    gold_answer,
    h01,
    hash_answer,
    rare_rank,
    relation_of,
    word,
)

_K_RE = re.compile(r"no more than (\d+) questions")
_GENERATED_QUERY = re.compile(r"\bq\d\d\b")
_DOCUMENT_MARK = "the provided document:\n\n"
_NORMAL = NormalDist()


class SyntheticProvider(CompletionProvider):
    """Answers every prompt from its content alone.

    - ``ask``: K distinct queries, each the question's entity, one of its
      topic terms (the two alternate) and one rare vocabulary word drawn from
      the prompt's hash.
    - ``summarize``: the gold-shaped tokens and the first words of each
      document in the block.
    - ``genread``: a background sentence that names the question's gold.
    - ``answer``: the first gold-shaped token in the prompt, else a token
      hashed from the prompt.
    - ``score``: a constant 0.42, or a hash-derived value that reaches the
      0.8 threshold exactly for the questions of an easy relation.

    With a fault rate, each first attempt fails with that probability. A
    retry fails with it too when it carries an ``ask`` or a child's
    ``answer`` or ``score``, so children can be lost but seeds are not. Only
    the questions of a doomed relation raise SearchError: the grounded
    seed's ``answer`` fails on every attempt, after the direct seed and the
    grounded seed's evidence call succeeded.
    """

    def __init__(
        self,
        seed: int,
        vocab: int,
        score: str,
        delayed: bool,
        fault_rate: float = 0.0,
    ):
        if score not in (SCORE_CONSTANT, SCORE_HASHED):
            raise ValueError(f"unknown score mode {score!r}")
        self.seed = seed
        self.vocab = vocab
        self.score = score
        self.delayed = delayed
        self.fault_rate = fault_rate
        self.local = threading.local()

    def delay_s(self, tag: str, prompt: str, attempt: int) -> float:
        if not self.delayed:
            return 0.0
        z = _NORMAL.inv_cdf(h01(self.seed, "delay", tag, prompt, attempt))
        return MEDIAN_DELAY_S * math.exp(DELAY_SIGMA * z)

    def faults(self, tag: str, prompt: str, attempt: int) -> bool:
        if not self.fault_rate:
            return False
        child = _GENERATED_QUERY.search(prompt) is not None
        if tag == TAG_ANSWER and not child and prompt.count("Query: ") == 1:
            question = QUESTION_RE.search(prompt).group()
            if relation_of(question) in DOOMED_RELATIONS:
                return True
        if attempt > 1 and not (tag == TAG_ASK or (tag in (TAG_ANSWER, TAG_SCORE) and child)):
            return False
        return h01(self.seed, "fault", tag, prompt, attempt) < self.fault_rate

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        tag, prompt = request.tag, request.prompt
        local = self.local
        retry = getattr(local, "key", None) == (tag, prompt) and local.failed
        attempt = local.attempt + 1 if retry else 1
        failed = self.faults(tag, prompt, attempt)
        local.key, local.attempt, local.failed = (tag, prompt), attempt, failed
        delay = self.delay_s(tag, prompt, attempt)
        if delay:
            time.sleep(delay)
        if failed:
            raise TransportError(f"injected transport fault on {tag} attempt {attempt}")
        text = self.respond(tag, prompt)
        return CompletionResponse(
            text, estimate_tokens(prompt), estimate_tokens(text), usage_reported=False
        )

    def respond(self, tag: str, prompt: str) -> str:
        match = QUESTION_RE.search(prompt)
        if match is None:
            raise ValueError(f"no benchmark question in the {tag} prompt")
        question = match.group()
        if tag == TAG_ASK:
            return self._ask(question, prompt)
        if tag == TAG_SUMMARIZE:
            return self._summarize(prompt)
        if tag == TAG_GENREAD:
            words = content_words(question)
            return f"{words[0]} is best known through {gold_answer(self.seed, question)}."
        if tag == TAG_ANSWER:
            gold = GOLD_RE.search(prompt)
            return gold.group() if gold else hash_answer(self.seed, prompt)
        if tag == TAG_SCORE:
            return self._score(prompt)
        raise ValueError(f"unknown tag {tag!r}")

    def _ask(self, question: str, prompt: str) -> str:
        k_match = _K_RE.search(prompt)
        k = int(k_match.group(1)) if k_match else 2
        entity, *terms = content_words(question)
        # The history length in the marker keeps every query distinct from the
        # ones its ancestors asked, so query dedupe never drops a child.
        level = prompt.count("Query: ")
        lines = ["Ranked Questions:"]
        for i in range(k):
            term = terms[(level + i) % len(terms)]
            extra = word(rare_rank(h01(self.seed, "ask-word", prompt, i), self.vocab))
            lines.append(f"{i + 1}. [{entity} {term} {extra} q{level}{i}]")
        return "\n".join(lines)

    def _summarize(self, prompt: str) -> str:
        start = prompt.find(_DOCUMENT_MARK)
        block = prompt[start + len(_DOCUMENT_MARK):] if start >= 0 else prompt
        golds = list(dict.fromkeys(GOLD_RE.findall(block)))
        leads = [" ".join(doc.split()[:6]) for doc in block.split("\n\n")[:-1]]
        return " ".join(["facts:", *golds, *leads])

    def _score(self, prompt: str) -> str:
        if self.score == SCORE_CONSTANT:
            return "0.42"
        u = h01(self.seed, "score", prompt)
        question = QUESTION_RE.search(prompt).group()
        value = 0.8 + 0.2 * u if relation_of(question) in EASY_RELATIONS else 0.79 * u
        return f"{value:.4f}"
