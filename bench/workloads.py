"""The benchmark's workloads: what each runs and why it was chosen.

Every workload is a closed loop: each client thread sends its next question
only after the previous one returned. The workload seed reaches the program
only through the generated files and the synthetic provider's responses.
"""

from __future__ import annotations

from dataclasses import dataclass

from world import Sizes

# Median of the simulated provider delay; also the unit of wall_over_bound.
MEDIAN_DELAY_S = 0.010
DELAY_SIGMA = 0.5

SCORE_CONSTANT = "constant"
SCORE_HASHED = "hashed"

# The first questions of a run's pool are always run; counts, quality and
# per-layer numbers are taken over them so that they repeat exactly.
FIXED_QUESTIONS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Sizes
    evidence_mode: str
    clients: int
    workers: int
    delayed: bool
    score: str
    fault_rate: float = 0.0
    # Every completed question must make exactly 33 calls and 9 retrievals.
    full_depth: bool = False
    # Index builds and set-ups per round (three rounds); the median is reported.
    build_reps: int = 3
    setup_reps: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="beam-latency",
            why=(
                "one client, workers=4, 10 ms simulated calls, no early exit (33 calls, 9 "
                "retrievals): provider round trips and their scheduling are the whole wall time"
            ),
            sizes=Sizes(n_docs=2000, doc_len=100, vocab=5000, n_questions=600),
            evidence_mode="retrieve_summarize",
            clients=1,
            workers=4,
            delayed=True,
            score=SCORE_CONSTANT,
            full_depth=True,
        ),
        Workload(
            name="bm25-scale",
            why=(
                "16k Zipf documents, zero-delay provider, workers=1, a third exit at depth 1: "
                "BM25 query, index build and load and prompt rendering dominate"
            ),
            sizes=Sizes(n_docs=16000, doc_len=100, vocab=20000, n_questions=1500),
            evidence_mode="retrieve_summarize",
            clients=1,
            workers=1,
            delayed=False,
            score=SCORE_HASHED,
            build_reps=2,
            setup_reps=2,
        ),
        Workload(
            name="eval-genread",
            why=(
                "two concurrent searches share one provider, genread evidence with identical "
                "prompts, 10 ms calls; 10% of first attempts fault and one relation in 21 always "
                "fails its grounded seed"
            ),
            sizes=Sizes(n_docs=2000, doc_len=100, vocab=5000, n_questions=800),
            evidence_mode="generate_background",
            clients=2,
            workers=1,
            delayed=True,
            score=SCORE_CONSTANT,
            fault_rate=0.10,
            setup_reps=30,
        ),
    )
}
