"""Beam-search question answering over LLM calls.

The engine iteratively generates complementary queries, gathers evidence per
query, answers over the accumulated history, scores candidates, and prunes to
a fixed-width beam until a confidence threshold or the depth limit is hit.

The package root exports what a caller needs to run and evaluate searches;
everything else is imported from its submodule (``beamqa.search``,
``beamqa.retrieval``, ``beamqa.prompts``, ``beamqa.providers``,
``beamqa.evaluation``, ``beamqa.accounting``).
"""

from .evaluation import QAExample, evaluate, load_dataset
from .providers import (
    CompletionProvider,
    HttpChatProvider,
    ProviderError,
    ScriptRule,
    ScriptedProvider,
)
from .retrieval import index_corpus, load_corpus, load_index
from .search import SearchConfig, SearchError, SearchResult, SearchRun, run_search

__version__ = "0.1.0"

__all__ = [
    "CompletionProvider",
    "HttpChatProvider",
    "ProviderError",
    "QAExample",
    "ScriptRule",
    "ScriptedProvider",
    "SearchConfig",
    "SearchError",
    "SearchResult",
    "SearchRun",
    "evaluate",
    "index_corpus",
    "load_corpus",
    "load_dataset",
    "load_index",
    "run_search",
]
