import beamqa

PUBLIC_NAMES = {
    # README's "Library use" example
    "SearchConfig",
    "run_search",
    "index_corpus",
    "load_corpus",
    "HttpChatProvider",
    # running and evaluating searches
    "SearchRun",
    "SearchResult",
    "SearchError",
    "CompletionProvider",
    "ProviderError",
    "ScriptedProvider",
    "ScriptRule",
    "load_index",
    "evaluate",
    "load_dataset",
    "QAExample",
}


def test_public_names_are_the_documented_set():
    assert set(beamqa.__all__) == PUBLIC_NAMES
    assert len(beamqa.__all__) == len(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in beamqa.__all__:
        assert getattr(beamqa, name) is not None
