import os
import pathlib
import subprocess
import sys

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


def test_importing_the_package_loads_no_network_stack():
    # Only opening an HTTP connection may load these; a scripted run never does.
    code = (
        "import sys, beamqa, beamqa.cli; "
        "print(sorted({'requests', 'urllib3', 'http.client', 'ssl', 'urllib.request'} & set(sys.modules)))"
    )
    src = str(pathlib.Path(beamqa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"
