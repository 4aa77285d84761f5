"""Print how many MB of resident memory ``load_index`` adds in a fresh process.

    python3 bench/load_probe.py SRC_DIR INDEX_FILE
"""

import os
import sys


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> None:
    src, index_path = sys.argv[1:3]
    sys.path.insert(0, src)
    from beamqa.retrieval import load_index

    before = rss_mb()
    index = load_index(index_path)
    after = rss_mb()
    print(f"{len(index)} documents")
    print(after - before)


if __name__ == "__main__":
    main()
