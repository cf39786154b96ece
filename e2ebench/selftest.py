"""Self-tests of the corpus code (``run.py --self-test``).

Each check raises ``CorpusError`` naming the offending page; the
grown-page checks also run on every size ladder the benchmark builds.
"""

from __future__ import annotations

import random

import corpus


class CorpusError(Exception):
    """A corpus property the benchmark relies on does not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorpusError(message)


def check_grown(entries, rungs) -> None:
    """Every grown page keeps its generator page and lands on its rung.

    * the generator page's HTML survives byte-for-byte around the
      inserted filler, and its ground truth is unchanged;
    * the filler is whole, unmodified blocks;
    * the page is at least the rung size and less than one block over
      (a generator page already past its rung gets no filler).
    """
    for family, rung, source, grown in entries:
        inserted = corpus.inserted_filler(source, grown)
        blocks = corpus.filler_blocks(inserted)
        _require(grown.ground_truth == source.ground_truth, grown.url)
        _require(grown.url == source.url, grown.url)
        _require(rung in rungs, f"{grown.url}: unknown rung {rung}")
        row = len(blocks[-1]) if blocks else corpus.ROW_MIN
        _require(rung <= len(grown.html) < rung + row, (
            f"{grown.url} [{family}]: {len(grown.html)} B for rung {rung}"))


def check_deterministic(seed: int) -> None:
    """The same seed gives byte-identical pages, in the same order."""
    first, _ = corpus.mixed_corpus(seed, 20)
    second, _ = corpus.mixed_corpus(seed, 20)
    _require([(f, p.url, p.html) for f, p in first] == [
        (f, p.url, p.html) for f, p in second], "mixed corpus differs")
    rungs = (2048, 4096)
    first, _ = corpus.grown_corpus(seed, 1, rungs)
    second, _ = corpus.grown_corpus(seed, 1, rungs)
    _require([e[3].html for e in first] == [e[3].html for e in second], (
        "grown corpus differs"))


def check_disjoint(seed: int) -> None:
    """Timed pages never coincide with training pages."""
    training = {
        page.html for pages in corpus.training_pages().values() for page in pages
    }
    timed, _ = corpus.timed_pages(seed, 200)
    for family, pages in timed.items():
        for page in pages:
            _require(page.html not in training,
                     f"{page.url} [{family}] is a training page")


def check_filler_independent_of_family() -> None:
    """Filler depends on the random stream and size only, never the page.

    Two pages of different families grown from the same stream get the
    same blocks; the smaller need is a block-prefix of the larger one.
    """
    timed, _ = corpus.timed_pages(0, 1)
    pages = [timed[family][0] for family in corpus.FAMILY_NAMES]
    for rung in (2048, 4096, 8192):
        fillers = [
            corpus.filler_blocks(corpus.inserted_filler(
                page, corpus.grow_page(page, rung, random.Random(rung))))
            for page in pages
        ]
        for blocks in fillers:
            shorter = min(len(blocks), len(fillers[0]))
            _require(blocks[:shorter] == fillers[0][:shorter],
                     "filler differs by family")


def main() -> int:
    """Run every self-test; 0 when all hold."""
    rungs = (2048, 4096, 8192)
    for seed in (0, 1, 7, 12345):
        check_deterministic(seed)
        check_disjoint(seed)
        entries, _ = corpus.grown_corpus(seed, 1, rungs)
        check_grown(entries, rungs)
    check_filler_independent_of_family()
    print("corpus self-tests passed")
    return 0
