"""Seeded page corpora: fixed training pages, timed pages, grown pages.

Training pages are the five families of ``tools/lint_rule_families.py``
with that script's fixed generator seeds.  Timed pages come from the
same generators under seeds derived from the benchmark's ``--seed`` and
offset by :data:`TIMED_SEED_BASE`, so they can never reuse a training
seed; any timed page whose HTML still equals a training page is dropped
(:func:`timed_pages`), which the self-tests check.

Grown pages (the size ladder of the traced runs) append filler blocks
before ``</body>``.
The filler is a pure function of a random stream: it never sees the
page or its family, so no family's filler can be trimmed or reshaped to
dodge a slow rule.  Every block carries the tag names the rules target
(H1, SPAN, S, B, UL/LI, TABLE/TR/TD), so a rule that is super-linear in
page size shows it.  Filler text is lower-case words without colons and
never equals a label a rule anchors on; blocks sit after the generator
page's last body child, so positional rules are untouched and the
grown page keeps the generator page's ground truth.
"""

from __future__ import annotations

import random
import re

from lint_rule_families import FAMILIES
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)
from repro.sites.page import WebPage
from repro.sites.variation import generate_depth_cluster

#: Training pages per family handed to the rule builder and router fit.
TRAINING_PAGES = 8

#: Timed generator seed = TIMED_SEED_BASE + --seed.  The training seeds
#: of the lint families are single digits.
TIMED_SEED_BASE = 10_000

FAMILY_NAMES = tuple(name for name, _, _ in FAMILIES)

_TIMED_GENERATORS = {
    "imdb-movies": lambda n, seed: generate_imdb_site(
        n_movies=n, seed=seed
    ).pages_with_hint("imdb-movies"),
    "shop-products": lambda n, seed: generate_shop_site(
        n, seed=seed
    ).pages_with_hint("shop-products"),
    "news-articles": lambda n, seed: generate_news_site(
        n, seed=seed
    ).pages_with_hint("news-articles"),
    "stock-quotes": lambda n, seed: generate_stocks_site(
        n, seed=seed
    ).pages_with_hint("stock-quotes"),
    "depth-1": lambda n, seed: generate_depth_cluster(1, n_pages=n, seed=seed),
}

if set(_TIMED_GENERATORS) != set(FAMILY_NAMES):  # pragma: no cover
    raise RuntimeError(
        f"timed generators {sorted(_TIMED_GENERATORS)} do not match the "
        f"lint families {sorted(FAMILY_NAMES)}"
    )


def components() -> dict[str, list[str]]:
    """Family name -> the components the builder induces rules for."""
    return {name: list(comps) for name, _, comps in FAMILIES}


def training_pages() -> dict[str, list[WebPage]]:
    """Fresh (unparsed) training pages of every family."""
    return {
        name: factory()[:TRAINING_PAGES] for name, factory, _ in FAMILIES
    }


def timed_pages(seed: int, per_family: int, families=FAMILY_NAMES):
    """``per_family`` timed pages of each family, none equal to training.

    Returns ``(pages, dropped)``: family -> pages, and how many
    generated pages were dropped for coinciding with a training page.
    """
    training_html = {
        page.html for pages in training_pages().values() for page in pages
    }
    result: dict[str, list[WebPage]] = {}
    dropped = 0
    for family in families:
        generated = _TIMED_GENERATORS[family](
            per_family + TRAINING_PAGES, TIMED_SEED_BASE + seed
        )
        kept = [page for page in generated if page.html not in training_html]
        dropped += len(generated) - len(kept)
        if len(kept) < per_family:
            raise RuntimeError(
                f"{family}: only {len(kept)} timed pages differ from training"
            )
        result[family] = kept[:per_family]
    return result, dropped


def mixed_corpus(seed: int, per_family: int):
    """Equal counts of every family, shuffled by ``seed``.

    Returns ``(entries, dropped)`` where entries are ``(family, page)``.
    """
    pages, dropped = timed_pages(seed, per_family)
    entries = [(family, page) for family in FAMILY_NAMES for page in pages[family]]
    random.Random(seed).shuffle(entries)
    return entries, dropped


# --------------------------------------------------------------------- #
# Grown pages
# --------------------------------------------------------------------- #

#: Filler vocabulary: lower-case, no colons, none equal to a rule label.
FILLER_WORDS = (
    "amber basalt cedar dune ember fjord grove heath inlet juniper kelp "
    "larch moss nectar oxbow pumice quartz reed sorrel tundra umber vale "
    "willow yarrow zephyr"
).split()

_BLOCK_RE = re.compile(
    r'<div class="filler"><h1>[a-z ]+</h1><table><tr><td><b>[a-z ]+</b> '
    r'<span>[a-z ]+</span> <s>[a-z ]+</s></td><td>[a-z ]+</td></tr>'
    r'</table><ul><li>[a-z ]+</li></ul></div>\n'
)


def filler_block(rng: random.Random) -> str:
    """One filler block: every rule-target tag name, neutral text."""

    def words() -> str:
        return f"{rng.choice(FILLER_WORDS)} {rng.choice(FILLER_WORDS)}"

    return (
        f'<div class="filler"><h1>{words()}</h1><table><tr><td><b>{words()}'
        f'</b> <span>{words()}</span> <s>{words()}</s></td><td>{words()}'
        f'</td></tr></table><ul><li>{words()}</li></ul></div>\n'
    )


class _ShortestWords:
    def choice(self, words):
        return min(words, key=len)


#: The shortest block :func:`filler_block` can make: a page already
#: larger than its rung gets no filler and must be less than this over.
ROW_MIN = len(filler_block(_ShortestWords()))


def filler(rng: random.Random, nbytes: int) -> str:
    """Whole blocks until at least ``nbytes`` characters (never trimmed)."""
    blocks: list[str] = []
    size = 0
    while size < nbytes:
        block = filler_block(rng)
        blocks.append(block)
        size += len(block)
    return "".join(blocks)


def grow_page(page: WebPage, rung: int, rng: random.Random) -> WebPage:
    """``page`` with filler before ``</body>`` up to ``rung`` characters."""
    head, body_end, tail = page.html.rpartition("</body>")
    if not body_end:
        raise ValueError(f"{page.url}: no </body> to grow before")
    grown = head + filler(rng, rung - len(page.html)) + body_end + tail
    return WebPage(
        url=page.url,
        html=grown,
        ground_truth=page.ground_truth,
        cluster_hint=page.cluster_hint,
    )


def grown_corpus(seed: int, per_class: int, rungs):
    """``per_class`` pages per (family, rung), grown from timed pages.

    Returns ``(entries, dropped)``; entries are ``(family, rung, source,
    grown)`` with ``source`` the generator page, in family-major order.
    """
    pages, dropped = timed_pages(seed, per_class)
    entries = []
    for family in FAMILY_NAMES:
        for rung in rungs:
            for source in pages[family]:
                rng = random.Random(seed * 1_000_003 + len(entries))
                entries.append((family, rung, source, grow_page(source, rung, rng)))
    return entries, dropped


def inserted_filler(source: WebPage, grown: WebPage) -> str:
    """The filler ``grow_page`` inserted (raises if anything else changed)."""
    head, body_end, tail = source.html.rpartition("</body>")
    if not (grown.html.startswith(head) and grown.html.endswith(body_end + tail)):
        raise ValueError(f"{grown.url}: generator content not kept byte-for-byte")
    return grown.html[len(head):len(grown.html) - len(body_end + tail)]


def filler_blocks(text: str) -> list[str]:
    """Split filler into whole blocks (raises on a trimmed or odd block)."""
    blocks = _BLOCK_RE.findall(text)
    if "".join(blocks) != text:
        raise ValueError("filler is not made of whole, unmodified blocks")
    return blocks
