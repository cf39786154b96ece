"""The compiled wrapper (single-pass automaton) vs the sequential baseline.

The compiler's main gear: eligible locations (child steps with at most
one positional predicate, ``//`` and the paper's contextual label
anchor; primaries *and* alternatives) compile into one DOM automaton,
so a page is scanned in a single traversal no matter how many rules
the cluster carries.  This bench isolates that win on one thread, per
family — the five families ``tools/lint_rule_families.py`` induces
plus imdb-actors:

* the sequential :class:`ExtractionProcessor` (the Figure-1 baseline);
* the compiled wrapper (the automaton, plus lazy generic selects for
  the locations it cannot absorb).

Both must produce byte-identical output on every family's corpus — the
bench asserts it before timing anything, so a speedup number is never
for a path that silently diverged.  Acceptance bar: on every family
the compiled wrapper must beat the sequential baseline by at least
:data:`MIN_AUTOMATON_SPEEDUP`.

Timings take the best of :data:`ROUNDS` passes so a scheduler hiccup on
a shared CI runner cannot fail the gate on its own.  Measurements merge
into the ``$BENCH_RESULTS`` artifact next to the other service benches.
"""

import sys
import time
from pathlib import Path

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.extraction.extractor import ExtractionProcessor
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)
from repro.sites.variation import generate_depth_cluster

from conftest import emit, write_results

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from lint_rule_families import FAMILIES, _build  # noqa: E402

#: Timed pages per family, from generator seeds the rules never saw.
N_PAGES = 100
SEED = 13

#: Timed passes per variant; the best one is scored (noise rejection).
ROUNDS = 3

#: Regression floor, per family: one automaton thread vs the
#: sequential baseline (the floor leaves headroom for slow CI runners).
MIN_AUTOMATON_SPEEDUP = 2.0


def _build_corpus():
    """``{cluster: pages}`` and one repository holding every family."""
    site = generate_imdb_site(n_movies=N_PAGES, n_actors=60, seed=SEED)
    corpus = {
        "imdb-movies": site.pages_with_hint("imdb-movies"),
        "imdb-actors": site.pages_with_hint("imdb-actors"),
        "shop-products": generate_shop_site(
            N_PAGES, seed=SEED
        ).pages_with_hint("shop-products"),
        "news-articles": generate_news_site(
            N_PAGES, seed=SEED
        ).pages_with_hint("news-articles"),
        "stock-quotes": generate_stocks_site(
            N_PAGES, seed=SEED
        ).pages_with_hint("stock-quotes"),
        "depth-1": generate_depth_cluster(1, n_pages=N_PAGES, seed=SEED),
    }
    repository = RuleRepository()
    for cluster, factory, components in FAMILIES:
        family, _ = _build(cluster, factory(), components)
        for rule in family.rules(cluster):
            repository.record(cluster, rule)
    MappingRuleBuilder(
        corpus["imdb-actors"][:6], ScriptedOracle(), repository=repository,
        cluster_name="imdb-actors", seed=1,
    ).build_all(["actor-name", "born"])
    for pages in corpus.values():  # parse once; measure extraction only
        for page in pages:
            page.document
    return repository, corpus


def _outcome(extraction):
    return (
        [(p.url, p.values, p.raw_values) for p in extraction.pages],
        [(f.page_url, f.component_name, f.reason)
         for f in extraction.failures],
    )


def _best(run) -> float:
    return min(run() for _ in range(ROUNDS))


def _timed(extract, pages) -> float:
    def run() -> float:
        started = time.perf_counter()
        extract(pages)
        return time.perf_counter() - started

    return _best(run)


def test_automaton_throughput(benchmark):
    repository, corpus = _build_corpus()
    wrappers = repository.compile_all()
    processors = {
        cluster: ExtractionProcessor(repository, cluster)
        for cluster in corpus
    }

    # Identity first: never publish a speedup for a diverging path.
    for cluster, pages in corpus.items():
        assert _outcome(wrappers[cluster].extract(pages)) == _outcome(
            processors[cluster].extract(pages)
        ), cluster

    seq_seconds = {
        cluster: _timed(processors[cluster].extract, pages)
        for cluster, pages in corpus.items()
    }
    auto_seconds = benchmark.pedantic(
        lambda: {
            cluster: _timed(wrappers[cluster].extract, pages)
            for cluster, pages in corpus.items()
        },
        rounds=1, iterations=1,
    )
    speedups = {
        cluster: seq_seconds[cluster] / auto_seconds[cluster]
        for cluster in corpus
    }

    lines = [f"best of {ROUNDS} passes per family"]
    families = {}
    for cluster, pages in corpus.items():
        stats = wrappers[cluster].stats
        seq_pps = len(pages) / seq_seconds[cluster]
        auto_pps = len(pages) / auto_seconds[cluster]
        lines.append(
            f"{cluster:14s} {len(pages):4d} pages, "
            f"{stats.automaton_slots} slots / {stats.automaton_states} "
            f"states: sequential {seq_pps:8.1f} p/s, automaton "
            f"{auto_pps:8.1f} p/s ({speedups[cluster]:.2f}x)"
        )
        families[cluster] = {
            "pages": len(pages),
            "compiler_stats": stats.as_dict(),
            "pages_per_second": {
                "sequential": seq_pps,
                "automaton": auto_pps,
            },
            "automaton_speedup_vs_sequential": speedups[cluster],
        }
    emit("Single-pass automaton (pages/second, one thread)", "\n".join(lines))
    results_path = write_results({
        "automaton": {
            "rounds": ROUNDS,
            "families": families,
            "min_automaton_speedup": MIN_AUTOMATON_SPEEDUP,
        },
    })
    print(f"results written to {results_path}")

    # Regression gate: on every family the single traversal must stay
    # decisively ahead of the baseline.
    slow = {
        cluster: round(speedup, 2)
        for cluster, speedup in speedups.items()
        if speedup < MIN_AUTOMATON_SPEEDUP
    }
    assert not slow, (
        f"automaton below {MIN_AUTOMATON_SPEEDUP}x sequential on {slow}"
    )
