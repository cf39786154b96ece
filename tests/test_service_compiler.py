"""Compiled wrappers: byte-identical to the processor, but shared-walk."""

import pytest

from repro.errors import ExtractionError
from repro.core.builder import MappingRuleBuilder
from repro.core.component import PageComponent
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule
from repro.extraction.extractor import ExtractionProcessor
from repro.extraction.postprocess import PostProcessor, regex_extractor, split_list
from repro.service.automaton import (
    ExtractionAutomaton,
    automaton_steps,
    step_ineligibility,
)
from repro.service.compiler import CompiledWrapper, compile_wrapper
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)
from repro.sites.page import WebPage
from repro.sites.variation import DEPTH_COMPONENTS, generate_depth_cluster
from repro.xpath.engine import compile_xpath
from repro.xpath.parser import parse_xpath


def _repo(*rules, cluster="c"):
    repository = RuleRepository()
    for name, locations in rules:
        repository.record(
            cluster,
            MappingRule(
                component=PageComponent(name), locations=tuple(locations)
            ),
        )
    return repository


class TestCompilation:
    def test_no_rules_raises(self):
        with pytest.raises(ExtractionError):
            compile_wrapper(RuleRepository(), "nope")

    def test_repository_entry_point(self, service_repository):
        wrapper = service_repository.compile_cluster("imdb-movies")
        assert isinstance(wrapper, CompiledWrapper)
        assert wrapper.cluster == "imdb-movies"
        wrappers = service_repository.compile_all()
        assert set(wrappers) == {"imdb-movies", "imdb-actors"}

    def test_every_imdb_location_is_a_slot(self, service_repository):
        # title/rating/genres are all positional paths: every location,
        # alternatives included, rides the single-pass scan.
        stats = service_repository.compile_cluster("imdb-movies").stats
        locations = sum(
            len(rule.locations)
            for rule in service_repository.rules("imdb-movies")
        )
        assert stats.automaton_slots == locations >= 3

    def test_prefix_factoring_shares_steps(self):
        # The shop family's primaries are the paper's contextual label
        # anchors, all under BODY//: every one is a slot, and the
        # shared BODY and // steps are single automaton states.
        pages = generate_shop_site(24, seed=4).pages_with_hint(
            "shop-products"
        )
        repository = RuleRepository()
        MappingRuleBuilder(
            pages[:8], ScriptedOracle(), repository=repository,
            cluster_name="shop-products", seed=1,
        ).build_all(["product-name", "price", "old-price", "features"])
        stats = repository.compile_cluster("shop-products").stats
        assert stats.automaton_slots == 4
        assert stats.automaton_transitions < stats.automaton_location_steps
        assert stats.automaton_steps_saved > 0

    def test_disjoint_prefixes_do_not_share(self):
        repository = _repo(
            ("a", ["BODY[1]//P[1]/text()[1]"]),
            ("b", ["DIV[1]//P[1]/text()[1]"]),
        )
        stats = repository.compile_cluster("c").stats
        assert stats.automaton_slots == 2
        assert stats.automaton_steps_saved == 0

    def test_absolute_location_stays_out_of_the_automaton(self):
        repository = _repo(("a", ["/HTML[1]/BODY[1]/P[1]/text()[1]"]))
        wrapper = repository.compile_cluster("c")
        assert wrapper.stats.automaton_slots == 0
        page = WebPage(url="http://x/", html="<body><p>hello</p></body>")
        assert wrapper.extract_page(page).values["a"] == ["hello"]


#: The five site families the e2e benchmark and the lint gate induce,
#: with the same generator seeds.
FAMILIES = [
    pytest.param(
        lambda: generate_imdb_site(
            n_movies=12, n_actors=4, n_search=2, seed=4
        ).pages_with_hint("imdb-movies"),
        "imdb-movies", ["title", "rating", "genres"], id="imdb-movies",
    ),
    pytest.param(
        lambda: generate_shop_site(12, seed=4).pages_with_hint(
            "shop-products"
        ),
        "shop-products", ["product-name", "price", "old-price", "features"],
        id="shop-products",
    ),
    pytest.param(
        lambda: generate_news_site(12, seed=4).pages_with_hint(
            "news-articles"
        ),
        "news-articles", ["headline", "byline", "date"], id="news-articles",
    ),
    pytest.param(
        lambda: generate_stocks_site(10, seed=4).pages_with_hint(
            "stock-quotes"
        ),
        "stock-quotes", ["company", "last-price", "change", "intraday-prices"],
        id="stock-quotes",
    ),
    pytest.param(
        lambda: generate_depth_cluster(1, n_pages=16, seed=3),
        "depth-1", list(DEPTH_COMPONENTS), id="depth-1",
    ),
]


@pytest.mark.parametrize("factory, cluster, components", FAMILIES)
def test_family_compiles_every_location_to_a_slot(
    factory, cluster, components
):
    pages = factory()
    repository = RuleRepository()
    MappingRuleBuilder(
        pages[:8], ScriptedOracle(), repository=repository,
        cluster_name=cluster, seed=1,
    ).build_all(components)
    locations = sum(len(rule.locations) for rule in repository.rules(cluster))
    wrapper = repository.compile_cluster(cluster)
    assert wrapper.stats.automaton_slots == locations
    assert all(
        slot is not None for crule in wrapper.rules for slot in crule.slots
    )
    processor = ExtractionProcessor(repository, cluster)
    for page in pages:
        assert (
            wrapper.extract_page(page).raw_values
            == processor.extract_page(page).raw_values
        )


class TestFastStep:
    """The automaton's positional child steps: the paper-style path."""

    def _steps(self, source):
        return parse_xpath(source).steps

    def _scan(self, source, context):
        steps = automaton_steps(compile_xpath(source))
        assert steps is not None
        return ExtractionAutomaton([(0, steps)]).scan(context)[0]

    def test_eligibility(self):
        steps = self._steps("DIV[2]/P/text()[1]/LI[position() >= 1]")
        assert all(step_ineligibility(step) is None for step in steps)
        (desc,) = self._steps("descendant::P")
        assert "descendant" in step_ineligibility(desc)

    def test_matches_generic_evaluator(self, simple_root):
        from repro.xpath.engine import select

        for source in [
            "BODY[1]/DIV[2]/TABLE[1]/TR[2]/TD[1]/text()[1]",
            "BODY[1]/DIV[2]/UL[1]/LI[2]/text()[1]",
            "BODY[1]/DIV[1]/H1[1]/text()[1]",
        ]:
            assert self._scan(source, simple_root) == select(
                simple_root, source
            )

    def test_fractional_position_matches_nothing(self):
        page = WebPage(url="http://x/", html="<body><p>a</p></body>")
        assert self._scan("BODY[1]/P[1.5]", page.root_element) == []


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def movie_pages_large(self, service_site):
        return service_site.pages_with_hint("imdb-movies")[:80]

    def test_identical_values_and_raw(self, service_repository,
                                      movie_pages_large):
        processor = ExtractionProcessor(service_repository, "imdb-movies")
        wrapper = service_repository.compile_cluster("imdb-movies")
        for page in movie_pages_large:
            sequential = processor.extract_page(page)
            compiled = wrapper.extract_page(page)
            assert compiled.values == sequential.values
            assert compiled.raw_values == sequential.raw_values

    def test_identical_failures(self, service_repository):
        broken = WebPage(url="http://broken/", html="<body><p>x</p></body>")
        processor = ExtractionProcessor(service_repository, "imdb-movies")
        wrapper = service_repository.compile_cluster("imdb-movies")
        sequential = processor.extract([broken])
        compiled = wrapper.extract([broken])
        assert [
            (f.page_url, f.component_name, f.reason)
            for f in compiled.failures
        ] == [
            (f.page_url, f.component_name, f.reason)
            for f in sequential.failures
        ]

    def test_identical_with_postprocessor(self, service_repository,
                                          movie_pages_large):
        post = PostProcessor()
        post.register("rating", regex_extractor(r"([\d.]+)/10"))
        post.register_splitter("genres", split_list(","))
        processor = ExtractionProcessor(
            service_repository, "imdb-movies", postprocessor=post
        )
        wrapper = service_repository.compile_cluster(
            "imdb-movies", postprocessor=post
        )
        for page in movie_pages_large[:30]:
            assert (
                wrapper.extract_page(page).values
                == processor.extract_page(page).values
            )

    def test_alternative_locations_fall_back(self):
        repository = _repo(
            ("v", ["BODY[1]/DIV[1]/P[1]/text()[1]",
                   "BODY[1]/SPAN[1]/text()[1]"]),
        )
        wrapper = repository.compile_cluster("c")
        primary = WebPage(url="http://a/",
                          html="<body><div><p>first</p></div></body>")
        fallback = WebPage(url="http://b/",
                           html="<body><span>second</span></body>")
        assert wrapper.extract_page(primary).values["v"] == ["first"]
        assert wrapper.extract_page(fallback).values["v"] == ["second"]

    def test_mixed_values_grouped_identically(self, service_site,
                                              service_repository, oracle):
        # plot is mixed on some pages; grouping goes through the same
        # MappingRule code path, so values must agree exactly.
        from repro.core.builder import MappingRuleBuilder

        movies = service_site.pages_with_hint("imdb-movies")
        repository = RuleRepository()
        MappingRuleBuilder(
            movies[:8], oracle, repository=repository,
            cluster_name="imdb-movies", seed=2,
        ).build_all(["plot"])
        processor = ExtractionProcessor(repository, "imdb-movies")
        wrapper = repository.compile_cluster("imdb-movies")
        mixed = [p for p in movies if "<i>" in p.html][:10]
        assert mixed
        for page in mixed:
            assert (
                wrapper.extract_page(page).values
                == processor.extract_page(page).values
            )
