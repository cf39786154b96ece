"""The streaming runtime: sources, ordered emission, executors, stages."""

import io
import json
import random
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.repository import RuleRepository
from repro.service.compiler import CompiledWrapper
from repro.service.metrics import CancellationToken, MetricsRegistry
from repro.service.runtime import (
    ClusterStats,
    IterablePageSource,
    LoadingPageSource,
    OrderedEmitter,
    StreamingRuntime,
)
from repro.service.sink import CollectingSink, JsonlSink, PageRecord
from repro.sites.page import WebPage


def _record(index: int) -> PageRecord:
    return PageRecord(url=f"http://x/{index}", cluster="c", index=index)


class TestOrderedEmitter:
    """The reorder buffer under adversarial completion orders."""

    def test_reverse_completion_order(self):
        out = []
        emitter = OrderedEmitter(out.append)
        records = [_record(i) for i in range(10)]
        for seq in reversed(range(1, 10)):
            emitter.emit(seq, records[seq])
            assert out == []  # nothing may leave before seq 0
        assert emitter.held == 9
        emitter.emit(0, records[0])
        assert [r.index for r in out] == list(range(10))
        assert emitter.held == 0

    def test_interleaved_completion_order(self):
        order = [3, 0, 4, 1, 6, 2, 5, 9, 7, 8]
        out = []
        emitter = OrderedEmitter(out.append)
        for seq in order:
            emitter.emit(seq, _record(seq))
            # Whatever has left so far is a strictly ordered prefix.
            assert [r.index for r in out] == list(range(len(out)))
        assert [r.index for r in out] == list(range(10))
        assert emitter.held == 0

    def test_failure_gaps_do_not_stall_the_stream(self):
        # Even sequence numbers are dropped outcomes (unroutable pages,
        # contained errors, stage drops): the buffer must release past
        # them without emitting anything.
        out = []
        emitter = OrderedEmitter(out.append)
        seqs = list(range(20))
        random.Random(5).shuffle(seqs)
        for seq in seqs:
            emitter.emit(seq, None if seq % 2 == 0 else _record(seq))
        assert [r.index for r in out] == list(range(1, 20, 2))
        assert emitter.held == 0

    def test_all_gaps_stream_emits_nothing(self):
        out = []
        emitter = OrderedEmitter(out.append)
        for seq in reversed(range(5)):
            emitter.emit(seq, None)
        assert out == []
        assert emitter.held == 0

    def test_in_order_completion_is_passthrough(self):
        out = []
        emitter = OrderedEmitter(out.append)
        for seq in range(5):
            emitter.emit(seq, _record(seq))
            assert emitter.held == 0
        assert len(out) == 5

    # -- error payloads at boundary sequences --------------------------- #
    # Contained-errors mode routes error dicts through the same reorder
    # buffer as records; the boundary slots are where release/hold
    # logic can go wrong.

    def test_error_payload_at_first_sequence_arrives_last(self):
        out = []
        emitter = OrderedEmitter(out.append)
        for seq in (3, 1, 2):
            emitter.emit(seq, _record(seq))
        assert out == []  # everything dammed behind sequence 0
        error = {"error": "boom", "url": "http://x/0"}
        emitter.emit(0, error)
        assert out[0] is error
        assert [r.index for r in out[1:]] == [1, 2, 3]
        assert emitter.held == 0

    def test_error_payload_at_last_sequence_is_held(self):
        out = []
        emitter = OrderedEmitter(out.append)
        error = {"error": "boom", "url": "http://x/4"}
        emitter.emit(4, error)
        assert out == [] and emitter.held == 1
        for seq in (2, 0, 3, 1):
            emitter.emit(seq, _record(seq))
        assert out[-1] is error
        assert [r.index for r in out[:-1]] == [0, 1, 2, 3]

    def test_errors_interleaved_with_drops_at_both_boundaries(self):
        # First and last slots are errors, the middle mixes records
        # and dropped outcomes, completion order is adversarial.
        out = []
        emitter = OrderedEmitter(out.append)
        first, last = {"error": "first"}, {"error": "last"}
        emitter.emit(5, last)
        emitter.emit(3, None)          # dropped outcome mid-stream
        emitter.emit(1, _record(1))
        emitter.emit(4, _record(4))
        assert out == []
        emitter.emit(0, first)
        emitter.emit(2, _record(2))
        assert out[0] is first and out[-1] is last
        assert [r.index for r in out[1:-1]] == [1, 2, 4]
        assert emitter.held == 0

    def test_duplicate_sequence_while_held_rejected(self):
        emitter = OrderedEmitter(lambda payload: None)
        emitter.emit(2, _record(2))
        with pytest.raises(ValueError, match="emitted twice"):
            emitter.emit(2, {"error": "impostor"})

    def test_duplicate_sequence_after_release_rejected(self):
        out = []
        emitter = OrderedEmitter(out.append)
        emitter.emit(0, {"error": "first"})
        assert len(out) == 1
        with pytest.raises(ValueError, match="emitted twice"):
            emitter.emit(0, _record(0))
        # A dropped (None) slot is released too: its seq is also spent.
        emitter.emit(1, None)
        with pytest.raises(ValueError, match="emitted twice"):
            emitter.emit(1, _record(1))
        # The stream continues past the rejected duplicates.
        emitter.emit(2, _record(2))
        assert len(out) == 2


class TestSources:
    def test_iterable_source_numbers_by_position(self):
        pages = [WebPage(url=f"http://x/{i}", html="<p/>") for i in range(3)]
        assert [index for index, _ in IterablePageSource(pages)] == [0, 1, 2]
        offset = IterablePageSource(pages, start=7)
        assert [index for index, _ in offset] == [7, 8, 9]

    def test_loading_source_loads_lazily_with_global_indices(self):
        loaded = []

        def load(page_id):
            loaded.append(page_id)
            return WebPage(url=page_id, html="<p/>")

        source = LoadingPageSource([(4, "a"), (9, "b")], load)
        iterator = iter(source)
        assert loaded == []  # nothing touched before iteration
        assert next(iterator)[0] == 4
        assert loaded == ["a"]
        assert next(iterator)[0] == 9
        assert source.index_min == 4
        assert source.index_max == 9
        assert source.yielded == 2
        assert source.unreadable == []

    def test_loading_source_skips_and_records_unreadable(self):
        skipped = []

        def load(page_id):
            if page_id == "bad":
                raise OSError("gone")
            return WebPage(url=page_id, html="<p/>")

        source = LoadingPageSource(
            [(0, "a"), (1, "bad"), (2, "b")], load,
            skip_unreadable=True,
            on_skip=lambda page_id, exc: skipped.append((page_id, str(exc))),
        )
        indices = [index for index, _ in source]
        assert indices == [0, 2]  # the gap stays in the index space
        assert source.unreadable == ["bad"]
        assert skipped == [("bad", "gone")]

    def test_loading_source_strict_mode_raises(self):
        def load(page_id):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

        source = LoadingPageSource([(0, "a")], load)
        with pytest.raises(UnicodeDecodeError):
            list(source)


@pytest.fixture(scope="module")
def movie_pages_30(service_site):
    return service_site.pages_with_hint("imdb-movies")[:30]


class TestStreamingRuntime:
    def test_inline_executor_matches_thread_executor(
        self, movie_pages_30, service_repository
    ):
        inline = StreamingRuntime(
            service_repository, executor="inline", ordered=True
        )
        threaded = StreamingRuntime(
            service_repository, workers=4, chunk_size=7, ordered=True
        )
        _, inline_records = inline.run_collect(
            IterablePageSource(movie_pages_30)
        )
        _, threaded_records = threaded.run_collect(
            IterablePageSource(movie_pages_30)
        )
        assert [
            (r.index, r.url, r.values) for r in inline_records
        ] == [
            (r.index, r.url, r.values) for r in threaded_records
        ]

    def test_sparse_global_indices_survive_to_records(
        self, movie_pages_30, service_repository
    ):
        # A shard-like source: indices with gaps, still increasing.
        items = [(i * 10 + 3, page) for i, page in enumerate(movie_pages_30)]

        class PairSource:
            def __iter__(self):
                return iter(items)

        runtime = StreamingRuntime(
            service_repository, workers=3, chunk_size=4, ordered=True
        )
        _, records = runtime.run_collect(PairSource())
        assert [r.index for r in records] == [index for index, _ in items]

    def test_contain_errors_emits_error_records_without_stalling(
        self, movie_pages_30, service_repository, monkeypatch
    ):
        victim = movie_pages_30[4].url
        original = CompiledWrapper.extract_page

        def flaky(self, page, failures=None):
            if page.url == victim:
                raise RuntimeError("wrapper exploded")
            return original(self, page, failures)

        monkeypatch.setattr(CompiledWrapper, "extract_page", flaky)
        runtime = StreamingRuntime(
            service_repository, workers=2, chunk_size=3,
            ordered=True, contain_errors=True,
        )
        sink = CollectingSink()
        report = runtime.run(IterablePageSource(movie_pages_30), sink)
        assert report.errors_count == 1
        assert report.errors == [victim]
        assert "extraction error: 1" in report.summary()
        (error,) = sink.errors
        assert error["url"] == victim
        assert "wrapper exploded" in error["error"]
        # The failed page leaves an index gap; ordering survives it.
        indices = [record.index for record in sink.records]
        assert indices == sorted(indices)
        assert len(sink.records) == len(movie_pages_30) - 1
        assert 4 not in indices

    def test_contained_error_records_keep_submission_order(
        self, movie_pages_30, service_repository, monkeypatch
    ):
        victim = movie_pages_30[4].url
        original = CompiledWrapper.extract_page

        def flaky(self, page, failures=None):
            if page.url == victim:
                raise RuntimeError("boom")
            return original(self, page, failures)

        monkeypatch.setattr(CompiledWrapper, "extract_page", flaky)
        runtime = StreamingRuntime(
            service_repository, workers=2, chunk_size=3,
            ordered=True, contain_errors=True,
        )
        stream = io.StringIO()
        with JsonlSink(stream) as sink:
            runtime.run(IterablePageSource(movie_pages_30), sink)
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().splitlines()]
        # The error line lands exactly at its page's stream position.
        assert "error" in lines[4]
        assert [line["index"] for line in lines[:4]] == [0, 1, 2, 3]
        assert [line["index"] for line in lines[5:]] == list(
            range(5, len(movie_pages_30))
        )

    def test_extraction_exception_propagates_without_containment(
        self, movie_pages_30, service_repository, monkeypatch
    ):
        def boom(self, page, failures=None):
            raise RuntimeError("wrapper exploded")

        monkeypatch.setattr(CompiledWrapper, "extract_page", boom)
        runtime = StreamingRuntime(service_repository, executor="inline")
        with pytest.raises(RuntimeError, match="wrapper exploded"):
            runtime.run(IterablePageSource(movie_pages_30[:2]))

    def test_stage_transforms_records_before_emission(
        self, movie_pages_30, service_repository
    ):
        def shout_titles(record):
            record.values = {
                name: [value.upper() for value in values]
                if name == "title" else values
                for name, values in record.values.items()
            }
            return record

        runtime = StreamingRuntime(
            service_repository, executor="inline", stages=[shout_titles]
        )
        _, records = runtime.run_collect(
            IterablePageSource(movie_pages_30[:5])
        )
        assert records
        for record in records:
            for value in record.values["title"]:
                assert value == value.upper()

    def test_stage_drops_are_counted_and_never_stall(
        self, movie_pages_30, service_repository
    ):
        def drop_odd(record):
            return None if record.index % 2 else record

        runtime = StreamingRuntime(
            service_repository, workers=3, chunk_size=4,
            ordered=True, stages=[drop_odd],
        )
        report, records = runtime.run_collect(
            IterablePageSource(movie_pages_30)
        )
        assert report.dropped_count == len(movie_pages_30) // 2
        assert "stage-dropped" in report.summary()
        assert [record.index for record in records] == list(
            range(0, len(movie_pages_30), 2)
        )
        # Dropped records never reached the sink, so served < routed.
        assert report.pages_served == len(records)

    def test_quiet_cluster_never_dams_ordered_emission(
        self, service_site, service_repository
    ):
        # Page 0 goes to a cluster that never fills a chunk; a flood
        # follows for another cluster.  The runtime must flush the
        # blocking partial buffer instead of holding the whole flood
        # in the reorder buffer until EOF.
        actor = service_site.pages_with_hint("imdb-actors")[0]
        movies = service_site.pages_with_hint("imdb-movies")[:120]
        runtime = StreamingRuntime(
            service_repository, workers=1, chunk_size=4, max_pending=2,
            ordered=True,
        )
        sink = CollectingSink()
        received_midstream = []

        def pages():
            yield actor
            for position, page in enumerate(movies):
                if position == 100:
                    received_midstream.append(len(sink.records))
                yield page

        runtime.run(IterablePageSource(pages()), sink)
        assert received_midstream[0] > 0  # output flowed before EOF
        assert [record.index for record in sink.records] == list(
            range(len(movies) + 1)
        )

    def test_invalid_configuration_rejected(self, service_repository):
        with pytest.raises(ValueError, match="executor"):
            StreamingRuntime(service_repository, executor="fiber")
        with pytest.raises(ValueError, match="workers"):
            StreamingRuntime(service_repository, workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            StreamingRuntime(service_repository, chunk_size=0)
        with pytest.raises(ValueError, match="max_pending"):
            StreamingRuntime(service_repository, max_pending=0)

    def test_inline_runtime_reports_clusters(self, service_repository):
        runtime = StreamingRuntime(service_repository, executor="inline")
        assert set(runtime.clusters()) == set(service_repository.clusters())


class TestProcessExecutor:
    """The process pool: containment, cancellation, worker death."""

    def _source(self, service_site, n=40):
        return IterablePageSource(
            service_site.pages_with_hint("imdb-movies")[:n]
        )

    def test_contained_errors_mode_serves_every_page(
        self, service_repository, service_site
    ):
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=4, contain_errors=True, metrics=MetricsRegistry(),
        )
        report, records = runtime.run_collect(
            self._source(service_site, 16)
        )
        assert report.pages_served == 16
        assert report.errors_count == 0
        assert len(records) == 16

    def test_cancellation_drains_to_line_complete_output(
        self, service_repository, service_site
    ):
        cancel = CancellationToken()
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=2, ordered=True, metrics=MetricsRegistry(),
        )
        stream = io.StringIO()
        with JsonlSink(stream) as sink:
            report = runtime.run(
                self._source(service_site),
                sink,
                cancel=cancel,
                on_progress=lambda _report: cancel.cancel(),
            )
        assert report.cancelled
        text = stream.getvalue()
        assert text.endswith("\n")
        lines = [json.loads(line) for line in text.splitlines()]
        # Admitted pages drained in order; the rest were never read.
        assert len(lines) == report.pages_served < 40
        assert [line["index"] for line in lines] == list(range(len(lines)))

    def test_worker_death_surfaces_broken_pool(
        self, service_repository, service_site
    ):
        class _PoisonedRepository(RuleRepository):
            # Workers re-hydrate the repository from this dict; a
            # poisoned payload kills every worker at initialisation
            # and the pool breaks.
            def to_dict(self):
                return {"version": "not-a-real-format"}

        poisoned = _PoisonedRepository()
        for cluster, rule in service_repository:
            poisoned.record(cluster, rule)
        runtime = StreamingRuntime(
            poisoned, workers=2, executor="process",
            chunk_size=4, metrics=MetricsRegistry(),
        )
        with pytest.raises(BrokenProcessPool):
            runtime.run_collect(self._source(service_site, 16))


class TestWarmAccounting:
    def test_pages_per_second_prefers_warm_chunks(self):
        stats = ClusterStats(pages=100, worker_seconds=20.0,
                             cold_chunks=1, warm_pages=50, warm_seconds=5.0)
        assert stats.pages_per_second == pytest.approx(10.0)
        # Without warm data the all-chunk figure is the fallback.
        cold_only = ClusterStats(pages=100, worker_seconds=20.0)
        assert cold_only.pages_per_second == pytest.approx(5.0)

    def test_process_runs_mark_first_chunks_cold(self, service_repository,
                                                 service_site):
        metrics = MetricsRegistry()
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=4, metrics=metrics,
        )
        source = IterablePageSource(
            service_site.pages_with_hint("imdb-movies")[:40]
        )
        report, _ = runtime.run_collect(source)
        stats = report.per_cluster["imdb-movies"]
        # Each worker compiles the wrapper once; everything else is warm.
        assert 1 <= stats.cold_chunks <= 2
        assert stats.warm_pages == 40 - (
            stats.cold_chunks * 4
        )
        assert "repro_chunks_cold_total" in metrics.render()

    def test_local_executors_are_always_warm(self, service_repository,
                                             service_site):
        for executor in ("inline", "thread"):
            runtime = StreamingRuntime(
                service_repository, workers=2, executor=executor,
                chunk_size=4, metrics=MetricsRegistry(),
            )
            source = IterablePageSource(
                service_site.pages_with_hint("imdb-movies")[:20]
            )
            report, _ = runtime.run_collect(source)
            stats = report.per_cluster["imdb-movies"]
            assert stats.cold_chunks == 0
            assert stats.warm_pages == 20
