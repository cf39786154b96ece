"""The parallel batch extraction engine — a façade over the runtime.

Historically this module *was* the pipeline; since the
:mod:`repro.service.runtime` refactor it is a thin, stable public API
over a :class:`~repro.service.runtime.StreamingRuntime` driven by an
:class:`~repro.service.runtime.IterablePageSource`: pages are numbered
by stream position (the **submission index**), routed to a cluster,
extracted by compiled wrappers on a thread or process executor, and
drained into the sink — in completion order by default, or in strictly
increasing submission-index order with ``ordered=True`` (what makes a
sharded run mergeable into a stream byte-identical to an unsharded
one, :mod:`repro.service.shard`).

Every page is extracted by a :class:`~repro.service.compiler.
CompiledWrapper`, so values are byte-identical to the sequential
:class:`~repro.extraction.extractor.ExtractionProcessor`.

The report and stats types live in :mod:`repro.service.runtime`; they
are re-exported here under their historical names.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.repository import RuleRepository
from repro.extraction.postprocess import PostProcessor
from repro.service.router import ClusterRouter
from repro.service.runtime import (
    ClusterStats,
    EngineReport,
    IterablePageSource,
    StreamingRuntime,
    URL_SAMPLE_CAP,
)
from repro.service.sink import CollectingSink, PageRecord, ResultSink
from repro.sites.page import WebPage

__all__ = [
    "BatchExtractionEngine",
    "ClusterStats",
    "EngineReport",
    "URL_SAMPLE_CAP",
]


class BatchExtractionEngine:
    """Fan a page stream out over compiled wrappers.

    Args:
        repository: validated rules (Section 3.5) for every served
            cluster.
        router: optional :class:`ClusterRouter`; without one, pages
            are routed by their generator ``cluster_hint``.
        postprocessor: optional value clean-up, applied exactly as the
            sequential processor would.
        workers: executor pool size (≥ 1).
        executor: ``"thread"`` (default; shares parsed DOMs),
            ``"process"`` (re-parses in workers; real parallelism on
            multi-core hosts) or ``"inline"`` (the calling thread).
        chunk_size: pages per submitted work item.
        max_pending: in-flight chunk cap (default ``4 * workers``) —
            the memory bound for arbitrarily long streams.
        ordered: release records to the sink in strictly increasing
            submission-index order.
        adapter: an :class:`~repro.service.adapt.AdaptiveRouter`
            (mutually exclusive with ``router``); the run report then
            carries its drift/refit counts.
        metrics: a :class:`~repro.service.metrics.MetricsRegistry` for
            the runtime's per-cluster counters and latency histograms
            (default: the process-wide registry).
    """

    def __init__(
        self,
        repository: RuleRepository,
        router: Optional[ClusterRouter] = None,
        postprocessor: Optional[PostProcessor] = None,
        workers: int = 2,
        executor: str = "thread",
        chunk_size: int = 16,
        max_pending: Optional[int] = None,
        ordered: bool = False,
        adapter=None,
        metrics=None,
    ) -> None:
        self.runtime = StreamingRuntime(
            repository,
            router=router,
            postprocessor=postprocessor,
            workers=workers,
            executor=executor,
            chunk_size=chunk_size,
            max_pending=max_pending,
            ordered=ordered,
            adapter=adapter,
            metrics=metrics,
        )
        self.repository = repository
        self.router = adapter if adapter is not None else router
        self.postprocessor = postprocessor
        self.adapter = adapter

    # -- configuration passthrough ------------------------------------- #

    @property
    def workers(self) -> int:
        """The wrapped runtime's executor pool size."""
        return self.runtime.workers

    @property
    def executor_kind(self) -> str:
        """``"inline"``, ``"thread"`` or ``"process"``."""
        return self.runtime.executor_kind

    @property
    def chunk_size(self) -> int:
        """Pages per submitted work item."""
        return self.runtime.chunk_size

    @property
    def max_pending(self) -> int:
        """In-flight chunk cap (the stream's memory bound)."""
        return self.runtime.max_pending

    @property
    def ordered(self) -> bool:
        """Whether records emit in strict submission-index order."""
        return self.runtime.ordered

    # ------------------------------------------------------------------ #

    def run(
        self,
        pages: Iterable[WebPage],
        sink: Optional[ResultSink] = None,
    ) -> EngineReport:
        """Route, extract and sink every page; returns the run report."""
        return self.runtime.run(IterablePageSource(pages), sink)

    def run_collect(
        self, pages: Iterable[WebPage]
    ) -> tuple[EngineReport, list[PageRecord]]:
        """Small-batch convenience: run with an in-memory sink."""
        sink = CollectingSink()
        report = self.run(pages, sink)
        return report, sink.records

    def clusters(self) -> list[str]:
        """Served clusters (those with compiled wrappers)."""
        return self.runtime.clusters()
