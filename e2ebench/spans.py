"""In-memory spans around calls into each layer's public functions.

The wrappers are installed by the benchmark for the traced run only and
removed afterwards; the program's source is not touched.  A span is
``(name, start, end, parent, key)``: ``parent`` indexes the enclosing
span (``-1`` for a root) and ``key`` is the page or request id the
benchmark set before handing the page over.  Spans stay in memory until
the run ends.

``tokenize`` is a generator the parser consumes token by token, so its
span covers only the time spent inside the generator: it starts at the
first token and lasts for the summed in-generator time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import repro.html.parser as html_parser
import repro.service.compiler as compiler_module
import repro.sites.page as page_module
from repro.service.compiler import CompiledWrapper
from repro.service.router import ClusterRouter
from repro.service.serve import ServeHandler
from repro.service.sink import JsonlSink
from repro.xpath.engine import XPath

#: Spans whose time is the generic XPath evaluator's.
GENERIC = ("xpath.select", "evaluator.apply_steps")


class Tracer:
    """Collects spans; ``key`` tags spans with the current page id."""

    def __init__(self) -> None:
        self.spans: list = []
        self.key = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, label=None):
        """``fn`` recording one span per call.

        ``label(args)`` optionally refines the span name (the XPath
        location of a ``select`` call).
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_name = name if label is None else (name, label(args))
                spans[index] = (span_name, start, end, parent, self.key)

        return traced

    def wrap_generator(self, name: str, fn):
        """``fn`` returning a generator; one span of in-generator time."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            iterator = fn(*args, **kwargs)
            first = clock()
            busy = 0.0
            while True:
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    busy += clock() - started
                    break
                busy += clock() - started
                yield item
            spans.append((name, first, first + busy, parent, self.key))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer boundaries for the duration of the block."""
        evaluator = compiler_module._EVALUATOR
        patches = [
            (page_module, "parse_html",
             self.wrap("parse_html", page_module.parse_html)),
            (html_parser, "tokenize",
             self.wrap_generator("tokenize", html_parser.tokenize)),
            (ClusterRouter, "signature", staticmethod(
                self.wrap("router.signature", ClusterRouter.signature))),
            (ClusterRouter, "route_signature",
             self.wrap("router.route_signature", ClusterRouter.route_signature)),
            (CompiledWrapper, "extract_page",
             self.wrap("extract_page", CompiledWrapper.extract_page)),
            (XPath, "select", self.wrap(
                "xpath.select", XPath.select, label=lambda args: args[0].source)),
            (compiler_module, "_EVALUATOR", _TracedEvaluator(self, evaluator)),
            (JsonlSink, "write", self.wrap("sink.write", JsonlSink.write)),
            (ServeHandler, "handle_line",
             self.wrap("serve.handle_line", ServeHandler.handle_line)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


class _TracedEvaluator:
    """Stands in for the compiler's evaluator; traces top-level steps.

    Recursive calls inside the evaluator go to the real instance, so
    only the compiler's own calls become spans.
    """

    def __init__(self, tracer: Tracer, evaluator) -> None:
        self._evaluator = evaluator
        self.apply_steps = tracer.wrap(
            "evaluator.apply_steps", evaluator.apply_steps
        )

    def __getattr__(self, name):
        return getattr(self._evaluator, name)


def base_name(span_name) -> str:
    """Span name without its label."""
    return span_name[0] if isinstance(span_name, tuple) else span_name


class Analysis:
    """Per-name totals, self times and per-key groupings of spans."""

    def __init__(self, spans) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [
            (end - start) - child_time[i]
            for i, (_, start, end, _, _) in enumerate(spans)
        ]

    def total(self, name: str, self_time: bool = False, keys=None) -> float:
        """Summed duration (or self time) of spans called ``name``."""
        return sum(
            self.self_time[i] if self_time else span[2] - span[1]
            for i, span in enumerate(self.spans)
            if base_name(span[0]) == name and (keys is None or span[4] in keys)
        )

    def count(self, name: str, keys=None) -> int:
        """Number of spans called ``name``."""
        return sum(
            1 for span in self.spans
            if base_name(span[0]) == name and (keys is None or span[4] in keys)
        )

    def root_time(self) -> float:
        """Time covered by root spans (no enclosing span)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def generic_time(self, keys=None) -> float:
        """Generic-evaluator time inside ``extract_page`` spans.

        Counts outermost generic spans only, so nested generic calls are
        not counted twice.
        """
        spans = self.spans
        total = 0.0
        for span in spans:
            if base_name(span[0]) not in GENERIC:
                continue
            if keys is not None and span[4] not in keys:
                continue
            parent = span[3]
            inside_extract = False
            nested = False
            while parent >= 0:
                parent_name = base_name(spans[parent][0])
                if parent_name in GENERIC:
                    nested = True
                    break
                if parent_name == "extract_page":
                    inside_extract = True
                parent = spans[parent][3]
            if inside_extract and not nested:
                total += span[2] - span[1]
        return total

    def by_label(self, name: str, keys=None) -> dict:
        """Label -> summed duration of spans called ``name``."""
        totals: dict = defaultdict(float)
        for span in self.spans:
            if keys is not None and span[4] not in keys:
                continue
            if isinstance(span[0], tuple) and span[0][0] == name:
                totals[span[0][1]] += span[2] - span[1]
        return dict(totals)
