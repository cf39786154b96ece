"""The two workloads, each as a timed run and as a traced run.

A timed run measures the end-to-end metrics with no tracing installed.
A traced run (``--trace 1``) repeats the workload's layer path with the
span wrappers of :mod:`spans` installed and derives the per-layer
metrics; its overhead is measured against an untraced pass of the same
pages.  Both check every output against the reference records.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import loadgen
import selftest
import stats
from artifact import Artifact, build_artifact, slot_ratio
from check import Gate, Reference, jsonl_line, response_body
from repro.service.registry import ArtifactRegistry
from repro.service.router import ClusterRouter
from repro.service.runtime import StreamingRuntime
from repro.service.serve import ServeHandler
from repro.service.sink import JsonlSink
from repro.sites.page import WebPage
from repro.xpath.engine import cache_stats, compile_xpath
from spans import Analysis, Tracer


@dataclass
class Run:
    """Everything one invocation shares."""

    seed: int
    seconds: float
    config: dict
    workdir: Path
    src: Path
    cpus: int = field(default_factory=lambda: os.cpu_count() or 1)


@dataclass
class Outcome:
    """A workload's metrics, its gate and details for the report line."""

    gate: Gate
    metrics: dict
    report: dict
    not_applicable: list = field(default_factory=list)


@dataclass
class Expected:
    """One page of a pass with its reference output."""

    family: str
    page: WebPage
    line: str
    values: dict


# --------------------------------------------------------------------- #
# Shared pieces
# --------------------------------------------------------------------- #


class Setup:
    """The set-ups of one run, repeated through it; ``setup_s`` is the
    median of their times.

    ``extra(artifact)`` runs after each build, inside the timed set-up,
    and returns ``(value, seconds)``; its seconds are the
    ``server_ready_s`` step.  Each set-up starts from freshly generated
    training pages and a collected heap, and collects its training
    pages after, so neither the workload's leftovers nor a set-up's own
    are collected inside a timed region.
    """

    def __init__(self, extra=None) -> None:
        self.extra = extra
        self.samples: list[float] = []
        self.steps: dict = {}

    def once(self):
        """Set up once; returns ``(artifact, extra value)``."""
        training = corpus.training_pages()
        gc.collect()
        artifact = build_artifact(training)
        timings = dict(artifact.timings)
        value = None
        if self.extra is not None:
            value, timings["server_ready_s"] = self.extra(artifact)
        for name, seconds in timings.items():
            self.steps.setdefault(name, []).append(seconds)
        self.samples.append(sum(timings.values()))
        del training
        gc.collect()
        return artifact, value

    def layer_metrics(self) -> dict:
        """The ``setup.*`` metrics: each step's median."""
        return {f"setup.{name}": statistics.median(values)
                for name, values in self.steps.items()}


def _expected(reference: Reference, entries) -> list[Expected]:
    result = []
    for index, (family, page) in enumerate(entries):
        record = reference.record(family, page)
        result.append(
            Expected(family, page, jsonl_line(record, index), record["values"])
        )
    return result


def _fresh(expected: list[Expected]) -> list[WebPage]:
    return [WebPage(url=e.page.url, html=e.page.html) for e in expected]


def _process_runtime(artifact: Artifact, workers: int) -> StreamingRuntime:
    return StreamingRuntime(
        artifact.repository,
        router=artifact.router,
        workers=workers,
        executor="process",
        ordered=True,
        contain_errors=True,
    )


def _run_pass(runtime, pages, path: Path, tracer=None) -> tuple[float, float]:
    """One ``runtime.run`` into a JSONL file; returns ``(start, end)``.

    With a tracer, its key is set to each page's position as the page
    enters the runtime.
    """

    def source():
        for index, page in enumerate(pages):
            if tracer is not None:
                tracer.key = index
            yield index, page

    sink = JsonlSink(path)
    started = time.perf_counter()
    try:
        runtime.run(source(), sink)
    finally:
        sink.close()
    return started, time.perf_counter()


def check_jsonl(path: Path, expected: list[Expected], gate: Gate) -> None:
    """Match a pass's JSONL output to the expected lines, in order."""
    pointer = 0
    with open(path, encoding="utf-8") as stream:
        for raw in stream:
            line = raw.rstrip("\n")
            if pointer < len(expected) and line == expected[pointer].line:
                e = expected[pointer]
                gate.check_line(e.family, e.page, e.line, line, e.values)
                pointer += 1
                continue
            try:
                index = json.loads(line).get("index", pointer)
            except (ValueError, AttributeError):
                index = pointer
            if not isinstance(index, int) or not pointer <= index < len(expected):
                index = pointer
            while pointer < index:
                e = expected[pointer]
                gate.fail(e.family, e.page, "no output record (unroutable?)")
                pointer += 1
            if pointer >= len(expected):
                gate.violations.append(f"{path.name}: extra output line")
                gate.failed += 1
                continue
            e = expected[pointer]
            gate.check_line(e.family, e.page, e.line, line, e.values)
            pointer += 1
    for e in expected[pointer:]:
        gate.fail(e.family, e.page, "no output record (unroutable?)")


def _latency_metrics(samples_ms, limit_ms: float, report: dict, label: str):
    value, percentile, count = stats.tail(samples_ms)
    report[label] = {
        "samples": count,
        "tail_percentile": round(percentile, 3),
        "limit_ms": limit_ms,
    }
    return {
        "page_p50_ms": statistics.median(samples_ms),
        "page_tail_ms": value,
        "slo_met": sum(1 for v in samples_ms if v <= limit_ms) / len(samples_ms),
    }


def _common(gate: Gate, rates, setup: Setup, peak_mb):
    """Metrics every workload reports; ``rates`` are pages/s per pass."""
    return {
        "pages_per_s": statistics.median(rates),
        "success_rate": gate.success_rate(),
        "truth_match": gate.truth_match(),
        "setup_s": statistics.median(setup.samples),
        "peak_rss_mb": peak_mb,
    }


# --------------------------------------------------------------------- #
# Per-layer metrics from a traced pass
# --------------------------------------------------------------------- #


def _layer_metrics(analysis: Analysis, expected: list[Expected], wall: float):
    """html/router/extract/xpath/sink/trace metrics of one traced pass."""
    keys = range(len(expected))
    parsed_kb = sum(len(e.page.html.encode("utf-8")) for e in expected) / 1024
    parse = analysis.total("parse_html")
    tokenize = analysis.total("tokenize")
    parses = analysis.count("parse_html")
    metrics = {
        "html.tokenize_us_per_kb": 1e6 * tokenize / parsed_kb,
        "html.tree_us_per_kb": 1e6 * (parse - tokenize) / parsed_kb,
        "html.parse_us_per_page": 1e6 * parse / parses,
        "router.signature_us_per_page": 1e6 * analysis.total(
            "router.signature", self_time=True) / analysis.count("router.signature"),
        "router.route_us_per_page": 1e6 * analysis.total(
            "router.route_signature") / analysis.count("router.route_signature"),
        "xpath.generic_share": analysis.generic_time(keys) / analysis.total(
            "extract_page"),
        "trace.unattributed_share": max(0.0, wall - analysis.root_time()) / wall,
    }
    writes = analysis.count("sink.write")
    if writes:
        metrics["sink.write_us_per_record"] = 1e6 * analysis.total(
            "sink.write") / writes
    by_family: dict = {}
    for index, e in enumerate(expected):
        by_family.setdefault(e.family, set()).add(index)
    for family, family_keys in by_family.items():
        metrics[f"extract.us_per_page.{family}"] = 1e6 * analysis.total(
            "extract_page", keys=family_keys) / analysis.count(
            "extract_page", keys=family_keys)
    return metrics


def _location_probe(pages, repository) -> dict:
    """Time every rule location of each ``(family, page)`` with the
    generic evaluator, as labelled ``xpath.select`` spans; returns the
    costliest location's mean time per family (us)."""
    tracer = Tracer()
    counts: dict = {}
    with tracer.installed():
        for family, page in pages:
            root = page.root_element
            counts[family] = counts.get(family, 0) + 1
            for rule in repository.rules(family):
                for location in rule.locations:
                    compile_xpath(location).select(root)
    spans = Analysis(tracer.spans).by_label("xpath.select")
    family_of = {
        location: family
        for family in repository.clusters()
        for rule in repository.rules(family)
        for location in rule.locations
    }
    costliest: dict = {}
    for location, seconds in spans.items():
        family = family_of[location]
        mean_us = 1e6 * seconds / counts[family]
        costliest[family] = max(costliest.get(family, 0.0), mean_us)
    return {f"xpath.costliest_location_us.{f}": v for f, v in costliest.items()}


def _cache_hit_ratio() -> float:
    """``compile_xpath`` cache hits over lookups since the run started.

    Compiled wrappers hold their XPath objects, so the lookups come from
    induction and the reference processor, not from the timed path.
    """
    counters = cache_stats()
    lookups = counters["hits"] + counters["misses"]
    return counters["hits"] / lookups if lookups else 0.0


def _routed_ratio(path: Path, expected: list[Expected]) -> float:
    """Share of pages whose record names the page's own family."""
    routed = 0
    with open(path, encoding="utf-8") as stream:
        for raw in stream:
            record = json.loads(raw)
            index = record.get("index")
            if isinstance(index, int) and 0 <= index < len(expected):
                routed += record.get("cluster") == expected[index].family
    return routed / len(expected)


# --------------------------------------------------------------------- #
# mixed-batch
# --------------------------------------------------------------------- #


def mixed_batch(run: Run, trace: bool) -> Outcome:
    """Generator-size pages of all five families through a process pool."""
    cfg = run.config["workloads"]["mixed-batch"]
    setup = Setup()
    artifact, _ = setup.once()
    entries, dropped = corpus.mixed_corpus(run.seed, cfg["pages_per_family"])
    reference = Reference(artifact.repository)
    expected = _expected(reference, entries)
    gate = Gate(reference)
    report = {"pages_per_pass": len(expected), "dropped_training_twins": dropped,
              "workers": run.cpus}
    if trace:
        for _ in range(cfg["traced_setup_repeats"] - 1):
            setup.once()
        return _mixed_traced(run, artifact, reference, expected, gate,
                             setup, report)

    runtime = _process_runtime(artifact, run.cpus)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < run.seconds:
        path = run.workdir / f"mixed-{len(passes)}.jsonl"
        passes.append((path, _run_pass(runtime, _fresh(expected), path)))
        # Set-ups spread over the run, so a slow spell of the host sets
        # few of them, as it sets few passes.
        setup.once()
    peak = stats.self_peak_mb() + run.cpus * stats.children_peak_mb()
    for path, _ in passes:
        check_jsonl(path, expected, gate)
    rates = [len(expected) / (end - start) for _, (start, end) in passes]
    report["pass_pages_per_s"] = rates
    metrics = _common(gate, rates, setup, peak)
    report["setup_samples"] = len(setup.samples)
    # No user sees a per-page latency inside a process-pool batch; these
    # cells only fill the result line's slots (see README.md).
    metrics.update(_latency_metrics(
        [1e3 / rate for rate in rates], cfg["page_limit_ms"], report,
        "amortized_pass"))
    return Outcome(gate, metrics, report)


def _mixed_traced(run, artifact, reference, expected, gate, setup, report):
    # One page at a time, each drained to the sink before the next, so
    # every span of a page carries that page's key.
    inline = StreamingRuntime(
        artifact.repository, router=artifact.router, workers=1,
        executor="inline", chunk_size=1, max_pending=1, ordered=True,
        contain_errors=True,
    )
    untraced_path = run.workdir / "inline.jsonl"
    start, end = _run_pass(inline, _fresh(expected), untraced_path)
    untraced_wall = end - start
    check_jsonl(untraced_path, expected, gate)

    tracer = Tracer()
    traced_path = run.workdir / "traced.jsonl"
    traced_pages = _fresh(expected)
    with tracer.installed():
        start, end = _run_pass(inline, traced_pages, traced_path, tracer)
    traced_wall = end - start
    check_jsonl(traced_path, expected, gate)

    process_pages = _fresh(expected)
    process_path = run.workdir / "process.jsonl"
    start, end = _run_pass(
        _process_runtime(artifact, run.cpus), process_pages, process_path)
    process_wall = end - start
    check_jsonl(process_path, expected, gate)

    metrics = _layer_metrics(Analysis(tracer.spans), expected, traced_wall)
    metrics.update(_location_probe(
        [(e.family, page) for e, page in zip(expected, traced_pages)],
        artifact.repository))
    metrics.update(_ladder(run, artifact, reference, tracer, gate))
    metrics.update(setup.layer_metrics())
    metrics.update({
        "router.routed_ratio": _routed_ratio(traced_path, expected),
        "automaton.slot_ratio": slot_ratio(artifact),
        "xpath.cache_hit_ratio": _cache_hit_ratio(),
        "sink.bytes_per_record": traced_path.stat().st_size / len(expected),
        "runtime.process_speedup": untraced_wall / process_wall,
        "runtime.parent_parse_ratio": sum(
            "document" in page.__dict__ for page in process_pages
        ) / len(process_pages),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    report["spans"] = len(tracer.spans)
    # No server on this path; serve-http measures these.
    return Outcome(gate, metrics, report, not_applicable=[
        "serve.handle_us_per_request", "http.hop_us_per_request",
        "http.loadgen_late_ms", "setup.server_ready_s",
    ])


def _per_rung(analysis: Analysis, name: str, keys_by_rung: dict,
              self_time: bool = False) -> dict:
    return {
        rung: analysis.total(name, self_time, keys) / analysis.count(name, keys)
        for rung, keys in keys_by_rung.items()
    }


def _growth(per_rung: dict) -> float:
    """cost(top rung) / cost(rung below): one doubling of page size."""
    rungs = sorted(per_rung)
    return per_rung[rungs[-1]] / per_rung[rungs[-2]]


def _ladder(run: Run, artifact: Artifact, reference: Reference,
            tracer: Tracer, gate: Gate) -> dict:
    """Growth metrics from one grown page per family and rung.

    Each page is parsed, signed and extracted by its family's wrapper
    under the tracer; its values are checked against the reference.
    """
    rungs = run.config["ladder_rungs_bytes"]
    entries, _ = corpus.grown_corpus(run.seed, 1, rungs)
    selftest.check_grown(entries, rungs)
    keys_by_rung: dict = {}
    cross = 0
    for index, (family, rung, _, grown) in enumerate(entries):
        key = ("ladder", index)
        keys_by_rung.setdefault(rung, set()).add(key)
        page = WebPage(url=grown.url, html=grown.html)
        failures: list = []
        with tracer.installed():
            tracer.key = key
            ClusterRouter.signature(page)
            extracted = artifact.wrappers[family].extract_page(page, failures)
        cross += artifact.router.target(page) == family
        expected = reference.record(family, grown)
        actual = dict(expected, values=extracted.values, failures=[
            [f.component_name, f.reason] for f in failures])
        gate.check_line(family, grown, json.dumps(expected, sort_keys=True),
                        json.dumps(actual, sort_keys=True), expected["values"])
    analysis = Analysis(tracer.spans)
    metrics = {
        "html.parse_growth_2x": _growth(
            _per_rung(analysis, "parse_html", keys_by_rung)),
        "router.signature_growth_2x": _growth(_per_rung(
            analysis, "router.signature", keys_by_rung, self_time=True)),
        # The router fitted on generator-size pages, offered grown ones.
        "router.cross_size_routed_ratio": cross / len(entries),
    }
    for family in corpus.FAMILY_NAMES:
        family_keys = {
            rung: {k for k in keys if entries[k[1]][0] == family}
            for rung, keys in keys_by_rung.items()
        }
        metrics[f"extract.growth_2x.{family}"] = _growth(
            _per_rung(analysis, "extract_page", family_keys))
    return metrics


# --------------------------------------------------------------------- #
# serve-http
# --------------------------------------------------------------------- #


def _start_server(run: Run, artifact: Artifact, number: int):
    """Publish the artifact to a fresh registry and start a server on it."""
    directory = run.workdir / f"server-{number}"
    directory.mkdir()
    registry = ArtifactRegistry(directory / "registry")
    manifest = registry.publish(
        artifact.repository, artifact.router, source="initial")
    registry.pin(manifest.version)
    rules = directory / "rules.json"
    artifact.repository.save(rules)
    server = loadgen.ServerProcess(run.src, rules, directory / "registry")
    try:
        server.start()
    except BaseException:
        server.stop()
        raise
    return server


def serve_http(run: Run, trace: bool) -> Outcome:
    """imdb-movies pages POSTed to one ``serve --http`` process."""
    cfg = run.config["workloads"]["serve-http"]
    timeout = cfg["request_timeout_s"]
    servers = []

    def start(artifact):
        started = time.perf_counter()
        servers.append(_start_server(run, artifact, len(servers)))
        return servers[-1], time.perf_counter() - started

    setup = Setup(start)

    def spare_setup():
        # A whole set-up whose server stops at once; the first keeps serving.
        setup.once()
        servers[-1].stop()

    try:
        artifact, server = setup.once()
        family = cfg["family"]
        pages, dropped = corpus.timed_pages(run.seed, cfg["pages"], (family,))
        reference = Reference(artifact.repository)
        expected, lines, requests = _requests(
            reference, [(family, page) for page in pages[family]])
        bodies = [e.line.encode("utf-8") for e in expected]
        gate = Gate(reference)
        report = {"pages": len(expected), "dropped_training_twins": dropped,
                  "connections": run.cpus}
        check = _checker(gate, expected)

        if trace:
            for _ in range(cfg["traced_setup_repeats"] - 1):
                spare_setup()
            return _serve_traced(run, cfg, artifact, expected, lines, requests,
                                 server, gate, check, setup, report)
        warm, _ = loadgen.closed_loop(server.port, requests, run.cpus,
                                      cfg["warmup_seconds"], timeout)
        check(warm)
        # Phases of closed loop, open-loop segment and set-up, so a slow
        # spell of the host sets a few samples of every metric, not one
        # metric's whole sample.
        rate, size = cfg["open_rate_per_s"], cfg["open_segment_requests"]
        phases = max(1, int(run.seconds * (1 - cfg["closed_share"]) * rate / size))
        closed_seconds = run.seconds * cfg["closed_share"] / phases
        closed, rates, opened, late = [], [], [], []
        for phase in range(phases):
            results, wall = loadgen.closed_loop(
                server.port, requests, run.cpus, closed_seconds, timeout)
            closed.extend(results)
            rates.append(sum(1 for r in results if r[1] == 200) / wall)
            first = phase * size % len(requests)
            results, segment_late = loadgen.open_loop(
                server.port, requests[first:] + requests[:first], run.cpus,
                rate, size, timeout)
            opened.extend(results)
            late.extend(segment_late)
            spare_setup()
        count = len(opened)
        check(closed)
        check(opened)
        peak = stats.self_peak_mb() + server.peak_mb()
    finally:
        for each in servers:
            each.stop()
    limit = cfg["latency_limit_ms"]
    latencies = [1e3 * r[3] for r in opened]
    metrics = _common(gate, rates, setup, peak)
    metrics.update(_latency_metrics(latencies, limit, report, "open_loop"))
    # The tail is the lowest of the segments' tails.  A slow spell of a
    # shared host raises the tail of whole stretches of a run, while a
    # slower program raises it in every segment.
    segment_tails = [
        stats.tail(latencies[i:i + size])
        for i in range(0, len(latencies) - size + 1, size)
    ]
    metrics["page_tail_ms"] = min(t[0] for t in segment_tails)
    report["open_loop"].update({
        "segments": len(segment_tails),
        "segment_tail_percentile": round(segment_tails[0][1], 3),
        "segment_tails_ms": [t[0] for t in segment_tails],
    })
    # A failed or incorrect answer misses the limit whatever its time.
    metrics["slo_met"] = sum(
        1 for request_id, status, body, latency in opened
        if status == 200 and body == bodies[request_id] and 1e3 * latency <= limit
    ) / count
    report.update({
        "closed_requests": len(closed), "closed_phase_pages_per_s": rates,
        "open_requests": count, "open_rate_per_s": rate,
        "loadgen_late_p99_ms": 1e3 * _p99(late),
        "setup_samples": len(setup.samples),
    })
    return Outcome(gate, metrics, report)


def _p99(values) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


def _requests(reference: Reference, entries):
    """Expected answers, request lines and HTTP requests for pages."""
    expected, lines = [], []
    for family, page in entries:
        record = reference.record(family, page)
        expected.append(Expected(family, page, response_body(record).decode(),
                                 record["values"]))
        lines.append(json.dumps({"url": page.url, "html": page.html}))
    requests = [(i, loadgen.extract_request(line.encode("utf-8")))
                for i, line in enumerate(lines)]
    return expected, lines, requests


def _checker(gate: Gate, expected: list[Expected]):
    """Check ``(id, status, body, ...)`` results against ``expected``."""

    def check(results):
        for request_id, status, body, *_ in results:
            e = expected[request_id]
            if status != 200:
                gate.fail(e.family, e.page, f"HTTP {status}: {body[:80]!r}")
                continue
            gate.check_line(e.family, e.page, e.line,
                            body.decode("utf-8", "replace"), e.values)

    return check


def _handle_times(handler: ServeHandler, lines) -> list[float]:
    """In-process ``handle_line`` seconds per line, after one warm pass."""
    for line in lines:
        handler.handle_line(line)
    times = []
    for line in lines:
        call = time.perf_counter()
        handler.handle_line(line)
        times.append(time.perf_counter() - call)
    return times


def _http_layers(run: Run, server, requests, check, handle_s) -> dict:
    """The HTTP hop (serial round trip minus in-process handling) and
    the load generator's lateness in a short open-loop phase."""
    cfg = run.config["workloads"]["serve-http"]
    seconds, timeout = cfg["warmup_seconds"], cfg["request_timeout_s"]
    warm, _ = loadgen.closed_loop(server.port, requests, run.cpus, seconds, timeout)
    serial, _ = loadgen.closed_loop(server.port, requests, 1, seconds, timeout)
    rate = cfg["open_rate_per_s"]
    opened, late = loadgen.open_loop(server.port, requests, run.cpus, rate,
                                     int(rate * seconds), timeout)
    for results in (warm, serial, opened):
        check(results)
    round_trip = statistics.mean(r[4] for r in serial)
    # Serial round trips may cover only part of the pages: subtract the
    # in-process handling of the same requests.
    handled = statistics.mean(handle_s[r[0]] for r in serial)
    return {
        "serve.handle_us_per_request": 1e6 * statistics.mean(handle_s),
        "http.hop_us_per_request": 1e6 * (round_trip - handled),
        "http.loadgen_late_ms": 1e3 * _p99(late),
    }


def _serve_traced(run, cfg, artifact, expected, lines, requests, server,
                  gate, check, setup, report):
    handler = ServeHandler(artifact.repository, router=artifact.router)
    handle_s = _handle_times(handler, lines)
    untraced_wall = sum(handle_s)
    tracer = Tracer()
    answers = []
    with tracer.installed():
        started = time.perf_counter()
        for index, line in enumerate(lines):
            tracer.key = index
            answers.append(handler.handle_line(line)[0] + "\n")
        traced_wall = time.perf_counter() - started
    for e, answer in zip(expected, answers):
        gate.check_line(e.family, e.page, e.line, answer, e.values)
    metrics = _layer_metrics(Analysis(tracer.spans), expected, traced_wall)
    metrics.update(_http_layers(run, server, requests, check, handle_s))
    metrics.update(_location_probe(
        [(e.family, e.page) for e in expected], artifact.repository))
    metrics.update(setup.layer_metrics())
    metrics.update({
        "router.routed_ratio": sum(
            json.loads(a).get("cluster") == e.family
            for a, e in zip(answers, expected)) / len(expected),
        "automaton.slot_ratio": slot_ratio(artifact),
        "xpath.cache_hit_ratio": _cache_hit_ratio(),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    report["spans"] = len(tracer.spans)
    # Off this path, and measured on mixed-batch's: other families, the
    # size ladder, the sink and the process pool.
    others = [f for f in corpus.FAMILY_NAMES if f != cfg["family"]]
    return Outcome(gate, metrics, report, not_applicable=[
        *(f"{prefix}.{family}" for family in others
          for prefix in ("extract.us_per_page", "xpath.costliest_location_us")),
        *(f"extract.growth_2x.{family}" for family in corpus.FAMILY_NAMES),
        "html.parse_growth_2x", "router.signature_growth_2x",
        "router.cross_size_routed_ratio",
        "sink.write_us_per_record", "sink.bytes_per_record",
        "runtime.process_speedup", "runtime.parent_parse_ratio",
    ])


WORKLOADS = {
    "mixed-batch": mixed_batch,
    "serve-http": serve_http,
}
