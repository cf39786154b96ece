"""The correctness gate and the ground-truth score.

Expected output is what the paper's reference ``ExtractionProcessor``
yields for the page under its generator family's rules, serialized the
way the served path serializes it.  Every check runs outside the timed
region, on fresh page objects.
"""

from __future__ import annotations

import json

from repro.extraction.extractor import ExtractionProcessor
from repro.sites.page import WebPage


class Reference:
    """Expected record of every page, per generator family."""

    def __init__(self, repository) -> None:
        self._processors = {
            family: ExtractionProcessor(repository, family)
            for family in repository.clusters()
        }
        self.components = {
            family: repository.component_names(family)
            for family in repository.clusters()
        }

    def record(self, family: str, page: WebPage) -> dict:
        """``{url, cluster, values, failures}`` for ``page``."""
        fresh = WebPage(url=page.url, html=page.html)
        failures: list = []
        extracted = self._processors[family].extract_page(fresh, failures)
        return {
            "url": page.url,
            "cluster": family,
            "values": extracted.values,
            "failures": [[f.component_name, f.reason] for f in failures],
        }


def jsonl_line(record: dict, index: int) -> str:
    """The JSONL line ``JsonlSink`` writes for ``record`` at ``index``."""
    return json.dumps(dict(record, index=index), sort_keys=True)


def response_body(record: dict) -> bytes:
    """The ``POST /extract`` body the server answers for ``record``."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def describe_mismatch(expected: str, actual: str) -> str:
    """Why an output line is wrong: misroute, error or value drift."""
    try:
        got = json.loads(actual)
    except ValueError:
        return f"unparseable output {actual[:80]!r}"
    want = json.loads(expected)
    if "error" in got:
        return f"error record {got['error']!r}"
    if got.get("cluster") != want["cluster"]:
        return f"routed to {got.get('cluster')!r}, not {want['cluster']!r}"
    return "values differ from the reference ExtractionProcessor"


class Gate:
    """Tallies pages checked, successes, violations and truth matches.

    A *success* is a routed, non-error record; a *violation* is any
    output that differs from the reference record (misroutes included).
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.succeeded = 0
        self.failed = 0
        self.violations: list[str] = []
        self.truth_pairs = 0
        self.truth_matched = 0

    @property
    def correct(self) -> bool:
        """No violation and at least one page checked."""
        return self.attempted > 0 and self.failed == 0

    def success_rate(self) -> float:
        """Routed, non-error records over pages attempted."""
        return self.succeeded / self.attempted if self.attempted else 0.0

    def truth_match(self) -> float:
        """(page, component) pairs equal to the generator's ground truth."""
        return self.truth_matched / self.truth_pairs if self.truth_pairs else 0.0

    def fail(self, family: str, page: WebPage, why: str) -> None:
        """Count a page that produced no usable output at all."""
        self._tally(family, page, None, False, why)

    def check_line(self, family: str, page: WebPage, expected: str,
                   actual, values: dict) -> None:
        """Compare one output line with the expected one.

        ``actual`` is ``None`` when the page produced no output line;
        ``values`` are the reference values (the output's, when equal).
        """
        if actual == expected:
            self.succeeded += 1
            self._tally(family, page, values, True, "")
            return
        if actual is None:
            self.fail(family, page, "no output record (unroutable?)")
            return
        try:
            got = json.loads(actual)
        except ValueError:
            self.fail(family, page, f"unparseable output {actual[:80]!r}")
            return
        routed = "error" not in got and got.get("cluster") not in (
            None, "unroutable"
        )
        self.succeeded += routed
        self._tally(family, page, got.get("values"), False,
                    describe_mismatch(expected, actual))

    def _tally(self, family, page, values, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.violations) < 20:
                self.violations.append(f"{page.url} [{family}]: {why}")
        for component in self.reference.components[family]:
            self.truth_pairs += 1
            if values is not None and values.get(component) == (
                page.ground_truth.get(component)
            ):
                self.truth_matched += 1
