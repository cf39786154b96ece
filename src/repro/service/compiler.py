"""Rule compilation: from a repository cluster to a serving artifact.

An :class:`~repro.extraction.extractor.ExtractionProcessor` re-walks
each rule's location path independently on every page.  A
:class:`CompiledWrapper` instead evaluates a cluster's locations in
two tiers, without changing semantics:

* **Single-pass automaton** — every eligible location (primaries *and*
  alternatives, across every rule: positional paths, ``//`` and the
  paper's contextual label anchor) compiles into one
  :class:`~repro.service.automaton.ExtractionAutomaton`, so a page is
  scanned once regardless of rule count.
* **Generic select** — everything else (absolute paths, filter
  expressions, ``following::`` anchors, other value predicates) is
  pre-parsed to an :class:`~repro.xpath.engine.XPath` once and
  evaluated lazily, only when its rule reaches it.

Post-processor chains are resolved per component at compile time
(:meth:`repro.extraction.postprocess.PostProcessor.resolve`), so the
per-value dict lookups disappear from the hot loop.

Output is byte-identical to the sequential processor: value grouping
goes through :meth:`MappingRule.match_from_nodes` and failure
detection through :func:`~repro.extraction.extractor.classify_failure`
— the same code paths the interactive extractor uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule
from repro.errors import ExtractionError
from repro.extraction.extractor import (
    ExtractedPage,
    ExtractionFailure,
    ExtractionResult,
    classify_failure,
)
from repro.extraction.postprocess import PostProcessor
from repro.service.automaton import ExtractionAutomaton, automaton_steps
from repro.sites.page import WebPage
from repro.xpath.ast import Step
from repro.xpath.engine import XPath, compile_xpath
from repro.xpath.evaluator import Evaluator

#: Module-level patch point for tracing harnesses that time generic
#: evaluator calls made from this module; the fallback tier itself goes
#: through :meth:`XPath.select`.
_EVALUATOR = Evaluator()


# --------------------------------------------------------------------- #
# Compiled artifacts
# --------------------------------------------------------------------- #


@dataclass
class CompiledRule:
    """One rule, ready to serve.

    Attributes:
        rule: the underlying mapping rule.
        locations: every location pre-compiled, in rule order.
        post: pre-resolved post-processing chain, or ``None``.
        slots: automaton slot per location (parallel to
            ``locations``); ``None`` where a location is ineligible and
            evaluates lazily through the generic engine.
    """

    rule: MappingRule
    locations: tuple[XPath, ...]
    post: Optional[Callable[[list[str]], list[str]]]
    slots: tuple[Optional[int], ...] = ()

    @property
    def name(self) -> str:
        """The compiled rule's component name."""
        return self.rule.name


@dataclass(frozen=True)
class CompilerStats:
    """Prefix-sharing accounting (compile time, per wrapper)."""

    rules: int
    automaton_slots: int = 0        # locations riding the one-pass scan
    automaton_states: int = 0       # distinct automaton states
    automaton_transitions: int = 0  # dispatch-table entries
    automaton_location_steps: int = 0  # steps across automaton locations
    #: Static-analyzer findings for this cluster's rule-set, passed
    #: through by deploy paths that lint what they compile (registry
    #: compiles); 0 for direct in-memory builds that skip analysis.
    lint_findings: int = 0

    @property
    def automaton_steps_saved(self) -> int:
        """Steps per page the automaton dedupes vs. per-location walks.

        The automaton evaluates each distinct transition once, so the
        saving is total location steps minus distinct transitions.
        """
        return self.automaton_location_steps - self.automaton_transitions

    def as_dict(self) -> dict:
        """A JSON-ready view (``registry show --stats``, progress)."""
        return {
            "rules": self.rules,
            "automaton_slots": self.automaton_slots,
            "automaton_states": self.automaton_states,
            "automaton_transitions": self.automaton_transitions,
            "automaton_location_steps": self.automaton_location_steps,
            "automaton_steps_saved": self.automaton_steps_saved,
            "lint_findings": self.lint_findings,
        }


class CompiledWrapper:
    """A cluster's rules compiled for high-throughput extraction.

    Obtain instances via :func:`compile_wrapper` or
    :meth:`RuleRepository.compile_cluster`.  Thread-safe after
    construction: extraction mutates no wrapper state.
    """

    def __init__(
        self,
        cluster: str,
        rules: list[CompiledRule],
        automaton: ExtractionAutomaton,
        stats: CompilerStats,
        version: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.rules = rules
        #: The single-pass automaton over every eligible location.
        self.automaton = automaton
        self.stats = stats
        #: Registry version id of the artifact this wrapper was
        #: compiled from (``None`` for direct in-memory builds).
        self.version = version

    # -- hot path -------------------------------------------------------- #

    def extract_page(
        self,
        page: WebPage,
        failures: Optional[list[ExtractionFailure]] = None,
    ) -> ExtractedPage:
        """Apply every rule to one page (same contract as the processor)."""
        context = page.root_element
        hits = self.automaton.scan(context)
        extracted = ExtractedPage(url=page.url)
        for crule in self.rules:
            rule = crule.rule
            match = None
            for xpath, slot in zip(crule.locations, crule.slots):
                nodes = (
                    hits[slot] if slot is not None else xpath.select(context)
                )
                if nodes:
                    match = rule.match_from_nodes(nodes, xpath.source)
                    break
            if match is None:
                match = rule.match_from_nodes([], None)
            if failures is not None:
                reason = classify_failure(rule, len(match.values))
                if reason is not None:
                    failures.append(
                        ExtractionFailure(page.url, rule.name, reason)
                    )
            texts = [value.text for value in match.values]
            if crule.post is not None:
                texts = crule.post(texts)
            extracted.values[rule.name] = texts
            extracted.raw_values[rule.name] = list(match.values)
        return extracted

    def extract(self, pages: Iterable[WebPage]) -> ExtractionResult:
        """Batch façade mirroring :meth:`ExtractionProcessor.extract`."""
        result = ExtractionResult(cluster=self.cluster)
        for page in pages:
            result.pages.append(self.extract_page(page, result.failures))
        return result


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #


def compile_wrapper(
    repository: RuleRepository,
    cluster: str,
    postprocessor: Optional[PostProcessor] = None,
    version: Optional[str] = None,
    lint_findings: int = 0,
) -> CompiledWrapper:
    """Compile ``cluster``'s recorded rules into a serving wrapper.

    Args:
        version: registry version id to stamp on the wrapper when the
            repository was loaded from a versioned artifact.
        lint_findings: static-analyzer finding count for this cluster,
            recorded on :attr:`CompilerStats.lint_findings` by deploy
            paths that lint what they compile (the registry).

    Raises:
        ExtractionError: when the cluster has no recorded rules (same
            contract as :class:`ExtractionProcessor`).
    """
    rules = (
        repository.rules(cluster) if cluster in repository.clusters() else []
    )
    if not rules:
        raise ExtractionError(f"no rules recorded for cluster {cluster!r}")

    compiled: list[CompiledRule] = []
    slot_locations: list[tuple[int, tuple[Step, ...]]] = []
    for rule in rules:
        locations = tuple(compile_xpath(loc) for loc in rule.locations)
        slots: list[Optional[int]] = []
        for xpath in locations:
            auto_steps = automaton_steps(xpath)
            if auto_steps is None:
                slots.append(None)
            else:
                slot = len(slot_locations)
                slots.append(slot)
                slot_locations.append((slot, auto_steps))
        post = (
            postprocessor.resolve(rule.name)
            if postprocessor is not None
            else None
        )
        compiled.append(
            CompiledRule(
                rule=rule,
                locations=locations,
                post=post,
                slots=tuple(slots),
            )
        )

    automaton = ExtractionAutomaton(slot_locations)
    auto_stats = automaton.stats
    stats = CompilerStats(
        rules=len(rules),
        automaton_slots=auto_stats.slots,
        automaton_states=auto_stats.states,
        automaton_transitions=auto_stats.transitions,
        automaton_location_steps=auto_stats.location_steps,
        lint_findings=lint_findings,
    )
    return CompiledWrapper(cluster, compiled, automaton, stats, version=version)

