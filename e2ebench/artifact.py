"""Set-up: induce the five families, fit one router, compile.

This is what a user pays before the first page: from generated
training pages to a compiled wrapper set, in three timed steps that
feed ``setup_s`` and the ``setup.*`` per-layer metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import corpus
from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.router import ClusterRouter

#: Rules and locations the five families induce today; asserted so a
#: silent change in induction shows.
EXPECTED_RULES = 19
EXPECTED_LOCATIONS = 21


@dataclass
class Artifact:
    """One set-up's output plus how long each step took."""

    repository: RuleRepository
    router: ClusterRouter
    wrappers: dict
    timings: dict = field(default_factory=dict)


def build_artifact(training) -> Artifact:
    """Induce, fit (default threshold) and compile from fresh pages."""
    components = corpus.components()
    started = time.perf_counter()
    repository = RuleRepository()
    for family, pages in training.items():
        report = MappingRuleBuilder(
            pages, ScriptedOracle(), repository=repository,
            cluster_name=family, seed=1,
        ).build_all(components[family])
        if report.failed_components:
            raise RuntimeError(
                f"{family}: builder failed {report.failed_components}"
            )
    induced = time.perf_counter()
    router = ClusterRouter.fit(training)
    fitted = time.perf_counter()
    wrappers = repository.compile_all()
    compiled = time.perf_counter()
    rules = len(repository)
    locations = sum(len(rule.locations) for _, rule in repository)
    if (rules, locations) != (EXPECTED_RULES, EXPECTED_LOCATIONS):
        raise RuntimeError(
            f"induced {rules} rules / {locations} locations, expected "
            f"{EXPECTED_RULES} / {EXPECTED_LOCATIONS}"
        )
    return Artifact(
        repository=repository,
        router=router,
        wrappers=wrappers,
        timings={
            "induce_s": induced - started,
            "router_fit_s": fitted - induced,
            "compile_s": compiled - fitted,
        },
    )


def slot_ratio(artifact: Artifact) -> float:
    """Share of rule locations compiled into automaton slots."""
    slots = sum(w.stats.automaton_slots for w in artifact.wrappers.values())
    return slots / EXPECTED_LOCATIONS
