"""Defect-injection harness: prove every analyzer check actually fires.

A static analyzer that has never seen its defects is a no-op with good
marketing.  This module injects each defect class the catalogue
declares into a *known-good* artifact — a rule-set that lints clean at
the default gate — and asserts the specific ``RW*`` code fires, by
diffing the mutant's findings against the clean baseline:

* no false negatives — the expected code appears among the findings
  the mutation introduced;
* no false positives — the mutation introduces findings of *only*
  the expected code (pre-existing info diagnostics such as RW301 on
  automaton-ineligible locations are baseline, not noise).

Mutations are pure: each one deep-copies the repository (via its own
serialization round trip) or rebuilds the router, so a harness run
never contaminates the artifact it was handed.  CI runs the harness
through ``tools/lint_rule_families.py`` against the rule-sets induced
from all five site-generator families.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule
from repro.service.automaton import location_ineligibility
from repro.service.router import ClusterRouter
from repro.xpath.ast import (
    BinaryOp,
    FunctionCall,
    LocationPath,
    NodeTypeTest,
    NumberLiteral,
)
from repro.xpath.engine import compile_xpath

from repro.analysis.analyzer import (
    analyze_artifact,
    analyze_registry,
)
from repro.analysis.findings import Finding

__all__ = [
    "MUTATIONS",
    "Mutation",
    "MutationOutcome",
    "run_mutation",
    "verify_mutations",
]


@dataclass(frozen=True)
class Mutation:
    """One injectable defect class.

    Attributes:
        name: defect-class slug (stable; CI reports use it).
        code: the analyzer code that must fire, and the only one the
            mutation may introduce.
        description: what the injection does to the artifact.
    """

    name: str
    code: str
    description: str


@dataclass(frozen=True)
class MutationOutcome:
    """Result of injecting one defect class and re-linting."""

    mutation: Mutation
    introduced: Tuple[Finding, ...]   # findings absent from the baseline
    missing: Tuple[Finding, ...]      # baseline findings the mutant lost

    @property
    def fired(self) -> bool:
        """Whether the expected code is among the introduced findings."""
        return any(f.code == self.mutation.code for f in self.introduced)

    @property
    def spurious(self) -> Tuple[Finding, ...]:
        """Introduced findings of any *other* code (false positives)."""
        return tuple(
            f for f in self.introduced if f.code != self.mutation.code
        )

    @property
    def ok(self) -> bool:
        return self.fired and not self.spurious


# --------------------------------------------------------------------- #
# Rule surgery helpers
# --------------------------------------------------------------------- #


def _clone_repository(repository: RuleRepository) -> RuleRepository:
    """An independent deep copy, via the repository's own round trip."""
    return RuleRepository.from_dict(repository.to_dict())


def _rewrite_last_predicates(location: str, predicates: tuple) -> str:
    """``location`` with its final step's predicates replaced."""
    ast = compile_xpath(location).ast
    assert isinstance(ast, LocationPath) and ast.steps
    last = ast.steps[-1].with_predicates(predicates)
    return str(LocationPath(ast.absolute, (*ast.steps[:-1], last)))


def _eligible_rule(
    repository: RuleRepository,
    accept: Optional[Callable[[MappingRule], bool]] = None,
) -> Tuple[str, MappingRule]:
    """The first rule (cluster order) with an automaton-eligible primary.

    Mutations build on eligible child-axis locations so the mutant
    introduces exactly its own defect — an ineligible location would
    drag an RW301 along and muddy the false-positive check.
    """
    for cluster in repository.clusters():
        for rule in repository.rules(cluster):
            if location_ineligibility(
                compile_xpath(rule.primary_location)
            ) is not None:
                continue
            if accept is None or accept(rule):
                return cluster, rule
    raise LookupError(
        "no automaton-eligible rule to mutate; the harness needs a "
        "known-good rule-set"
    )


def _ends_in_literal_position(rule: MappingRule) -> bool:
    ast = compile_xpath(rule.primary_location).ast
    if not (isinstance(ast, LocationPath) and ast.steps):
        return False
    predicates = ast.steps[-1].predicates
    return len(predicates) == 1 and isinstance(predicates[0], NumberLiteral)


def _ends_in_text_step(rule: MappingRule) -> bool:
    ast = compile_xpath(rule.primary_location).ast
    if not (isinstance(ast, LocationPath) and ast.steps):
        return False
    test = ast.steps[-1].node_test
    return isinstance(test, NodeTypeTest) and test.node_type == "text"


# --------------------------------------------------------------------- #
# The injections
# --------------------------------------------------------------------- #


def _inject_unsatisfiable_predicate(repository, router):
    """RW101: the primary's final step gets a ``[0]`` predicate."""
    mutant = _clone_repository(repository)
    cluster, rule = _eligible_rule(mutant)
    location = _rewrite_last_predicates(
        rule.primary_location, (NumberLiteral(0),)
    )
    mutant.record(cluster, rule.with_primary_location(location))
    return mutant, router


def _inject_void_step(repository, router):
    """RW102: a child step appended after a ``text()`` leaf step."""
    mutant = _clone_repository(repository)
    cluster, rule = _eligible_rule(mutant, _ends_in_text_step)
    mutant.record(
        cluster,
        rule.with_primary_location(rule.primary_location + "/SPAN[1]"),
    )
    return mutant, router


def _inject_shadowed_alternative(repository, router):
    """RW201: an alternative spelling the primary already covers.

    ``.../text()[1]`` gains the alternative ``.../text()[position() =
    1]`` — not string-identical (so the rule's own dedup keeps it) but
    provably the same selection, which first-match semantics kill.
    """
    mutant = _clone_repository(repository)
    cluster, rule = _eligible_rule(mutant, _ends_in_literal_position)
    ast = compile_xpath(rule.primary_location).ast
    value = ast.steps[-1].predicates[0]
    shadowed = _rewrite_last_predicates(
        rule.primary_location,
        (BinaryOp("=", FunctionCall("position"), value),),
    )
    assert shadowed != rule.primary_location
    mutant.record(cluster, rule.with_alternative(shadowed))
    return mutant, router


def _inject_duplicate_location(repository, router):
    """RW202: a second component mapped to an existing rule's location."""
    mutant = _clone_repository(repository)
    cluster, rule = _eligible_rule(mutant)
    twin = rule.with_component(
        replace(rule.component, name=f"{rule.name}-twin")
    )
    mutant.record(cluster, twin)
    return mutant, router


def _inject_signature_collision(repository, router):
    """RW401: a second profile with an existing profile's exact payload."""
    assert router is not None and router.profiles, (
        "signature-collision mutation needs a fitted router"
    )
    source = router.profiles[0]
    twin = replace(source, name=f"{source.name}-twin")
    return repository, ClusterRouter(
        [*router.profiles, twin], threshold=router.threshold
    )


MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        "unsatisfiable-predicate", "RW101",
        "rewrite a primary location's final predicate to [0]",
    ),
    Mutation(
        "void-step", "RW102",
        "append a child step after a text() leaf step",
    ),
    Mutation(
        "shadowed-alternative", "RW201",
        "add an alternative that re-spells the primary location",
    ),
    Mutation(
        "duplicate-location", "RW202",
        "map a second component to an existing rule's location",
    ),
    Mutation(
        "signature-collision", "RW401",
        "clone a router profile's scoring payload under a new name",
    ),
    Mutation(
        "corrupted-artifact", "RW501",
        "flip a byte inside a published version's artifact file",
    ),
)

_INJECTORS = {
    "unsatisfiable-predicate": _inject_unsatisfiable_predicate,
    "void-step": _inject_void_step,
    "shadowed-alternative": _inject_shadowed_alternative,
    "duplicate-location": _inject_duplicate_location,
    "signature-collision": _inject_signature_collision,
}


# --------------------------------------------------------------------- #
# Running the harness
# --------------------------------------------------------------------- #


def _finding_set(findings: List[Finding]) -> set:
    return set(findings)


def _diff(
    mutation: Mutation,
    baseline: List[Finding],
    mutant: List[Finding],
) -> MutationOutcome:
    base = _finding_set(baseline)
    after = _finding_set(mutant)
    return MutationOutcome(
        mutation=mutation,
        introduced=tuple(sorted(
            after - base, key=lambda f: (f.code, f.rule, f.location)
        )),
        missing=tuple(sorted(
            base - after, key=lambda f: (f.code, f.rule, f.location)
        )),
    )


def _corrupt_version(registry, version: str) -> None:
    """Tamper one byte of the stored artifact (breaks its content hash)."""
    path = registry._version_dir(version) / "artifact.json"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-1] + ("}" if text[-1] != "}" else "]"),
                    encoding="utf-8")


def run_mutation(
    name: str,
    repository: RuleRepository,
    router: Optional[ClusterRouter],
    registry_root=None,
) -> MutationOutcome:
    """Inject defect class ``name`` and diff findings against baseline.

    Args:
        name: a :data:`MUTATIONS` slug.
        repository: the known-good rule-set (never modified).
        router: its fitted router (required by ``signature-collision``).
        registry_root: a *writable scratch directory* for the
            ``corrupted-artifact`` class, which publishes the artifact
            and then tampers with the stored bytes (other classes
            ignore it).

    Raises:
        KeyError: unknown mutation name.
    """
    mutation = next((m for m in MUTATIONS if m.name == name), None)
    if mutation is None:
        raise KeyError(
            f"unknown mutation {name!r}; pick one of "
            f"{', '.join(m.name for m in MUTATIONS)}"
        )
    if mutation.name == "corrupted-artifact":
        if registry_root is None:
            raise ValueError(
                "corrupted-artifact needs a scratch registry_root"
            )
        from repro.service.registry.store import ArtifactRegistry

        registry = ArtifactRegistry(registry_root)
        manifest = registry.publish(
            repository, router, source="import", allow_findings=True
        )
        baseline = analyze_registry(registry, [manifest.version])
        _corrupt_version(registry, manifest.version)
        mutant = analyze_registry(registry, [manifest.version])
        return _diff(mutation, baseline, mutant)
    baseline = analyze_artifact(repository, router)
    mutant_repo, mutant_router = _INJECTORS[mutation.name](
        repository, router
    )
    mutant = analyze_artifact(mutant_repo, mutant_router)
    return _diff(mutation, baseline, mutant)


def verify_mutations(
    repository: RuleRepository,
    router: Optional[ClusterRouter],
    registry_root=None,
) -> List[MutationOutcome]:
    """Run every defect class; outcomes in :data:`MUTATIONS` order."""
    return [
        run_mutation(m.name, repository, router, registry_root)
        for m in MUTATIONS
    ]
