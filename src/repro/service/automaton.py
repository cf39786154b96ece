"""Single-pass extraction automaton: one DOM walk feeds every rule.

A :class:`~repro.service.compiler.CompiledWrapper` compiles **all**
eligible locations of a cluster — primaries *and* alternatives, across
every rule — into one deterministic tree automaton:

* **States** form a trie over location steps: locations sharing a
  step prefix share the states for that prefix, so the shared work is
  done once per page no matter how many rules ride on it.
* **Transitions** are per-state dispatch tables keyed by what the DOM
  offers cheaply during a scan: a ``tag -> targets`` dict for named
  element tests plus optional ``*``/``text()``/``comment()``/
  ``node()`` target lists.  Each target carries the step's positional
  constraint (``TR[2]``-style) or "every match", and a target state
  reached through a label-anchored step carries its anchor.  A bare
  ``//`` is an epsilon edge into a state that stays live on every
  descendant (a self-loop).
* **Accepting states** emit into *slots*: each compiled location owns
  one slot, and :meth:`ExtractionAutomaton.scan` returns the matched
  nodes per slot after a single traversal.

Eligibility grammar — a *relative*, non-empty location path whose
every step is one of::

    child::test                          every match
    child::test[N]                       N a number literal
    child::test[position() op N]         op in = != < <= > >= (either order)
    child::test[ANCHOR]                  the paper's label anchor
    descendant-or-self::node()           the bare // step

    test    := NAME | * | text() | comment() | node()
               | processing-instruction()
    ANCHOR  := normalize-space(NEAREST) = "literal"
             | contains(normalize-space(NEAREST), "literal")
    NEAREST := preceding::text()[normalize-space(.) != ""][1]

Every positional form compiles to ``(lo, hi, ne)`` index bounds
checked against per-parent sibling counters.  Anything else (absolute
paths, filter expressions, other axes, value predicates, a
``following::`` anchor, a second predicate) stays on the generic
evaluator; :func:`location_ineligibility` names the reason.

One walk, byte-identical to the generic evaluator: :meth:`scan`
visits the context's subtree in preorder (document order) and carries
the set of states each node reached.  A child step's target is reached
from its parent state on the node's parent, under the same sibling
counters the evaluator's per-parent predicate filter uses; a ``//``
state is reached on a node and on all its descendants, which is
``descendant-or-self::node()``.  Descent skips children that reached
no state at all, unless the automaton has label states.  The anchor's
``NEAREST`` is the closest non-blank text node before the node in
document order: text nodes are never ancestors, so that is the last
text node with non-empty ``" ".join(data.split())`` (the
``normalize-space`` normalisation) the walk has passed, seeded from the
text before the context node; an empty axis normalises to ``""``.
Reached-state sets hold each state once and every slot has one
accepting state, so a node is emitted at most once per slot, and
visits come in document order — the evaluator's node-set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.dom.node import Element, Text
from repro.xpath.ast import (
    DESCENDANT_OR_SELF_STEP,
    BinaryOp,
    FunctionCall,
    LocationPath,
    NameTest,
    NumberLiteral,
    Step,
    StringLiteral,
    is_position_call,
)
from repro.xpath.engine import XPath
from repro.xpath.parser import parse_xpath

__all__ = [
    "AutomatonStats",
    "ExtractionAutomaton",
    "automaton_steps",
    "label_anchor",
    "location_ineligibility",
    "step_constraint",
    "step_ineligibility",
]

#: "No upper bound" for a positional constraint (sibling counts are
#: tiny; any unreachable integer works).
_UNBOUNDED = sys.maxsize

#: Flipped comparison for ``literal op position()`` operand order.
_FLIP = {">=": "<=", ">": "<", "<=": ">=", "<": ">", "=": "=", "!=": "!="}

_NEAREST = 'text()[normalize-space(.) != ""][1]'

#: The label anchor's left operand (Section 3.4): the nearest non-blank
#: text before the context node, whitespace-normalised.
_NEAREST_PRECEDING = FunctionCall(
    "normalize-space", (parse_xpath(f"preceding::{_NEAREST}"),)
)
_NEAREST_FOLLOWING = FunctionCall(
    "normalize-space", (parse_xpath(f"following::{_NEAREST}"),)
)


def _range_constraint(op: str, value: float) -> Optional[Tuple[int, int, int]]:
    """Bounds for ``position() op value``, or ``None`` when unsupported."""
    if math.isinf(value):  # a literal too long for a float
        value = math.copysign(_UNBOUNDED, value)
    if value != value:  # NaN: every comparison but != is false
        if op == "!=":
            return (1, _UNBOUNDED, 0)
        return (1, 0, 0)
    if op == ">=":
        return (max(1, math.ceil(value)), _UNBOUNDED, 0)
    if op == ">":
        return (max(1, math.floor(value) + 1), _UNBOUNDED, 0)
    if op == "<=":
        return (1, math.floor(value), 0)
    if op == "<":
        return (1, math.ceil(value) - 1, 0)
    if op == "=":
        if value != int(value) or value < 1:
            return (1, 0, 0)
        return (int(value), int(value), 0)
    if op == "!=":
        if value != int(value):
            return (1, _UNBOUNDED, 0)
        return (1, _UNBOUNDED, int(value))
    return None


def step_constraint(step: Step) -> Optional[Tuple[int, int, int]]:
    """A positional child step's constraint as ``(lo, hi, ne)``, or ``None``.

    ``None`` means the step is not a ``child`` step with at most one
    positional predicate.  Otherwise a child node at 1-based position
    ``i`` among its test-matching siblings matches iff ``lo <= i <= hi
    and i != ne`` (``ne`` is 0 — never a real position — when there is
    no exclusion).  Provably void constraints (``TD[0]``, ``position()
    = 1.5``) come back with ``hi < lo`` and compile to no transition at
    all, mirroring the generic evaluator selecting nothing.
    """
    if step.axis != "child":
        return None
    if not step.predicates:
        return (1, _UNBOUNDED, 0)
    if len(step.predicates) != 1:
        return None
    predicate = step.predicates[0]
    if isinstance(predicate, NumberLiteral):
        return _range_constraint("=", predicate.value)
    if isinstance(predicate, BinaryOp):
        if is_position_call(predicate.left) and isinstance(
            predicate.right, NumberLiteral
        ):
            return _range_constraint(predicate.op, predicate.right.value)
        if is_position_call(predicate.right) and isinstance(
            predicate.left, NumberLiteral
        ):
            flipped = _FLIP.get(predicate.op)
            if flipped is None:
                return None
            return _range_constraint(flipped, predicate.left.value)
    return None


def _anchor_parts(predicate) -> Optional[tuple]:
    """``(nearest, literal, contains)`` of an anchor-shaped predicate."""
    if isinstance(predicate, BinaryOp) and predicate.op == "=":
        return predicate.left, predicate.right, False
    if (
        isinstance(predicate, FunctionCall)
        and predicate.name == "contains"
        and len(predicate.args) == 2
    ):
        return predicate.args[0], predicate.args[1], True
    return None


def label_anchor(predicate) -> Optional[Tuple[str, bool]]:
    """``(literal, contains)`` for the paper's label anchor, else ``None``.

    Matches exactly ``normalize-space(NEAREST) = "literal"`` and
    ``contains(normalize-space(NEAREST), "literal")`` with ``NEAREST``
    the ``preceding::`` form of the module grammar.
    """
    parts = _anchor_parts(predicate)
    if parts is None:
        return None
    nearest, literal, contains = parts
    if nearest == _NEAREST_PRECEDING and isinstance(literal, StringLiteral):
        return literal.value, contains
    return None


#: Comparison operators :func:`_range_constraint` can turn into index
#: bounds; anything else on a ``position()`` predicate is ineligible.
_SUPPORTED_OPS = frozenset(_FLIP)


def step_ineligibility(step: Step) -> Optional[str]:
    """Why ``step`` cannot ride the automaton, or ``None`` if it can.

    Returns ``None`` precisely for the steps of the module grammar, and
    otherwise a one-line human reason (surfaced verbatim by the
    ``RW301`` analyzer finding in :mod:`repro.analysis`).
    """
    if step.axis == "descendant-or-self":
        if step == DESCENDANT_OR_SELF_STEP:
            return None
        return (
            "descendant-or-self:: rides the scan only as the bare // "
            "step"
        )
    if step.axis != "child":
        return (
            f"axis {step.axis}:: re-anchors the scan and needs the "
            "generic evaluator"
        )
    if len(step.predicates) > 1:
        return "more than one predicate on a single step"
    if not step.predicates:
        return None
    predicate = step.predicates[0]
    if isinstance(predicate, NumberLiteral):
        return None
    if isinstance(predicate, BinaryOp):
        sides = (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        )
        for position_side, literal_side in sides:
            if is_position_call(position_side):
                if not isinstance(literal_side, NumberLiteral):
                    return (
                        "position() compared against a non-literal "
                        "expression"
                    )
                if predicate.op not in _SUPPORTED_OPS:
                    return (
                        f"operator {predicate.op!r} on position() has no "
                        "index-bound form"
                    )
                return None
    parts = _anchor_parts(predicate)
    if parts is not None:
        nearest, literal, _ = parts
        if nearest == _NEAREST_PRECEDING:
            if isinstance(literal, StringLiteral):
                return None
            return "label anchor compared against a non-literal expression"
        if nearest == _NEAREST_FOLLOWING:
            return (
                "following:: label anchor needs text the one-pass scan "
                "has not reached yet"
            )
    return (
        "predicate is neither positional nor a preceding:: label anchor "
        "(value tests need the generic evaluator)"
    )


def location_ineligibility(xpath: XPath) -> Optional[str]:
    """Why a location cannot ride the automaton, or ``None`` if it can.

    The exact complement of :func:`automaton_steps`: ``None`` is
    returned precisely for the locations that compile into the
    single-pass scan.
    """
    ast = xpath.ast
    if not isinstance(ast, LocationPath):
        return "not a location path (filter expressions re-anchor the context)"
    if ast.absolute:
        return "absolute path re-anchors at the document root"
    if not ast.steps:
        return "empty location path selects only the context node"
    for index, step in enumerate(ast.steps, start=1):
        reason = step_ineligibility(step)
        if reason is not None:
            return f"step {index} ({step}): {reason}"
    return None


def automaton_steps(xpath: XPath) -> Optional[Tuple[Step, ...]]:
    """The step tuple of an automaton-eligible location, or ``None``.

    :func:`location_ineligibility` names the disqualifying shape.
    """
    if location_ineligibility(xpath) is not None:
        return None
    return xpath.ast.steps


class _State:
    """One automaton state: dispatch tables plus emitted slots.

    Transition lists hold ``(lo, hi, ne, target)`` entries — the
    :func:`step_constraint` bounds on the child's 1-based position
    among *test-matching* siblings, exactly the semantics of the
    generic evaluator's per-parent predicate filtering.
    """

    __slots__ = (
        "by_tag", "star", "text", "comment", "node", "descend",
        "emits", "alive", "children", "loop", "anchor", "closure",
    )

    def __init__(self) -> None:
        self.by_tag: dict = {}
        self.star: Optional[list] = None
        self.text: Optional[list] = None
        self.comment: Optional[list] = None
        self.node: Optional[list] = None
        #: Target of this state's ``//`` step (an epsilon edge).
        self.descend: Optional[_State] = None
        self.emits: list = []
        self.alive = False
        #: step -> child state (trie structure, build time only).
        self.children: dict = {}
        #: Reached through ``//``: stays live on every descendant.
        self.loop = False
        #: ``(literal, contains)`` when reached through a label-anchored
        #: step: checked against the current label on arrival.
        self.anchor: Optional[Tuple[str, bool]] = None
        #: This state plus the states its ``//`` edges reach at once.
        self.closure: tuple = ()


@dataclass(frozen=True)
class AutomatonStats:
    """Sharing accounting for one compiled automaton."""

    slots: int           # locations riding the single-pass scan
    states: int          # distinct states (excluding the root)
    transitions: int     # transition entries across all dispatch tables
    location_steps: int  # total steps across the compiled locations

    @property
    def steps_saved(self) -> int:
        """Steps per page deduplicated versus per-location evaluation."""
        return self.location_steps - self.transitions


class ExtractionAutomaton:
    """A cluster's eligible locations compiled for one-pass scanning.

    Built from ``(slot, steps)`` pairs — one slot per location — and
    immutable afterwards; :meth:`scan` mutates no automaton state, so
    a compiled instance is thread-safe to share across workers.
    """

    __slots__ = ("_root", "_labels", "slot_count", "stats")

    def __init__(
        self, locations: Iterable[Tuple[int, Tuple[Step, ...]]]
    ) -> None:
        root = _State()
        slot_count = 0
        location_steps = 0
        for slot, steps in locations:
            if slot >= slot_count:
                slot_count = slot + 1
            location_steps += len(steps)
            state = root
            for step in steps:
                state = self._extend(state, step)
            state.emits.append(slot)
        states = 0
        transitions = 0
        labels = False
        stack = [root]
        while stack:
            state = stack.pop()
            for table in (state.star, state.text, state.comment, state.node):
                if table is not None:
                    transitions += len(table)
            for targets in state.by_tag.values():
                transitions += len(targets)
            if state.descend is not None:
                transitions += 1
            state.alive = bool(
                state.by_tag or state.star is not None
                or state.text is not None or state.comment is not None
                or state.node is not None or state.descend is not None
            )
            closure = [state]
            while closure[-1].descend is not None:
                closure.append(closure[-1].descend)
            state.closure = tuple(closure)
            labels = labels or state.anchor is not None
            children = list(state.children.values())
            states += len(children)
            stack.extend(children)
        self._root = root
        #: Any label state: carry the nearest preceding label.
        self._labels = labels
        self.slot_count = slot_count
        self.stats = AutomatonStats(
            slots=slot_count,
            states=states,
            transitions=transitions,
            location_steps=location_steps,
        )

    @staticmethod
    def _extend(state: _State, step: Step) -> _State:
        """The child state for ``step``, wiring its transition once."""
        child = state.children.get(step)
        if child is not None:
            return child
        child = _State()
        state.children[step] = child
        if step.axis == "descendant-or-self":
            child.loop = True
            state.descend = child
            return child
        constraint = step_constraint(step)
        if constraint is None:
            # The label anchor: a position-free filter on arrival.
            child.anchor = label_anchor(step.predicates[0])
            constraint = (1, _UNBOUNDED, 0)
        lo, hi, ne = constraint
        if hi < lo:
            # Provably void (``TD[0]``, ``position() = 1.5``): the
            # state exists for trie sharing but no transition ever
            # reaches it, same as the evaluator selecting nothing.
            return child
        test = step.node_test
        entry = (lo, hi, ne, child)
        if isinstance(test, NameTest):
            if test.name == "*":
                if state.star is None:
                    state.star = []
                state.star.append(entry)
            else:
                # Interned to match the DOM arena: the scan's dict
                # lookups then hit on pointer identity.
                tag = sys.intern(test.name.upper())
                state.by_tag.setdefault(tag, []).append(entry)
        elif test.node_type == "text":
            if state.text is None:
                state.text = []
            state.text.append(entry)
        elif test.node_type == "comment":
            if state.comment is None:
                state.comment = []
            state.comment.append(entry)
        elif test.node_type == "node":
            if state.node is None:
                state.node = []
            state.node.append(entry)
        # Any other node test (processing-instruction) matches nothing
        # in this DOM, mirroring the generic evaluator.
        return child

    # -- hot path -------------------------------------------------------- #

    def scan(self, context: Element) -> list:
        """One preorder traversal of ``context``; matched nodes per slot.

        Per-parent counters track position among test-matching
        siblings (per tag for named tests, elements for ``*``, node
        kinds for the type tests), so positional constraints are
        direct integer comparisons.  Descent follows only children that
        reached some state (or, in a label automaton, every child:
        its text may be a later node's label).

        A stack entry is ``(node, reached, anchored)``: the states the
        node reached through unanchored steps (and ``//`` self-loops),
        plus the label-anchored targets whose anchor is checked when
        the node is visited — only then is the label the text that
        precedes it.
        """
        results: list = [[] for _ in range(self.slot_count)]
        if not self._root.alive:
            return results
        labels = self._labels
        label = _label_before(context) if labels else ""
        stack = [(context, self._root.closure, None)]
        pop = stack.pop
        while stack:
            node, reached, anchored = pop()
            if anchored is not None:
                reached = list(reached)
                for target in anchored:
                    literal, contains = target.anchor
                    if (literal in label) if contains else (label == literal):
                        _reach(reached, target)
            for state in reached:
                for slot in state.emits:
                    results[slot].append(node)
            if isinstance(node, Text):
                if labels:
                    text = " ".join(node.data.split())
                    if text:
                        label = text
                continue
            children = node.children
            if not children:
                continue
            loops = [state for state in reached if state.loop]
            tag_counts: dict = {}
            elem_count = 0
            text_count = 0
            comment_count = 0
            node_count = 0
            visits = []
            for child in children:
                node_count += 1
                nxt = loops
                pending = None
                if isinstance(child, Element):
                    elem_count += 1
                    tag = child.tag
                    count = tag_counts.get(tag, 0) + 1
                    tag_counts[tag] = count
                    for state in reached:
                        targets = state.by_tag.get(tag)
                        if targets is not None:
                            nxt, pending = _fire(
                                targets, count, loops, nxt, pending
                            )
                        if state.star is not None:
                            nxt, pending = _fire(
                                state.star, elem_count, loops, nxt, pending
                            )
                        if state.node is not None:
                            nxt, pending = _fire(
                                state.node, node_count, loops, nxt, pending
                            )
                elif isinstance(child, Text):
                    text_count += 1
                    for state in reached:
                        if state.text is not None:
                            nxt, pending = _fire(
                                state.text, text_count, loops, nxt, pending
                            )
                        if state.node is not None:
                            nxt, pending = _fire(
                                state.node, node_count, loops, nxt, pending
                            )
                else:
                    comment_count += 1
                    for state in reached:
                        if state.comment is not None:
                            nxt, pending = _fire(
                                state.comment, comment_count, loops, nxt,
                                pending,
                            )
                        if state.node is not None:
                            nxt, pending = _fire(
                                state.node, node_count, loops, nxt, pending
                            )
                if nxt or pending is not None or labels:
                    visits.append((child, nxt, pending))
            visits.reverse()
            stack.extend(visits)
        return results


def _reach(reached: list, target: _State) -> None:
    """Add ``target`` and its ``//`` closure to ``reached``, once each."""
    for state in target.closure:
        if state not in reached:
            reached.append(state)


def _fire(targets: list, position: int, loops: list, nxt: list, pending):
    """Apply one dispatch list to a child at ``position``.

    Unanchored targets join ``nxt`` (copied off the shared ``loops``
    list on first write); anchored ones wait in ``pending`` for the
    child's visit.  Returns the updated ``(nxt, pending)``.
    """
    for lo, hi, ne, target in targets:
        if lo <= position <= hi and position != ne:
            if target.anchor is not None:
                if pending is None:
                    pending = [target]
                else:
                    pending.append(target)
            else:
                if nxt is loops:
                    nxt = list(loops)
                _reach(nxt, target)
    return nxt, pending


def _label_before(context) -> str:
    """The normalised nearest non-blank text before ``context``, or ``""``."""
    for node in context.preceding():
        if isinstance(node, Text):
            text = " ".join(node.data.split())
            if text:
                return text
    return ""
