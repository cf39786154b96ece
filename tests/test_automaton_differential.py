"""Differential properties: the single-pass automaton equals the evaluator.

Hypothesis generates DOMs with the shapes that make the automaton's
``//`` and label-anchor states delicate — same-tag containers nested in
each other, repeated labels, blank, NBSP-only and empty text, comments,
text before ``BODY`` (and before ``HTML``), deep nesting — and
locations mixing child steps (with and without positional predicates),
``//`` and label anchors on leaves and on containers.  For every
location :func:`automaton_steps` accepts, :meth:`ExtractionAutomaton.scan`
must return the very nodes :meth:`XPath.select` returns, by identity and
in order; one automaton holding every generated location at once must
agree slot by slot.  A second property pins the generic evaluator's
early stop (``axis::test[filter][N]``) to its full evaluation.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dom.node import Comment, Document, Element, Text
from repro.service.automaton import (
    ExtractionAutomaton,
    automaton_steps,
    label_anchor,
    location_ineligibility,
)
from repro.xpath.engine import compile_xpath

# ----------------------------------------------------------------------- #
# Strategies
# ----------------------------------------------------------------------- #

_TAGS = ["UL", "LI", "SPAN"]
_LABELS = ["Price:", "By:"]
_TEXTS = _LABELS * 3 + [
    "", " ", "\n\t ", "\xa0", "\xa0By:\xa0", "  Price:\n", "x", "42",
    "Price: 42", "Old \n price:",
]

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _subtree(draw, depth: int):
    kind = draw(st.sampled_from(
        ["text", "text", "comment", "element", "element", "element",
         "element"]
        if depth < 4 else ["text", "text", "comment"]
    ))
    if kind == "text":
        return Text(draw(st.sampled_from(_TEXTS)))
    if kind == "comment":
        return Comment(draw(st.sampled_from(["note", "Price:"])))
    element = Element(draw(st.sampled_from(_TAGS)))
    for child in draw(st.lists(_subtree(depth + 1), max_size=4)):
        element.append_child(child)
    return element


@st.composite
def documents(draw):
    """``Document > [text] HTML > [text, HEAD] BODY`` with random content."""
    document = Document(url="http://generated/")
    if draw(st.booleans()):
        document.append_child(Text(draw(st.sampled_from(_TEXTS))))
    html = document.append_child(Element("HTML"))
    if draw(st.booleans()):
        html.append_child(Text(draw(st.sampled_from(_TEXTS))))
    if draw(st.booleans()):
        head = html.append_child(Element("HEAD"))
        head.append_child(Text(draw(st.sampled_from(_LABELS))))
    body = html.append_child(Element("BODY"))
    for child in draw(st.lists(_subtree(0), min_size=1, max_size=6)):
        body.append_child(child)
    # Deep nesting: a chain of DIVs around a further subtree.
    chain = draw(st.integers(min_value=0, max_value=40))
    if chain:
        parent = body
        for _ in range(chain):
            parent = parent.append_child(Element("DIV"))
        parent.append_child(draw(_subtree(2)))
    return document


def _anchor(draw) -> str:
    label = draw(st.sampled_from(_LABELS * 2 + ["", "Price", "Old price:"]))
    nearest = 'preceding::text()[normalize-space(.) != ""][1]'
    if draw(st.booleans()):
        return f'[contains(normalize-space({nearest}), "{label}")]'
    return f'[normalize-space({nearest}) = "{label}"]'


@st.composite
def _step(draw) -> str:
    test = draw(st.sampled_from(
        _TAGS + ["*", "text()", "node()", "comment()"]
    ))
    predicate = draw(st.sampled_from(
        ["", "", "", "[1]", "[2]", "[position() >= 2]", "[position() != 1]",
         "anchor", "anchor", "anchor"]
    ))
    if predicate == "anchor":
        predicate = _anchor(draw)
    return test + predicate


@st.composite
def locations(draw) -> str:
    """A relative location: child steps, ``//`` and label anchors."""
    tag = draw(st.sampled_from(_TAGS + ["*"]))
    shape = draw(st.sampled_from(["leaf", "container", "mixed", "mixed"]))
    # From a BODY context only the relative // form reaches anything.
    prefix = draw(st.sampled_from(["BODY//", "descendant-or-self::node()/"]))
    if shape == "leaf":  # the paper's Figure 4 form
        return f"{prefix}{tag}/text(){_anchor(draw)}"
    if shape == "container":  # the multivalued (Section 3.4) form
        return f"{prefix}{tag}{_anchor(draw)}/LI/text()[1]"
    parts = [draw(st.sampled_from(
        ["BODY", "BODY", "BODY[1]", "*", "HEAD", "descendant-or-self::node()"]
    ))]
    for _ in range(draw(st.sampled_from([1, 1, 2, 2, 3]))):
        joint = draw(st.sampled_from(
            ["/", "//", "//", "/descendant-or-self::node()/"]
        ))
        parts.append(joint + draw(_step()))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        parts.append("/descendant-or-self::node()")
    return "".join(parts)


def _contexts(document):
    """HTML, BODY and BODY's first element: the label seeds differ."""
    html = document.document_element
    body = html.children[-1]
    inner = [child for child in body.children if isinstance(child, Element)]
    return [html, body, *inner[:1]]


def _same_nodes(actual, expected) -> bool:
    return len(actual) == len(expected) and all(
        a is b for a, b in zip(actual, expected)
    )


# ----------------------------------------------------------------------- #
# Properties
# ----------------------------------------------------------------------- #


@given(documents(), st.lists(locations(), min_size=1, max_size=5))
@_SETTINGS
def test_scan_equals_select(document, sources):
    xpaths = [compile_xpath(source) for source in sources]
    eligible = [x for x in xpaths if automaton_steps(x) is not None]
    # One automaton per location, and one over all of them (shared
    # prefixes, child-only and // or label states): every slot must agree.
    together = ExtractionAutomaton(
        (slot, automaton_steps(x)) for slot, x in enumerate(eligible)
    )
    for context in _contexts(document):
        hits = together.scan(context)
        for slot, xpath in enumerate(eligible):
            expected = xpath.select(context)
            alone = ExtractionAutomaton([(0, automaton_steps(xpath))])
            assert _same_nodes(alone.scan(context)[0], expected), xpath.source
            assert _same_nodes(hits[slot], expected), xpath.source


@given(
    documents(),
    st.sampled_from([
        "preceding", "following", "ancestor", "descendant",
        "preceding-sibling", "following-sibling",
    ]),
    st.sampled_from(["text()", "node()", "*", "SPAN"]),
    st.sampled_from(["", '[normalize-space(.) != ""]', "[LI]"]),
    st.sampled_from(["1", "2", "3", "1.5", "0"]),
)
@_SETTINGS
def test_early_stop_equals_full_evaluation(document, axis, test, filters, n):
    # ``[position() = N or false()]`` keeps the same nodes but is not a
    # stop-early shape, so it takes the evaluator's full-list path.
    fast = compile_xpath(f"BODY//*/{axis}::{test}{filters}[{n}]")
    full = compile_xpath(
        f"BODY//*/{axis}::{test}{filters}[position() = {n} or false()]"
    )
    for context in _contexts(document):
        assert _same_nodes(fast.select(context), full.select(context))


# ----------------------------------------------------------------------- #
# Eligibility boundaries
# ----------------------------------------------------------------------- #

NEAREST = 'preceding::text()[normalize-space(.) != ""][1]'


def test_label_anchor_matches_both_paper_forms():
    equal = compile_xpath(f'T[normalize-space({NEAREST}) = "Price:"]')
    contains = compile_xpath(
        f'T[contains(normalize-space({NEAREST}), "Price")]'
    )
    assert label_anchor(equal.ast.steps[0].predicates[0]) == ("Price:", False)
    assert label_anchor(contains.ast.steps[0].predicates[0]) == (
        "Price", True
    )


def test_anchor_with_a_second_predicate_is_rejected_with_a_reason():
    xpath = compile_xpath(
        f'BODY//SPAN/text()[normalize-space({NEAREST}) = "Price:"][1]'
    )
    assert automaton_steps(xpath) is None
    assert "more than one predicate" in location_ineligibility(xpath)


def test_following_anchor_is_rejected_with_a_reason():
    following = NEAREST.replace("preceding::", "following::")
    xpath = compile_xpath(
        f'BODY//SPAN/text()[normalize-space({following}) = "Price:"]'
    )
    assert automaton_steps(xpath) is None
    assert "following::" in location_ineligibility(xpath)


def test_non_literal_anchor_and_other_descendant_steps_are_rejected():
    for source in [
        f"BODY//SPAN[normalize-space({NEAREST}) = string(.)]",
        'BODY//SPAN[normalize-space(preceding::text()[1]) = "x"]',
        "BODY/descendant-or-self::DIV/SPAN",
        "BODY/descendant-or-self::node()[1]/SPAN",
    ]:
        xpath = compile_xpath(source)
        assert automaton_steps(xpath) is None, source
        assert location_ineligibility(xpath), source
