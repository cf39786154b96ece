"""Typed AST for XPath 1.0 expressions.

Every node knows how to render itself back to XPath source
(``__str__``), which the mapping-rule machinery uses when it *rewrites*
locations during refinement (e.g. replacing a position predicate with a
contextual predicate, or broadening ``TR[6]`` to ``TR[position()>=1]``
— Section 3.4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# --------------------------------------------------------------------- #
# Node tests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class NameTest:
    """``DIV`` or ``*`` — matches principal-axis nodes by name."""

    name: str  # "*" for wildcard

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NodeTypeTest:
    """``text()``, ``node()`` or ``comment()``."""

    node_type: str  # "text" | "node" | "comment"

    def __str__(self) -> str:
        return f"{self.node_type}()"


NodeTest = Union[NameTest, NodeTypeTest]

# --------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------- #


class Expr:
    """Marker base class for expression AST nodes."""


@dataclass(frozen=True)
class NumberLiteral(Expr):
    value: float

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class StringLiteral(Expr):
    value: str

    def __str__(self) -> str:
        if '"' not in self.value:
            return f'"{self.value}"'
        return f"'{self.value}'"


@dataclass(frozen=True)
class VariableRef(Expr):
    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def is_position_call(expr: Expr) -> bool:
    """True for a bare ``position()`` call."""
    return (
        isinstance(expr, FunctionCall)
        and expr.name == "position"
        and not expr.args
    )


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Any infix operation: or/and/=/!=/</<=/>/>=/+/-/*/div/mod/|."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        if self.op == "|":
            return f"{self.left} | {self.right}"
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class UnaryMinus(Expr):
    operand: Expr

    def __str__(self) -> str:
        return f"-{self.operand}"


# --------------------------------------------------------------------- #
# Paths
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Step:
    """One location step: ``axis::node-test[pred1][pred2]...``.

    ``__str__`` uses abbreviated syntax where it exists (``child::`` is
    dropped, ``attribute::`` becomes ``@``, ``self::node()`` becomes
    ``.``), matching how the paper prints its rules.
    """

    axis: str
    node_test: NodeTest
    predicates: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        if self.axis == "child":
            base = str(self.node_test)
        elif self.axis == "attribute":
            base = f"@{self.node_test}"
        elif (
            self.axis == "self"
            and isinstance(self.node_test, NodeTypeTest)
            and self.node_test.node_type == "node"
            and not self.predicates
        ):
            return "."
        elif (
            self.axis == "parent"
            and isinstance(self.node_test, NodeTypeTest)
            and self.node_test.node_type == "node"
            and not self.predicates
        ):
            return ".."
        else:
            base = f"{self.axis}::{self.node_test}"
        return base + preds

    def with_predicates(self, predicates: tuple[Expr, ...]) -> "Step":
        """A copy of this step with ``predicates`` replacing the current ones."""
        return Step(self.axis, self.node_test, predicates)


#: Sentinel axis value marking an abbreviated ``//`` between steps; the
#: parser expands it into a ``descendant-or-self::node()`` step.
DESCENDANT_OR_SELF_STEP = Step("descendant-or-self", NodeTypeTest("node"))


@dataclass(frozen=True)
class LocationPath(Expr):
    """``/a/b[1]//c`` — ``absolute`` means it starts at the document root."""

    absolute: bool
    steps: tuple[Step, ...]

    def __str__(self) -> str:
        if not self.steps:
            return "/" if self.absolute else "."
        rendered: list[str] = []
        for index, step in enumerate(self.steps):
            if (
                step.axis == "descendant-or-self"
                and isinstance(step.node_test, NodeTypeTest)
                and step.node_test.node_type == "node"
                and not step.predicates
            ):
                # Abbreviated `//`: emitted as a separator before the
                # next step, so "a//b" round-trips.
                rendered.append("" if index == 0 else "")
                rendered.append("//")
                continue
            if rendered and rendered[-1] != "//":
                rendered.append("/")
            rendered.append(str(step))
        text = "".join(rendered)
        if self.absolute:
            if text.startswith("//"):
                return text
            return "/" + text
        return text


@dataclass(frozen=True)
class FilterPath(Expr):
    """A filter expression with optional trailing path.

    Covers grammar productions like ``(...)[2]/following::text()`` or
    ``string(.)`` used as a path prefix.
    """

    primary: Expr
    predicates: tuple[Expr, ...] = ()
    steps: tuple[Step, ...] = ()
    # Separator before first trailing step: "/" or "//".
    descendant_join: bool = False

    def __str__(self) -> str:
        text = str(self.primary)
        if isinstance(self.primary, (BinaryOp, UnaryMinus)):
            text = f"({text})"
        text += "".join(f"[{p}]" for p in self.predicates)
        if self.steps:
            joiner = "//" if self.descendant_join else "/"
            text += joiner + "/".join(str(s) for s in self.steps)
        return text
