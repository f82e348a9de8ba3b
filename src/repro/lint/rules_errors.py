"""Error-handling rules: no silently swallowed exceptions.

The runtime fails loudly and locally: a handler either recovers with
real code, records what it caught, or re-raises.  A handler whose body
does nothing hides a wrong branch, a corrupt file or a dead code path
behind a result that looks normal.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import ModuleContext, Project, Rule, display_path

__all__ = ["RULES", "NoSilentExceptRule"]


def _does_nothing(statement: ast.stmt) -> bool:
    """Whether ``statement`` is ``pass``, ``continue`` or ``...``."""
    if isinstance(statement, (ast.Pass, ast.Continue)):
        return True
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and statement.value.value is Ellipsis
    )


class NoSilentExceptRule(Rule):
    """An ``except`` handler must do something with what it caught.

    Flags every handler whose body is only ``pass``, ``continue`` or
    ``...``.  Choose the path by an explicit test of the inputs, warn or
    count what was skipped, or let the exception propagate.
    """

    id = "no-silent-except"
    summary = (
        "no except handler whose body is only pass, continue or ...; "
        "test the inputs, record the skip, or let it raise"
    )

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        path = display_path(module.path)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and all(
                _does_nothing(statement) for statement in node.body
            ):
                caught = ast.unparse(node.type) if node.type else "everything"
                yield Finding(
                    path,
                    node.lineno,
                    self.id,
                    f"except handler for {caught} swallows it silently",
                )


RULES: Tuple[Rule, ...] = (NoSilentExceptRule(),)
