"""Error-handling rules: no silently swallowed exceptions, one writer.

The runtime fails loudly and locally: a handler either recovers with
real code, records what it caught, or re-raises.  A handler whose body
does nothing hides a wrong branch, a corrupt file or a dead code path
behind a result that looks normal.  Likewise a write that fails half
way must not take the previous file with it, so every file is written
through the one writer that cannot.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    ModuleContext,
    Project,
    Rule,
    display_path,
    dotted_name,
    iter_functions,
    string_constant,
)

__all__ = ["RULES", "NoSilentExceptRule", "OneWriterRule"]


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


class OneWriterRule(Rule):
    """Files are written only through ``obs/envelope.py``'s ``replace_file``.

    Flags every ``write_text`` / ``write_bytes`` call, every ``open``
    with a writing mode (``w``, ``x``, ``a`` or ``+``; the builtin,
    ``io.open`` and ``Path.open`` alike) and every ``os.replace`` /
    ``os.rename`` outside the body of that writer.  A file truncated in
    place is lost if the write is interrupted, and on ext4 truncating
    or renaming over a file makes its next rewrite wait on the disk.
    """

    id = "one-writer"
    summary = (
        "files are written only through obs/envelope.py's replace_file(), "
        "which never truncates or renames over a live file"
    )

    #: The module and the one function allowed to write files.
    writer = ("obs/envelope.py", "replace_file")
    renames = ("os.replace", "os.rename")

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        allowed: Set[ast.AST] = set()
        if module.relpath == self.writer[0]:
            for func in iter_functions(module.tree):
                if func.name == self.writer[1]:
                    allowed.update(ast.walk(func))
        path = display_path(module.path)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or node in allowed:
                continue
            what = self._writes(node)
            if what is not None:
                yield Finding(
                    path,
                    node.lineno,
                    self.id,
                    f"{what} writes a file outside replace_file(); write "
                    "it through repro.obs.envelope.replace_file so an "
                    "interrupted write keeps the old file",
                )

    def _writes(self, call: ast.Call) -> Optional[str]:
        """How ``call`` writes a file, or ``None`` if it does not."""
        func = call.func
        name = dotted_name(func)
        if name in self.renames:
            return f"{name}(...)"
        if not isinstance(func, (ast.Name, ast.Attribute)):
            return None
        attr = func.id if isinstance(func, ast.Name) else func.attr
        if attr in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            return f".{attr}(...)"
        if attr != "open" or name == "os.open":
            return None
        # open(file, mode) and io.open(file, mode); path.open(mode).
        position = 1 if name in ("open", "io.open", "builtins.open") else 0
        mode: Optional[str] = None
        if len(call.args) > position:
            mode = string_constant(call.args[position])
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = string_constant(keyword.value)
        if mode is not None and set(mode) & set("wxa+"):
            return f"{name or 'open'}(..., {mode!r})"
        return None


RULES: Tuple[Rule, ...] = (NoSilentExceptRule(), OneWriterRule())
