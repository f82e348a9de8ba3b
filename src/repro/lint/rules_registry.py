"""Registry-invariant rules (once the stand-alone ``scripts/lint_registry.py``).

The four checks the ad-hoc registry linter enforced since the static
certification suite landed, re-expressed as framework rules so they
share the pragma/report/CI machinery with the determinism rules:

1. ``uses-in-channel`` — every routing class declares
   ``uses_in_channel`` in its own body (the route cache keys on it;
   a silently inherited value corrupts cached decisions).
2. ``registry-canonical`` — every ``_FACTORIES`` key is already
   canonical (lookups canonicalize before indexing, so a non-canonical
   key is unreachable).
3. ``registry-class-name`` — a bare-class factory whose class pins a
   ``name`` literal must match its registry key (reports and legends
   would otherwise disagree with the CLI spelling).
4. ``all-complete`` — every module in the API-surface packages defines
   a literal ``__all__`` that is complete and accurate.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    ModuleContext,
    Project,
    Rule,
    class_body_assign,
    display_path,
    string_constant,
)

__all__ = [
    "RULES",
    "AllCompleteRule",
    "RegistryCanonicalRule",
    "RegistryClassNameRule",
    "UsesInChannelRule",
    "canonical_name",
]


def canonical_name(name: str) -> str:
    """Mirror of :func:`repro.routing.registry.canonical_name`.

    Duplicated on purpose: the linter must not import the code it
    checks, and the canonicalization is a one-liner pinned by tests.
    """
    return name.strip().lower().replace("_", "-")


class UsesInChannelRule(Rule):
    """Routing classes declare ``uses_in_channel`` in their own body."""

    id = "uses-in-channel"
    summary = (
        "every routing class declares uses_in_channel in its own class "
        "body (the route cache keys on it)"
    )
    packages = ("routing",)

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        path = display_path(module.path)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Routing"):
                continue
            if node.name == "RoutingAlgorithm":
                continue
            if class_body_assign(node, "uses_in_channel") is None:
                yield Finding(
                    path,
                    node.lineno,
                    self.id,
                    f"class {node.name} does not declare uses_in_channel "
                    "in its body",
                )


def _factories_dict(tree: ast.Module) -> Optional[ast.Dict]:
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "_FACTORIES":
                if isinstance(value, ast.Dict):
                    return value
    return None


def _registry_module(project: Project) -> Optional[ModuleContext]:
    return project.module("routing/registry.py")


class RegistryCanonicalRule(Rule):
    """``_FACTORIES`` keys are string literals in canonical form."""

    id = "registry-canonical"
    summary = (
        "every _FACTORIES key in routing/registry.py is a canonical "
        "string literal (lookups canonicalize before indexing)"
    )
    packages = ("routing",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = _registry_module(project)
        if registry is None:
            return
        path = display_path(registry.path)
        factories = _factories_dict(registry.tree)
        if factories is None:
            yield Finding(path, 1, self.id, "_FACTORIES dict not found")
            return
        for key_node in factories.keys:
            key = string_constant(key_node)
            if key is None:
                yield Finding(
                    path,
                    key_node.lineno if key_node is not None else 1,
                    self.id,
                    "_FACTORIES key is not a string literal",
                )
                continue
            if canonical_name(key) != key:
                yield Finding(
                    path,
                    key_node.lineno,
                    self.id,
                    f"key {key!r} is not canonical (canonical form: "
                    f"{canonical_name(key)!r})",
                )


class RegistryClassNameRule(Rule):
    """Bare-class factories pin a ``name`` literal matching their key."""

    id = "registry-class-name"
    summary = (
        "a bare-class _FACTORIES value whose class pins a name literal "
        "must match its registry key"
    )
    packages = ("routing",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = _registry_module(project)
        if registry is None:
            return
        factories = _factories_dict(registry.tree)
        if factories is None:
            return
        path = display_path(registry.path)
        class_names = self._class_names(project)
        for key_node, value_node in zip(factories.keys, factories.values):
            key = string_constant(key_node)
            if key is None or not isinstance(value_node, ast.Name):
                continue
            declared = class_names.get(value_node.id)
            if declared is not None and declared != key:
                yield Finding(
                    path,
                    value_node.lineno,
                    self.id,
                    f"class {value_node.id} pins name={declared!r} but is "
                    f"registered as {key!r}",
                )

    def _class_names(self, project: Project) -> Dict[str, Optional[str]]:
        """Class name -> its class-body ``name`` literal (or None)."""
        names: Dict[str, Optional[str]] = {}
        for module in project.in_package("routing"):
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    names[node.name] = string_constant(
                        class_body_assign(node, "name")
                    )
        return names


#: Packages whose modules form the public API surface and must carry a
#: complete literal ``__all__``.
_ALL_PACKAGES = ("routing", "core", "verify", "obs", "lint", "synth")


class AllCompleteRule(Rule):
    """API-surface modules define a complete, accurate literal ``__all__``."""

    id = "all-complete"
    summary = (
        "modules in routing/core/verify/obs/lint/synth define a literal "
        "__all__ that is complete and accurate"
    )
    packages = _ALL_PACKAGES

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        path = display_path(module.path)
        declared = self._all_names(module.tree)
        if declared is None:
            yield Finding(path, 1, self.id, "missing or non-literal __all__")
            return
        defined = self._top_level_definitions(module.tree)
        for name in sorted(declared):
            if name not in defined:
                yield Finding(
                    path,
                    1,
                    self.id,
                    f"__all__ lists {name!r}, which is not defined at "
                    "module top level",
                )
        public = {
            node.name
            for node in module.tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and not node.name.startswith("_")
        }
        for name in sorted(public - declared):
            yield Finding(
                path,
                1,
                self.id,
                f"public definition {name!r} is missing from __all__",
            )

    def _all_names(self, tree: ast.Module) -> Optional[Set[str]]:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if "__all__" in targets:
                    if not isinstance(node.value, (ast.List, ast.Tuple)):
                        return None
                    names: Set[str] = set()
                    for element in node.value.elts:
                        text = string_constant(element)
                        if text is None:
                            return None
                        names.add(text)
                    return names
        return None

    def _top_level_definitions(self, tree: ast.Module) -> Set[str]:
        """Names bound at module top level: defs, classes, assigns, imports."""
        defined: Set[str] = set()
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    defined.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    defined.add(alias.asname or alias.name.split(".")[0])
        if "__getattr__" in defined:
            # PEP 562 lazy re-exports: string keys of a top-level _LAZY
            # dict are resolvable attributes even though never bound.
            for node in tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                if not any(
                    isinstance(t, ast.Name) and t.id == "_LAZY"
                    for t in node.targets
                ):
                    continue
                if isinstance(node.value, ast.Dict):
                    for key in node.value.keys:
                        text = string_constant(key)
                        if text is not None:
                            defined.add(text)
        return defined


RULES: Tuple[Rule, ...] = (
    UsesInChannelRule(),
    RegistryCanonicalRule(),
    RegistryClassNameRule(),
    AllCompleteRule(),
)
