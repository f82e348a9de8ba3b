"""Engine-discipline rules: guarded optional hooks, pure pool workers,
one simulator factory.

The simulator's optional subsystems (observability, fault injection)
ride on the *cheap-optional-hook* contract: a run without a collector
or controller pays one ``is not None`` test per hook site and nothing
else, and hook access is only ever performed under such a guard.  The
sweep executor's process-pool workers have their own discipline: they
must be pure functions of their (pickled) arguments, or warm-context
sharing silently diverges between fork and spawn start methods.  And
the engine core a point runs on is read off its inputs in exactly one
place, ``make_simulator`` — a second construction site is a second way
to run a point.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    ModuleContext,
    Project,
    Rule,
    display_path,
    dotted_name,
    iter_functions,
    parent_map,
)

__all__ = [
    "RULES",
    "GuardedHooksRule",
    "SingleFactoryRule",
    "WorkerPurityRule",
]

#: Attributes of the simulator that hold optional hook objects, and the
#: local/parameter spellings the engine conventionally binds them to.
_HOOK_ATTRS = ("_obs", "_channel_obs", "_resilience")
_HOOK_PARAMS = ("obs", "resilience")


def _guarantees_not_none(test: ast.expr, name: str) -> bool:
    """Whether ``test`` being truthy proves ``name`` is not None."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if (
            isinstance(test.ops[0], ast.IsNot)
            and dotted_name(test.left) == name
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_guarantees_not_none(value, name) for value in test.values)
    return False


def _is_none_test(test: ast.expr, name: str) -> bool:
    """Whether ``test`` is literally ``name is None``."""
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and dotted_name(test.left) == name
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


class GuardedHooksRule(Rule):
    """Hook access in the engine cores must sit under an is-not-None guard.

    Tracks the simulator's optional hook slots (``self._obs``,
    ``self._channel_obs``, ``self._resilience``), locals assigned from
    them, and parameters spelled ``obs``/``resilience``.  Every
    attribute access *through* one of these (``obs.bind(...)``,
    ``self._obs.on_cycle_end(...)``) must be dominated by an ``X is not
    None`` test — an ``if``/``while`` body, an earlier ``and`` conjunct,
    an ``X is None or ...`` escape, a conditional expression, or a
    preceding ``assert X is not None``.
    A parameter with a non-optional annotation (``ctrl`` in
    ``_resilience_tick``) is intentionally not tracked: its contract is
    the caller's guard.
    """

    id = "guarded-hooks"
    summary = (
        "every _obs/fault-controller hook access in the engine "
        "(sim/engine.py) must be under an 'is not None' guard "
        "(cheap-optional-hook contract)"
    )
    packages = ("sim",)

    #: The module implementing the engine hot loop.
    filenames = ("engine.py",)

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        if module.filename not in self.filenames:
            return
        path = display_path(module.path)
        parents = parent_map(module.tree)
        for func in iter_functions(module.tree):
            yield from self._check_function(func, parents, path)

    def _check_function(
        self,
        func: ast.FunctionDef,
        parents: Dict[ast.AST, ast.AST],
        path: str,
    ) -> Iterator[Finding]:
        tracked = self._tracked_names(func)
        if not tracked:
            return
        asserts = self._assert_guards(func)
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            base = dotted_name(node.value)
            if base is None or base not in tracked:
                continue
            if self._guarded(node, base, parents, func, asserts):
                continue
            yield Finding(
                path,
                node.lineno,
                self.id,
                f"hook access {base}.{node.attr} in {func.name}() is not "
                f"under an '{base} is not None' guard",
            )

    def _tracked_names(self, func: ast.FunctionDef) -> Set[str]:
        """Hook spellings live in this function's scope."""
        tracked: Set[str] = {f"self.{attr}" for attr in _HOOK_ATTRS}
        args = func.args
        all_args = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        )
        for arg in all_args:
            if arg.arg in _HOOK_PARAMS:
                tracked.add(arg.arg)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and dotted_name(node.value) in tracked
            ):
                tracked.add(node.targets[0].id)
        return tracked

    def _assert_guards(self, func: ast.FunctionDef) -> Dict[str, int]:
        """Name -> line of the earliest ``assert name is not None``."""
        guards: Dict[str, int] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assert):
                for name in self._asserted_names(node.test):
                    guards.setdefault(name, node.lineno)
        return guards

    def _asserted_names(self, test: ast.expr) -> List[str]:
        names: List[str] = []
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            if (
                isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                name = dotted_name(test.left)
                if name is not None:
                    names.append(name)
        elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                names.extend(self._asserted_names(value))
        return names

    def _guarded(
        self,
        node: ast.Attribute,
        name: str,
        parents: Dict[ast.AST, ast.AST],
        func: ast.FunctionDef,
        asserts: Dict[str, int],
    ) -> bool:
        if name in asserts and asserts[name] <= node.lineno:
            return True
        child: ast.AST = node
        current = parents.get(node)
        while current is not None and current is not func:
            if isinstance(current, (ast.If, ast.While)):
                if child in current.body and _guarantees_not_none(
                    current.test, name
                ):
                    return True
            elif isinstance(current, ast.IfExp):
                if child is current.body and _guarantees_not_none(
                    current.test, name
                ):
                    return True
            elif isinstance(current, ast.BoolOp):
                values = current.values
                if child in values:
                    index = values.index(child)
                    earlier = values[:index]
                    if isinstance(current.op, ast.And) and any(
                        _guarantees_not_none(value, name) for value in earlier
                    ):
                        return True
                    if isinstance(current.op, ast.Or) and any(
                        _is_none_test(value, name) for value in earlier
                    ):
                        return True
            child, current = current, parents.get(current)
        return False


class WorkerPurityRule(Rule):
    """Process-pool workers stay pure: no ``global``, no argument mutation.

    Finds every module-level function dispatched as the first argument
    of a ``.submit(...)`` call, plus the module-level functions those
    workers call directly (the worker closure).  Inside that closure:
    ``global``/``nonlocal`` statements are forbidden (worker state must
    arrive through arguments), and so is assigning to an attribute or
    subscript of a parameter — mutating a shipped warm-context or spec
    list diverges between fork inheritance and spawn pickling.
    Rebinding a parameter *name* locally is fine.
    """

    id = "worker-purity"
    summary = (
        "functions dispatched through the process pool must not use "
        "'global' or mutate their (shared/pickled) arguments"
    )
    packages = ("analysis", "sim")

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        functions = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        roots = self._dispatched_roots(module.tree, functions)
        if not roots:
            return
        closure = self._closure(roots, functions)
        path = display_path(module.path)
        for name in sorted(closure):
            yield from self._check_worker(functions[name], path)

    def _dispatched_roots(
        self, tree: ast.Module, functions: Dict[str, ast.FunctionDef]
    ) -> Set[str]:
        roots: Set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in functions
            ):
                roots.add(node.args[0].id)
        return roots

    def _closure(
        self, roots: Set[str], functions: Dict[str, ast.FunctionDef]
    ) -> Set[str]:
        seen: Set[str] = set()
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in functions
                    and node.func.id not in seen
                ):
                    frontier.append(node.func.id)
        return seen

    def _check_worker(
        self, func: ast.FunctionDef, path: str
    ) -> Iterator[Finding]:
        params = self._param_names(func)
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield Finding(
                    path,
                    node.lineno,
                    self.id,
                    f"pool worker {func.name}() uses '{kind}' — worker "
                    "state must arrive through arguments",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets: Sequence[ast.expr] = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    mutated = self._mutated_param(target, params)
                    if mutated is not None:
                        yield Finding(
                            path,
                            node.lineno,
                            self.id,
                            f"pool worker {func.name}() mutates argument "
                            f"{mutated!r} — shipped arguments are shared "
                            "or pickled and must stay immutable",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    mutated = self._mutated_param(target, params)
                    if mutated is not None:
                        yield Finding(
                            path,
                            node.lineno,
                            self.id,
                            f"pool worker {func.name}() deletes from "
                            f"argument {mutated!r}",
                        )

    def _param_names(self, func: ast.FunctionDef) -> Set[str]:
        args = func.args
        names = [
            arg.arg
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        ]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return set(names)

    def _mutated_param(
        self, target: ast.expr, params: Set[str]
    ) -> Optional[str]:
        """The parameter whose attribute/element ``target`` writes, if any."""
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            base: ast.expr = target
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name) and base.id in params:
                return base.id
        return None


class SingleFactoryRule(Rule):
    """Only ``make_simulator`` constructs a simulator.

    Flags every call of the engine class by name
    (``WormholeSimulator(...)``, however qualified) outside the body of
    ``make_simulator`` in ``sim/engine.py``.  The factory is where a
    run's warm context becomes the shared compiled routing table; a
    direct construction compiles a private one per run.
    """

    id = "single-factory"
    summary = (
        "simulators are constructed only by sim/engine.py's "
        "make_simulator(), which hands each run its key's shared "
        "compiled routes"
    )

    #: The engine class and the one function allowed to call it.
    classes = ("WormholeSimulator",)
    factory = ("sim/engine.py", "make_simulator")

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        allowed: Set[ast.AST] = set()
        if module.relpath == self.factory[0]:
            for func in iter_functions(module.tree):
                if func.name == self.factory[1]:
                    allowed.update(ast.walk(func))
        path = display_path(module.path)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or node in allowed:
                continue
            name = dotted_name(node.func)
            if name is not None and name.rsplit(".", 1)[-1] in self.classes:
                yield Finding(
                    path,
                    node.lineno,
                    self.id,
                    f"{name}(...) constructs a simulator outside "
                    "make_simulator(); build it through the factory so "
                    "every run of a key shares one compiled route table",
                )


RULES: Tuple[Rule, ...] = (
    GuardedHooksRule(),
    WorkerPurityRule(),
    SingleFactoryRule(),
)
