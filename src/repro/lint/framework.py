"""Core of the lint framework: project model, rule base, runner.

The framework is deliberately *pure*: modules are parsed with
:mod:`ast`, never imported, so linting cannot execute target code and
works on any checkout.  A :class:`Project` holds every parsed module
under one source root (src-layout: ``<root>/<package>/<module>.py``);
rules inspect modules (:meth:`Rule.check_module`) or the whole project
at once (:meth:`Rule.check_project`, for cross-module invariants like
the routing registry).  :func:`run_lint` applies the rules, routes
findings through the suppression pragmas of :mod:`repro.lint.findings`,
and returns a :class:`LintReport` that renders to text or to the shared
JSON envelope payload (``repro lint --format json``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lint.findings import (
    Finding,
    Pragma,
    SuppressedFinding,
    parse_pragmas,
)

__all__ = [
    "LintReport",
    "ModuleContext",
    "Project",
    "Rule",
    "all_rules",
    "class_body_assign",
    "default_root",
    "display_path",
    "dotted_name",
    "iter_functions",
    "load_project",
    "parent_map",
    "render_report",
    "report_payload",
    "run_lint",
    "string_constant",
]


@dataclass
class ModuleContext:
    """One parsed source module.

    Attributes:
        path: absolute path of the file.
        relpath: path relative to the project root, POSIX-style
            (``"sim/engine.py"``) — the key rules match scopes on.
        package: first path segment (``"sim"``), ``""`` for top-level
            modules like ``cli.py``.
        tree: the parsed AST.
        source: full source text (pragmas are scanned from its real
            comment tokens).
        lines: source text split into lines.
    """

    path: Path
    relpath: str
    package: str
    tree: ast.Module
    source: str
    lines: List[str]

    @property
    def filename(self) -> str:
        """Base name of the module file (``"engine.py"``)."""
        return self.path.name


@dataclass
class Project:
    """Every module under one source root, parsed once."""

    root: Path
    modules: List[ModuleContext] = field(default_factory=list)

    def module(self, relpath: str) -> Optional[ModuleContext]:
        """The module at ``relpath`` (POSIX, root-relative), if present."""
        for module in self.modules:
            if module.relpath == relpath:
                return module
        return None

    def in_package(self, package: str) -> List[ModuleContext]:
        """All modules whose top-level package is ``package``."""
        return [m for m in self.modules if m.package == package]


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` (the kebab-case name pragmas and ``--rule``
    use), :attr:`summary` (one line for the catalog), and
    :attr:`packages` (top-level package scope; ``None`` means every
    module).  Override :meth:`check_module` for per-module checks or
    :meth:`check_project` for cross-module ones — the runner calls both.
    """

    id: str = ""
    summary: str = ""
    packages: Optional[Tuple[str, ...]] = None

    def applies_to(self, module: ModuleContext) -> bool:
        """Whether ``module`` is inside this rule's package scope."""
        return self.packages is None or module.package in self.packages

    def check_module(
        self, module: ModuleContext, project: Project
    ) -> Iterator[Finding]:
        """Findings for one module (default: none)."""
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Findings needing the whole project at once (default: none)."""
        return iter(())


# ----------------------------------------------------------------------
# Shared AST helpers (used by the rule modules)


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent for every node reachable from ``tree``."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def iter_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef]:
    """Every function/method definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def class_body_assign(node: ast.ClassDef, attr: str) -> Optional[ast.expr]:
    """The value assigned to ``attr`` in the class body, if any."""
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == attr:
                    return statement.value
        if isinstance(statement, ast.AnnAssign):
            target = statement.target
            if (
                isinstance(target, ast.Name)
                and target.id == attr
                and statement.value is not None
            ):
                return statement.value
    return None


def string_constant(node: Optional[ast.expr]) -> Optional[str]:
    """The literal string value of a Constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ----------------------------------------------------------------------
# Project loading


def default_root() -> Path:
    """The installed ``repro`` package's source directory.

    Works from a checkout (``src/repro``) and from an editable install
    alike — it is simply the directory this very module's package lives
    in, two levels up.
    """
    return Path(__file__).resolve().parent.parent


def load_project(root: Path) -> Project:
    """Parse every ``*.py`` under ``root`` into a :class:`Project`.

    Raises ``SyntaxError`` (with the offending filename) if any module
    fails to parse — an unparseable tree cannot be certified.
    """
    root = root.resolve()
    project = Project(root=root)
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relpath = path.relative_to(root).as_posix()
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        package = relpath.split("/")[0] if "/" in relpath else ""
        project.modules.append(
            ModuleContext(
                path=path,
                relpath=relpath,
                package=package,
                tree=tree,
                source=text,
                lines=text.splitlines(),
            )
        )
    return project


# ----------------------------------------------------------------------
# Rule registry


def all_rules() -> Dict[str, Rule]:
    """Every registered rule, keyed by id, in catalog order.

    The rule modules are imported here (not at package import) so the
    framework core stays dependency-free for embedding and tests.
    """
    from repro.lint import (  # noqa: PLC0415 - deliberate late binding
        rules_determinism,
        rules_engine,
        rules_errors,
        rules_registry,
        rules_spec,
    )

    catalog: Dict[str, Rule] = {}
    for module_rules in (
        rules_determinism.RULES,
        rules_engine.RULES,
        rules_errors.RULES,
        rules_spec.RULES,
        rules_registry.RULES,
    ):
        for rule in module_rules:
            if rule.id in catalog:
                raise ValueError(f"duplicate rule id {rule.id!r}")
            catalog[rule.id] = rule
    return catalog


# ----------------------------------------------------------------------
# Runner and report


@dataclass
class LintReport:
    """Outcome of one lint run: findings, suppressions, rules applied."""

    root: str
    rules: Dict[str, str]
    modules_checked: int
    findings: List[Finding]
    suppressed: List[SuppressedFinding]

    @property
    def ok(self) -> bool:
        """True when no active (unsuppressed) finding remains."""
        return not self.findings


def display_path(path: Path) -> str:
    """Path relative to the current directory when possible."""
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    root: Optional[Path] = None,
    *,
    rules: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> LintReport:
    """Lint every module under ``root`` and return the report.

    Args:
        root: source tree to scan; defaults to the installed package
            (:func:`default_root`).  Ignored when ``project`` is given.
        rules: subset of rule ids to run (``None`` = the full catalog).
            Unknown ids raise ``ValueError``.
        project: a pre-loaded :class:`Project` (fixture tests).
    """
    catalog = all_rules()
    if rules is not None:
        unknown = [rule for rule in rules if rule not in catalog]
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        selected = {rule_id: catalog[rule_id] for rule_id in rules}
    else:
        selected = catalog
    if project is None:
        project = load_project(root if root is not None else default_root())

    known_ids = tuple(catalog)
    raw: List[Finding] = []
    pragma_problems: List[Finding] = []
    pragmas_by_path: Dict[str, List[Pragma]] = {}
    for module in project.modules:
        display = display_path(module.path)
        pragmas, problems = parse_pragmas(display, module.source, known_ids)
        pragmas_by_path[display] = pragmas
        pragma_problems.extend(problems)
        for rule in selected.values():
            if rule.applies_to(module):
                raw.extend(rule.check_module(module, project))
    for rule in selected.values():
        raw.extend(rule.check_project(project))

    active: List[Finding] = []
    suppressed: List[SuppressedFinding] = []
    for finding in raw:
        pragma = _covering_pragma(
            pragmas_by_path.get(finding.path, []), finding
        )
        if pragma is not None:
            suppressed.append(SuppressedFinding(finding, pragma.reason))
        else:
            active.append(finding)
    # Malformed pragmas are never suppressible — a pragma cannot excuse
    # itself — and surface even when a rule subset is selected, so a
    # broken justification fails the same gate everywhere.
    active.extend(pragma_problems)
    active.sort(key=lambda f: (f.path, f.line, f.rule))
    suppressed.sort(key=lambda s: (s.finding.path, s.finding.line, s.finding.rule))
    return LintReport(
        root=display_path(project.root),
        rules={rule.id: rule.summary for rule in selected.values()},
        modules_checked=len(project.modules),
        findings=active,
        suppressed=suppressed,
    )


def _covering_pragma(
    pragmas: Iterable[Pragma], finding: Finding
) -> Optional[Pragma]:
    for pragma in pragmas:
        if pragma.covers(finding.line, finding.rule):
            return pragma
    return None


def render_report(report: LintReport, *, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in report.findings]
    if verbose and report.suppressed:
        lines.append("suppressed:")
        for entry in report.suppressed:
            lines.append(f"  {entry.finding.render()} — allowed: {entry.reason}")
    summary = (
        f"repro lint: {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.modules_checked} modules, {len(report.rules)} rules"
    )
    if report.ok:
        summary = (
            f"repro lint: clean — {report.modules_checked} modules, "
            f"{len(report.rules)} rules, {len(report.suppressed)} suppressed"
        )
    lines.append(summary)
    return "\n".join(lines)


def report_payload(report: LintReport) -> Dict[str, object]:
    """The JSON document body (envelope keys are attached by the CLI)."""
    return {
        "kind": "lint",
        "root": report.root,
        "rules": dict(report.rules),
        "modules_checked": report.modules_checked,
        "ok": report.ok,
        "findings": [finding.to_dict() for finding in report.findings],
        "suppressed": [entry.to_dict() for entry in report.suppressed],
    }
