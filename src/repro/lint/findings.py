"""Findings and suppression pragmas for the lint framework.

A finding is one ``file:line:rule-id`` violation.  A pragma is an inline
comment that suppresses one or more rules on its own line *and the line
below it* (so both trailing comments and a comment line directly above
the flagged statement work)::

    lane = hash((src, dest))  # repro-lint: allow[hash-stability] int-only operands

    # repro-lint: allow[no-wallclock] manifest stamp, never digested
    created = time.time()

The justification after the closing bracket is **mandatory** — a pragma
with no reason is itself reported (rule ``bad-pragma``), as is one
naming a rule id the registry does not know.  Several rules may share
one pragma: ``allow[rule-a,rule-b] reason``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "BAD_PRAGMA",
    "Finding",
    "Pragma",
    "SuppressedFinding",
    "parse_pragmas",
]

#: Rule id under which malformed pragmas are reported.  Not suppressible.
BAD_PRAGMA = "bad-pragma"

#: Grammar of an allow pragma comment (examples in the module docstring).
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<verb>[a-z-]+)"
    r"(?:\[(?P<rules>[^\]]*)\])?"
    r"\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """The canonical one-line report: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (keys: path, line, rule, message)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Pragma:
    """A parsed ``# repro-lint: allow[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, line: int, rule: str) -> bool:
        """Whether this pragma suppresses ``rule`` on ``line``.

        A pragma applies to its own line and to the line directly below
        it, so it can trail the flagged code or sit just above it.
        """
        return rule in self.rules and line in (self.line, self.line + 1)


@dataclass(frozen=True)
class SuppressedFinding:
    """A finding silenced by a pragma, kept for the report's audit trail."""

    finding: Finding
    reason: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: the finding plus the pragma's justification."""
        payload = self.finding.to_dict()
        payload["reason"] = self.reason
        return payload


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """``(line, comment_text)`` for every real comment token.

    Tokenizing (rather than scanning raw lines) keeps pragma examples
    inside docstrings and string literals from being parsed as pragmas.
    The linter tokenizes only sources :mod:`ast` has already parsed.
    """
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        (token.start[0], token.string)
        for token in tokens
        if token.type == tokenize.COMMENT
    ]


def parse_pragmas(
    path: str, source: str, known_rules: Tuple[str, ...]
) -> Tuple[List[Pragma], List[Finding]]:
    """Extract every pragma from a module's source text.

    Returns ``(pragmas, problems)`` where problems are ``bad-pragma``
    findings: an unknown verb, a missing rule list, an unknown rule id,
    or — the one this framework exists to insist on — a missing
    justification string.
    """
    pragmas: List[Pragma] = []
    problems: List[Finding] = []
    for lineno, text in _comment_tokens(source):
        if "repro-lint" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            problems.append(
                Finding(path, lineno, BAD_PRAGMA, "unparseable repro-lint pragma")
            )
            continue
        verb = match.group("verb")
        if verb != "allow":
            problems.append(
                Finding(
                    path,
                    lineno,
                    BAD_PRAGMA,
                    f"unknown pragma verb {verb!r} (only 'allow' is defined)",
                )
            )
            continue
        raw_rules = match.group("rules")
        if raw_rules is None:
            problems.append(
                Finding(
                    path,
                    lineno,
                    BAD_PRAGMA,
                    "allow pragma needs a rule list: allow[rule-id] reason",
                )
            )
            continue
        rules = tuple(
            part.strip() for part in raw_rules.split(",") if part.strip()
        )
        if not rules:
            problems.append(
                Finding(path, lineno, BAD_PRAGMA, "allow pragma names no rules")
            )
            continue
        unknown = [rule for rule in rules if rule not in known_rules]
        if unknown:
            problems.append(
                Finding(
                    path,
                    lineno,
                    BAD_PRAGMA,
                    f"pragma names unknown rule(s): {', '.join(unknown)}",
                )
            )
            continue
        reason = match.group("reason").strip().lstrip("—:- ").strip()
        if not reason:
            problems.append(
                Finding(
                    path,
                    lineno,
                    BAD_PRAGMA,
                    "allow pragma must carry a justification: "
                    "allow[rule-id] <why this is safe>",
                )
            )
            continue
        pragmas.append(Pragma(lineno, rules, reason))
    return pragmas, problems
