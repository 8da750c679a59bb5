"""``# simlint: disable=...`` suppression comments.

Three directive verbs exist, all requiring a justification after ``--``:

* ``# simlint: disable=<rules> -- reason``       suppress on this line,
* ``# simlint: disable-next=<rules> -- reason``  suppress on the next line,
* ``# simlint: disable-file=<rules> -- reason``  suppress in the whole file.

``<rules>`` is a comma-separated list of rule ids (``SL101``) or rule
names (``unseeded-random``); ``all`` matches every rule.  A directive
without a reason string is itself reported (SL000): every suppression in
this repository must say *why* the invariant does not apply.

Comments are located with :mod:`tokenize`, so directives inside string
literals are never mistaken for suppressions.
"""
from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

_DIRECTIVE = re.compile(
    r"#\s*simlint:\s*(?P<verb>disable(?:-next|-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\-\s]+?)\s*(?:--\s*(?P<reason>\S.*))?$")


@dataclass(frozen=True)
class Directive:
    """One parsed suppression comment."""

    verb: str          #: disable | disable-next | disable-file
    rules: frozenset[str]  #: lowered rule ids/names, or {"all"}
    reason: str | None
    line: int

    def covers_line(self, line: int) -> bool:
        if self.verb == "disable-file":
            return True
        if self.verb == "disable-next":
            return line == self.line + 1
        return line == self.line


@dataclass
class SuppressionIndex:
    """All directives of one file, queryable per (rule, line)."""

    directives: list[Directive] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, rule_name: str, line: int) -> bool:
        wanted = {"all", rule_id.lower(), rule_name.lower()}
        return any(d.covers_line(line) and (d.rules & wanted)
                   for d in self.directives)


def parse_suppressions(source: str) -> SuppressionIndex:
    """Extract every simlint directive from ``source``."""
    index = SuppressionIndex()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # the engine reports the parse failure separately; a file that
        # does not tokenize cannot carry suppressions
        return index
    for line, text in comments:
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        rules = frozenset(r.strip().lower()
                          for r in match.group("rules").split(",")
                          if r.strip())
        if not rules:
            continue
        index.directives.append(Directive(
            verb=match.group("verb"),
            rules=rules,
            reason=match.group("reason"),
            line=line,
        ))
    return index
