"""The shared JSON envelope of every ``--out`` artifact and manifest.

Every JSON document the CLI writes — ``repro sweep/verify/resilience/
synth/lint/report --out`` and the executor's run manifests — carries
the same three top-level keys so artifacts compose and downstream
tooling can dispatch without guessing:

* ``schema_version``: integer version of the envelope itself;
* ``tool``: which producer wrote the document (``"sweep"``,
  ``"verify"``, ``"resilience"``, ``"synth"``, ``"synth-candidate"``,
  ``"lint"``, ``"report"``, ``"manifest"``);
* ``spec_hash``: content hash of the governing
  :class:`~repro.analysis.executor.ExperimentSpec`, when the document
  describes exactly one spec (absent otherwise).

The envelope is *merged into* the producer's existing payload rather
than nesting it, so historical payload keys (``kind``, ``series``,
``cells``, ...) keep their position and pre-envelope consumers keep
working.  Schema documented in ``docs/observability.md``.

:func:`replace_file` is the one way ``repro`` writes a file: every
artifact, manifest, cache entry and trace goes through it, so none is
ever truncated in place or renamed over.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, TextIO, Union

__all__ = [
    "ENVELOPE_SCHEMA_VERSION",
    "attach_envelope",
    "load_envelope",
    "replace_file",
    "save_envelope",
]

#: Version of the shared ``--out`` envelope (``schema_version`` key).
ENVELOPE_SCHEMA_VERSION = 1

_ENVELOPE_KEYS = ("schema_version", "tool", "spec_hash")


def attach_envelope(
    payload: Dict[str, Any],
    tool: str,
    *,
    spec_hash: Optional[str] = None,
) -> Dict[str, Any]:
    """A copy of ``payload`` with the envelope keys merged in front.

    Raises ``ValueError`` if the payload already uses an envelope key —
    producers must not invent their own versions of these fields.
    """
    if not tool:
        raise ValueError("tool name must be non-empty")
    for key in _ENVELOPE_KEYS:
        if key in payload:
            raise ValueError(f"payload already defines envelope key {key!r}")
    envelope: Dict[str, Any] = {
        "schema_version": ENVELOPE_SCHEMA_VERSION,
        "tool": tool,
    }
    if spec_hash is not None:
        envelope["spec_hash"] = spec_hash
    envelope.update(payload)
    return envelope


@contextmanager
def replace_file(path: Union[str, Path]) -> Iterator[TextIO]:
    """Write ``path`` anew through a text handle on a temp file beside it.

    The handle writes ``.<name>.<pid>.tmp`` in the target's directory.
    On a clean exit the old target is unlinked (a missing one is fine)
    and the temp file is renamed onto the now free path.  On any
    exception, ``KeyboardInterrupt`` included, the temp file is deleted
    and the exception re-raised, so the old target is left as it was.

    The old file is never truncated and never renamed over: on ext4
    (``auto_da_alloc``) either forces writeback of the replaced data,
    and the next rewrite of the same path then waits on the disk.  A
    concurrent reader may find the path missing for an instant, but
    never finds it half written.  Parent directories are not created.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        target.unlink(missing_ok=True)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_envelope(
    payload: Dict[str, Any],
    tool: str,
    path: Union[str, Path],
    *,
    spec_hash: Optional[str] = None,
    indent: int = 2,
) -> Dict[str, Any]:
    """Attach the envelope and write the document to ``path``.

    Parent directories are created.  Returns the enveloped document.
    """
    document = attach_envelope(payload, tool, spec_hash=spec_hash)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with replace_file(target) as handle:
        handle.write(json.dumps(document, indent=indent, sort_keys=False))
    return document


def load_envelope(
    path: Union[str, Path],
    *,
    expect_tool: Optional[str] = None,
) -> Dict[str, Any]:
    """Read an enveloped JSON document, validating the envelope.

    Raises ``ValueError`` if the document has no envelope, claims an
    unknown future ``schema_version``, or — when ``expect_tool`` is
    given — was written by a different tool.
    """
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or "schema_version" not in document:
        raise ValueError(f"{path}: not an enveloped repro JSON document")
    version = document["schema_version"]
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"{path}: bad schema_version {version!r}")
    if version > ENVELOPE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version} is newer than supported "
            f"({ENVELOPE_SCHEMA_VERSION})"
        )
    tool = document.get("tool")
    if expect_tool is not None and tool != expect_tool:
        raise ValueError(
            f"{path}: expected a {expect_tool!r} document, found {tool!r}"
        )
    return document
