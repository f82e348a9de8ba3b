"""Fixture: the one writer, and a second writer beside it."""

import os
from contextlib import contextmanager

__all__ = ["replace_file", "save_quick"]


@contextmanager
def replace_file(path):
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:  # fine: the writer itself
        yield handle
    path.unlink(missing_ok=True)
    os.replace(tmp, path)  # fine: the writer itself


def save_quick(path, text):
    with open(path, "w") as handle:  # finding
        handle.write(text)
