"""Fixture: except handlers that swallow what they caught."""

import json
import warnings


def load_all(paths):
    loaded = []
    for path in paths:
        try:
            loaded.append(json.loads(path.read_text()))
        except ValueError:  # finding
            continue
    return loaded


def first_int(text):
    try:
        return int(text)
    except (TypeError, ValueError):  # finding
        pass
    try:
        return int(float(text))
    except Exception:  # finding
        ...
    try:
        return len(text)
    except:  # noqa: E722  # finding
        pass


def load_loudly(path):
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # fine: the skip is recorded
        warnings.warn(f"skipped {path}: {exc}")
        return None


def parse_or_raise(text):
    try:
        return int(text)
    except ValueError:  # fine: re-raised with context
        raise ValueError(f"not an int: {text!r}") from None
