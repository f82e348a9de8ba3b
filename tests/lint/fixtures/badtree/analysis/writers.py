"""Fixture: files written beside the one writer."""

import io
import os


def save_text(path, text):
    path.write_text(text)  # finding


def save_bytes(path, blob):
    path.write_bytes(blob)  # finding


def append_line(path, line):
    with open(path, "a") as handle:  # finding
        handle.write(line)


def create(path):
    with io.open(path, mode="x", encoding="utf-8") as handle:  # finding
        handle.write("")


def update(path):
    with path.open("r+") as handle:  # finding
        handle.write("")


def swap(tmp, path):
    os.replace(tmp, path)  # finding


def read_back(path):
    with open(path) as handle:  # fine: read only
        first = handle.read()
    with path.open("rb") as handle:  # fine: read only
        second = handle.read()
    descriptor = os.open(path, os.O_RDONLY)  # fine: a descriptor, no mode string
    os.close(descriptor)
    return first, second, path.read_text()
