"""The line syntax of every hand-editable input: the run config, the dataset
manifest, the array table and the evaluation CSV. ``#`` starts a comment,
blank lines are skipped but counted, and list items are separated by commas
and/or whitespace. Every input file, trace CSVs included, is read through
read_text, and every output file is written through write_text. An error is
a ValueError whose message reworded prefixes with its source: ``path:line``
for a line of a file, ``<command>: --<option>`` for a command-line option.
"""

from __future__ import annotations

import functools
import math
import os
import threading


def read_text(path) -> str:
    """The file as UTF-8 text, in one binary read; \\r\\n and \\r become ``\\n``
    as in a text-mode read.

    A byte that is not UTF-8 raises ``path:line: not UTF-8 text``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count lines as the text does: \r\n, \r and \n each end one
        line = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def write_text(path, text: str) -> None:
    """The inverse of read_text: text as the whole of the file, UTF-8, newlines kept."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


MIN_FILES_PER_THREAD = 30  # a file takes 0.3-0.8 ms, a thread's start 0.05 ms


def write_files(items) -> None:
    """write_text(path, render()) for each (path, render) item of the list
    items: the calling thread takes the first of k contiguous shares and a
    thread each other, k = min(CPUs this process may use, len(items) //
    MIN_FILES_PER_THREAD) and at least 1. A share stops at its first failing
    item. All threads are joined before the error of a one-thread write is
    raised: the first failing item's in order, whatever it raised."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = max(1, min(cpus, len(items) // MIN_FILES_PER_THREAD))
    bounds = [len(items) * j // k for j in range(k + 1)]
    errors = [None] * k

    def write_share(j):
        try:
            for path, render in items[bounds[j]:bounds[j + 1]]:
                write_text(path, render())
        except BaseException as exc:
            errors[j] = exc

    threads = []
    try:
        for j in range(1, k):
            thread = threading.Thread(target=write_share, args=(j,))
            thread.start()
            threads.append(thread)
        write_share(0)
    finally:
        for thread in threads:
            thread.join()
        for exc in filter(None, errors):
            raise exc


def records(lines):
    """(line number, text) of each line that holds data, comment stripped."""
    for ln, raw in enumerate(lines, start=1):
        text = raw.partition("#")[0].strip()
        if text:
            yield ln, text


def split_list(text: str, parse=str) -> tuple:
    return tuple(parse(item) for item in text.replace(",", " ").split())


def list_of(parse):
    """split_list with its item parser fixed: a parser of a list of parse's items."""
    return functools.partial(split_list, parse=parse)


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def positive_finite(name: str, value: float) -> float:
    # the chained comparison is False for nan
    if not 0 < value < float("inf"):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def checked(parse, ok, what: str):
    """A parser that also requires ok(value); what names the requirement."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"{what}, got {text!r}")
        return value
    return check


def reworded(prefix: str, make, /, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reworded as ``prefix: ...``
    without the chain; any other exception passes through."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def parse_at(source, ln: int, key: str, parse, text: str):
    return reworded(f"{source}:{ln}: bad value for {key}", parse, text)


def read_kv(lines, source, schema) -> dict[str, tuple[int, object]]:
    """``key = value`` lines as {key: (line number, parsed value)}.

    ``schema(key)`` is the parser of a key, None for an unknown key. A line
    without ``=``, an unknown or repeated key and a value its parser rejects
    each raise ``ValueError``.
    """
    out: dict[str, tuple[int, object]] = {}
    for ln, text in records(lines):
        key, eq, value = text.partition("=")
        if not eq:
            raise ValueError(f"{source}:{ln}: expected 'key = value', got {text!r}")
        key = key.rstrip()
        parser = schema(key)
        if parser is None:
            raise ValueError(f"{source}:{ln}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{source}:{ln}: duplicate key {key!r}, first set on line {out[key][0]}")
        out[key] = (ln, parse_at(source, ln, key, parser, value.lstrip()))
    return out
