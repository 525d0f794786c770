"""The key=value codec behind every artifact and input file.

Documents hold one key=value per line (report.rec, findings.rec,
windows.rec, profile records, config and labels files); record files hold
one record of space-separated key=value tokens per line (capture.cap,
status.rec).  Blank and # lines are skipped; keys and values are kept
verbatim.  The scenario, template and device-spec files hold one
`key: body` directive per line (see directives), the trajectory script
whitespace-separated columns; all of them are read through Source.  A
KeyError or ValueError raised while a file is parsed becomes
AnalysisError("<path>:<line>: ..."), so a malformed file exits 2, not 1.
Every float field of every reader is read with finite, which raises that
ValueError on nan and +-inf as well; an integer field that the profiler
turns into a float (a capture's size and ttl, a device's ttl) is read
with integer, which raises it for a value past the float range.  A
software version (a device's os: and app: lines, the bounds of a
vulnerability range) must pass is_version.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from contextlib import contextmanager
from math import isfinite

from .errors import AnalysisError


def finite(text: str) -> float:
    """float(text); ValueError if it is nan or +-inf."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def integer(text: str) -> int:
    """int(text); ValueError if float() of it overflows."""
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{len(text)}-character integer is out of the "
                         "float range") from None
    return value


def is_version(text: str) -> bool:
    """Whether each dot-separated piece of text starts with a digit (1.19,
    2.0.1b), so that every piece has a number to compare."""
    return all(re.match("[0-9]", piece) for piece in text.split("."))


def dumps(pairs) -> str:
    """One key=value line per (key, value) pair."""
    return "".join(f"{key}={value}\n" for key, value in pairs)


class Source:
    """The lines of a file, blank and # lines skipped, newlines kept; line
    is the number of the line read last (or given), or one past the end."""

    def __init__(self, path: str, line: int = 0):
        self.path = path
        self.line = line

    def __iter__(self):
        with open(self.path, encoding="utf-8") as fh:
            for self.line, text in enumerate(fh, 1):
                stripped = text.strip()
                if stripped and stripped[0] != "#":
                    yield text
        self.line += 1

    def error(self, message: str) -> AnalysisError:
        return AnalysisError(f"{self.path}:{self.line}: {message}")

    @contextmanager
    def parsing(self):
        """Report a KeyError or ValueError raised inside at the current line."""
        try:
            yield
        except KeyError as exc:
            raise self.error(f"missing field {exc}") from None
        except ValueError as exc:
            raise self.error(str(exc)) from None


class Fields(Mapping):
    """The pairs of a key=value document in file order.  Looking a key up
    moves the source to its line, or past the end if the key is missing,
    so a value that fails to convert is reported where it sits."""

    def __init__(self, source: Source):
        self._source = source
        self._values: dict[str, str] = {}
        self._lines: dict[str, int] = {}
        for text in source:
            key, sep, value = text.rstrip("\n").partition("=")
            if not sep:
                raise source.error("expected key=value")
            self._values[key] = value
            self._lines[key] = source.line
        self._end = source.line

    def __getitem__(self, key: str) -> str:
        self._source.line = self._lines.get(key, self._end)
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


def directives(source: Source):
    """(key, body) of each `key: body` line of source, both stripped, with
    a # comment cut from the end of the line."""
    for text in source:
        line = text.split("#", 1)[0].strip()
        key, sep, body = line.partition(":")
        if not sep:
            raise ValueError(f"expected 'key: value', got {line!r}")
        yield key.strip(), body.strip()


def load(path: str, build):
    """build(fields) over the key=value document at path."""
    source = Source(path)
    with source.parsing():
        return build(Fields(source))


def pairs(text: str) -> dict[str, str]:
    """The key=value tokens of a record line as a dict."""
    return dict(token.split("=", 1) for token in text.split())


def load_lines(path: str, build) -> list:
    """build(pairs(text)) for each record line of path."""
    source = Source(path)
    with source.parsing():
        return [build(pairs(text)) for text in source]
