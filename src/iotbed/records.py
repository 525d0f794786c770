"""The key=value codec behind every artifact and input file.

Documents hold one key=value per line (report.rec, findings.rec,
windows.rec, profile records, config and labels files); record files hold
one record of space-separated key=value tokens per line (capture.cap,
status.rec).  Blank and # lines are skipped; keys and values are kept
verbatim.  A KeyError or ValueError raised while a file is parsed becomes
AnalysisError("<path>:<line>: ..."), so a malformed file exits 2, not 1.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager

from .errors import AnalysisError


def dumps(pairs) -> str:
    """One key=value line per (key, value) pair."""
    return "".join(f"{key}={value}\n" for key, value in pairs)


class Source:
    """The lines of a file, blank and # lines skipped, newlines kept; line
    is the number of the line read last, or one past the end after it."""

    def __init__(self, path: str):
        self.path = path
        self.line = 0

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


def load(path: str, build):
    """build(fields) over the key=value document at path."""
    source = Source(path)
    with source.parsing():
        return build(Fields(source))


def load_lines(path: str, build) -> list:
    """build(tokens) for each record line of path, tokens being the line's
    key=value pairs as a dict."""
    source = Source(path)
    with source.parsing():
        return [build(dict(token.split("=", 1) for token in text.split()))
                for text in source]
