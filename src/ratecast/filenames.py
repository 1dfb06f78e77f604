"""Decode data-acquisition file names into experiment/run/stream/chunk parts."""

from __future__ import annotations

import re
from dataclasses import dataclass

# e<digits>-r<digits>-s<digits>-c<digits> with an optional extension.
# Zero padding is accepted at any width; digits are ASCII only and the
# extension cannot span lines.
_FILENAME_RE = re.compile(r"\Ae([0-9]+)-r([0-9]+)-s([0-9]+)-c([0-9]+)(?:\.(.+))?\Z")


class FilenameParseError(ValueError):
    """File name does not follow the e/r/s/c grammar."""

    def __init__(self, name: str):
        super().__init__(f"unparseable file name: {name!r}")
        self.name = name


@dataclass(frozen=True, slots=True)
class FileNameParts:
    """Experiment, run, stream and chunk indices encoded in a file name."""

    experiment_num: int
    run_num: int
    stream_num: int
    chunk_num: int

    def __post_init__(self) -> None:
        if min(self.experiment_num, self.run_num, self.stream_num, self.chunk_num) < 0:
            raise ValueError(f"file name parts must be non-negative, got {self}")


def parse_filename(name: str) -> FileNameParts:
    """Parse ``e<exp>-r<run>-s<stream>-c<chunk>[.<ext>]`` into its four indices.

    Raises :class:`FilenameParseError` for anything else; callers that can
    degrade (e.g. chunk-keyed features) decide how to handle the failure.
    """
    match = _FILENAME_RE.match(name)
    if match is None:
        raise FilenameParseError(name)
    exp, run, stream, chunk = (int(g) for g in match.groups()[:4])
    return FileNameParts(exp, run, stream, chunk)


def format_filename(parts: FileNameParts, ext: str | None = None) -> str:
    """Render parts back into a file name, normalizing away zero padding."""
    name = (
        f"e{parts.experiment_num}-r{parts.run_num}"
        f"-s{parts.stream_num}-c{parts.chunk_num}"
    )
    if ext:
        name = f"{name}.{ext}"
    return name
