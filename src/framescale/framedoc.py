"""Plain-text frame documents.

Format: a key-value header (``n``, ``m``, optional ``name``, each at most
once), then m lines of n whitespace-separated decimals, one frame vector per
line.  Numbers are written with 17 significant digits so documents
round-trip bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .frame_core import Frame, make_frame


@dataclass(frozen=True)
class FrameDocument:
    n: int
    m: int
    vectors: np.ndarray  # m x n
    name: str | None = None


def parse_frame_document(text, source="<input>") -> FrameDocument:
    n = m = None
    name = None
    headers = set()  # each header key may appear once
    values = []  # the data rows, converted once each and concatenated
    nrows = 0
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if nrows == 0 and key in ("n", "m", "name"):
            if key in headers:
                raise ParseError(f"{source}: repeated header '{key}'", line=lineno)
            headers.add(key)
            if key == "name":
                name = line[len("name"):].strip() or None
                continue
            if len(parts) != 2:
                raise ParseError(f"{source}: header '{key}' needs one value", line=lineno)
            try:
                value = int(parts[1])
            except ValueError:
                raise ParseError(f"{source}: header '{key}' is not an integer", line=lineno)
            if value < 1:
                raise ParseError(f"{source}: header '{key}' must be positive", line=lineno)
            if key == "n":
                n = value
            else:
                m = value
            continue
        if n is None or m is None:
            raise ParseError(f"{source}: data before 'n'/'m' headers", line=lineno)
        if len(parts) != n:
            raise ParseError(
                f"{source}: expected {n} values in vector row, got {len(parts)}",
                line=lineno,
            )
        try:
            values.extend(map(float, parts))
        except ValueError:
            # the slow path: find the first bad token for the message
            for col, tok in enumerate(parts, start=1):
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(f"{source}: bad number {tok!r}", line=lineno, col=col)
        nrows += 1
    if n is None or m is None:
        raise ParseError(f"{source}: missing 'n' or 'm' header")
    if nrows != m:
        raise ParseError(f"{source}: expected {m} vector rows, found {nrows}")
    vectors = np.array(values, dtype=float).reshape(m, n)
    vectors.setflags(write=False)
    return FrameDocument(n=n, m=m, vectors=vectors, name=name)


def format_number(x) -> str:
    return "%.17g" % float(x)


def format_frame_document(doc: FrameDocument) -> str:
    out = [f"n {doc.n}", f"m {doc.m}"]
    if doc.name:
        out.append(f"name {doc.name}")
    for row in doc.vectors:
        out.append(" ".join(format_number(v) for v in row))
    return "\n".join(out) + "\n"


def frame_from_document(doc: FrameDocument) -> Frame:
    return make_frame(doc.vectors)


def document_from_frame(F, name=None) -> FrameDocument:
    vectors = F.synthesis.T.copy()
    vectors.setflags(write=False)
    return FrameDocument(n=F.n, m=F.m, vectors=vectors, name=name)
