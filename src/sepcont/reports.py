"""Deterministic report emission: lossless dyadic serialization, CSV and
JSON-lines writers, and the run manifest."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction

NET_INDEXING_NOTE = (
    "net(k) is the greedy maximal 2^-(k+2)-separated subset of the closed "
    "2^-k ball around the identity; the quantizer step n -> n+1 draws its "
    "increments from net(n)"
)

_DYADIC_RE = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")


def dyadic_str(q: Fraction) -> str:
    """Serialize a dyadic rational losslessly as ``p/2^q``."""
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"{q} is not a dyadic rational")
    return f"{q.numerator}/2^{den.bit_length() - 1}"


def parse_dyadic(text: str) -> Fraction:
    m = _DYADIC_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad dyadic literal: {text!r}")
    num, exp = m.groups()
    return Fraction(int(num), 2 ** int(exp or 0))


def _write(path: str, text: str) -> bytes:
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def write_csv(path: str, fieldnames: list[str], rows: list[tuple]) -> bytes:
    """Write the header and the rows, each a tuple in header order, and
    return the bytes written; so do the writers below."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(rows)
    return _write(path, buf.getvalue())


def write_jsonl(path: str, records: list[dict]) -> bytes:
    """One line of sorted-key JSON per record, unindented: the C encoder."""
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    return _write(path, "".join(line + "\n" for line in lines))


def write_json(path: str, obj) -> bytes:
    return _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_manifest(
    *,
    config_text: str,
    version: str,
    reports: dict[str, bytes],
    timings: dict[str, float],
    summary: dict,
) -> dict:
    """The run manifest; ``reports`` maps report file names to the bytes written."""
    return {
        "config_sha256": sha256_text(config_text),
        "library_version": version,
        "net_indexing_note": NET_INDEXING_NOTE,
        "reports": {name: hashlib.sha256(data).hexdigest() for name, data in reports.items()},
        "timings_seconds": {k: round(v, 6) for k, v in sorted(timings.items())},
        "summary": summary,
    }
