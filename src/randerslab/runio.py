"""Seed derivation, deterministic formatting and atomic file output.

``derive_rng(root, tag, index)`` derives a generator from one root seed
as ``SeedSequence([root, sha256(tag)[:8], index])``, so independent tasks
(experiments, trials, parallel workers) get independent streams while a
rerun with the same root reproduces every stream bit-exactly.  The
mm-space samplers and the Lipschitz estimators seed ``default_rng``
directly instead (README, "Seeding").
"""

import hashlib
import itertools
import json
import os
import tempfile

import numpy as np
import orjson

_MASK64 = (1 << 64) - 1


class NumericError(Exception):
    """Base of every error by which a run fails numerically (exit 3)."""


def usable_cores() -> int:
    """Cores the process may use (sched_getaffinity is Linux-only;
    elsewhere every core counts)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def tag_entropy(tag: str) -> int:
    """Stable 64-bit entropy word for a task tag (platform independent)."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def derive_seed_sequence(root: int, tag: str, index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(root) & _MASK64, tag_entropy(tag), int(index)])


def derive_rng(root: int, tag: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed_sequence(root, tag, index))


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path, chunks) -> None:
    """Write the byte chunks in order to a temp file in the target
    directory, then rename it over ``path``; on any error the temp file is
    removed and ``path`` is left as it was."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    _atomic_write(path, (text.encode("utf-8"),))


_FEW_HITS = 8  # the hits after which _csv_line picks a row's path
_ROW_OPTIONS = orjson.OPT_PASSTHROUGH_SUBCLASS | orjson.OPT_SERIALIZE_NUMPY


def _str_line(row) -> bytes:
    """``",".join(map(str, cells))`` and a newline in UTF-8, where the
    cells are the row's cells with each ndarray flattened to its Python
    scalars."""
    if np.ndarray in map(type, row):
        row = itertools.chain.from_iterable(
            c.ravel().tolist() if type(c) is np.ndarray else (c,) for c in row)
    return (",".join(map(str, row)) + "\n").encode("utf-8")


def _csv_line(row) -> bytes:
    """``_str_line(row)``, by orjson where it can.

    orjson writes an int as ``str`` does, and a float, or an element of a
    float64 array, with the same shortest round-trip digits (Ryu), so for
    a row of plain ints, finite floats and nonempty C-contiguous float64
    arrays its text without brackets is the line, except the tokens of
    floats with 0 < |x| < 1e-4 or |x| >= 1e16: orjson writes ``0.00005``,
    ``9.6e-6`` or ``1e16`` where ``str`` writes ``5e-05``, ``9.6e-06`` or
    ``1e+16``.  A row whose values (one ``np.abs`` min and max per array)
    hold no such float is taken as it is.  In any other row, each token
    that holds ``e`` or ``0.0000`` is widened to its commas and replaced
    by the ``str`` of its float, the same double (a hit such as
    ``10.00001`` is rewritten to itself).  From about a quarter of the
    cells the rewrites cost more than the join, so a row whose first
    ``_FEW_HITS`` hits project to more is joined by ``str``.  So is any
    other row: cells of other types (strings, bools, None, numpy scalars,
    subclasses), arrays of another dtype (orjson writes float32 as
    float32), empty or non-contiguous arrays, ints beyond 64 bits, which
    orjson refuses, and rows holding NaN or an infinity, which orjson
    writes as null.
    """
    scan = False  # whether a float may be written unlike str
    for cell in row:
        kind = type(cell)
        if kind is float:
            scan = scan or not (1e-4 <= abs(cell) < 1e16 or cell == 0.0)
        elif kind is np.ndarray:
            if (cell.dtype != np.float64 or not cell.flags.c_contiguous
                    or not cell.size):
                return _str_line(row)
            if not scan:
                mag = np.abs(cell)
                scan = not (mag.min() >= 1e-4 and mag.max() < 1e16)
        elif kind is not int:
            return _str_line(row)
    try:
        b = orjson.dumps(row, option=_ROW_OPTIONS)
    except orjson.JSONEncodeError:
        return _str_line(row)
    b = b.replace(b"[", b"").replace(b"]", b"")
    if not scan:
        return b + b"\n"
    if b"l" in b:  # null
        return _str_line(row)
    parts = []
    done = 0  # b[:done] is copied or replaced
    e, z = b.find(b"e"), b.find(b"0.0000")
    while e >= 0 or z >= 0:
        if (len(parts) == 2 * _FEW_HITS
                and 4 * _FEW_HITS * len(b) > done * (b.count(b",") + 1)):
            return _str_line(row)
        hit = z if e < 0 or 0 <= z < e else e
        first = b.rfind(b",", 0, hit) + 1
        end = b.find(b",", hit)
        if end < 0:
            end = len(b)
        parts += (b[done:first], str(float(b[first:end])).encode("ascii"))
        done = end
        if 0 <= e < end:
            e = b.find(b"e", end)
        if 0 <= z < end:
            z = b.find(b"0.0000", end)
    parts += (b[done:], b"\n")
    return b"".join(parts)


def atomic_write_csv(path, header, rows) -> None:
    """CSV with a header row, '.' decimal separator, shortest round-trip floats.

    ``rows`` yields sequences of str, int, bool, float and ndarray cells
    (np.float64 is a float, float32 is not); each scalar is written as its
    ``str``, for a float its shortest round-trip decimal, and an array as
    its elements, flattened, as Python scalars.  Rows are formatted and
    written one at a time, so the file is never held whole, and a row may
    hold views of arrays that change once the next row is pulled.
    """
    _atomic_write(path, map(_csv_line, itertools.chain((header,), rows)))


def atomic_write_json(path, obj) -> None:
    """Standard JSON: a NaN or infinite value raises ``NumericError`` naming
    the file, and nothing is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{os.path.basename(path)}: {exc}") from None
    atomic_write_text(path, text + "\n")
