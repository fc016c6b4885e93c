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


def _csv_line(row) -> bytes:
    """The cells' texts joined by commas, and a newline, in UTF-8.

    A cell is written as its ``str``, an ndarray cell as the ``str`` of
    each element, flattened, as a Python scalar.  orjson writes a float64
    element with the same shortest round-trip digits (Ryu) except where
    ``str`` switches to exponent form, 0 < |x| < 1e-4 and |x| >= 1e16, and
    NaN and the infinities, which it writes as null.  So a float64 array
    goes to orjson whole when one ``np.abs`` min and max show no such odd
    element, and is otherwise cut into runs, the odd runs written by
    ``str``.  Arrays of other dtypes go to ``str``: orjson writes float32
    as float32 (``0.1`` where ``str`` of the element writes
    ``0.10000000149011612``).
    """
    texts = []  # each followed by a comma
    strs = []  # the str texts since the last float64 array
    for cell in row:
        if type(cell) is not np.ndarray:
            strs.append(str(cell))
            continue
        flat = cell.ravel()  # C-contiguous, as orjson needs
        if flat.dtype != np.float64 or not flat.size:
            strs += map(str, flat.tolist())
            continue
        if strs:
            texts += (",".join(strs).encode("utf-8"), b",")
            strs = []
        mag = np.abs(flat)
        if mag.min() >= 1e-4 and mag.max() < 1e16:
            texts += (_orjson_join(flat), b",")
            continue
        odd = (mag < 1e-4) & (flat != 0) | ~(mag < 1e16)
        starts = [0, *(np.flatnonzero(odd[1:] != odd[:-1]) + 1).tolist()]
        ends = [*starts[1:], flat.size]
        for a, b, by_str in zip(starts, ends, odd[starts].tolist()):
            run = flat[a:b]
            texts += (",".join(map(str, run.tolist())).encode("ascii")
                      if by_str else _orjson_join(run), b",")
    if strs:
        texts += (",".join(strs).encode("utf-8"), b",")
    texts[-1:] = [b"\n"]  # in place of the last comma, if any
    return b"".join(texts)


def _orjson_join(flat) -> memoryview:
    """orjson's text of a nonempty float64 array, brackets removed."""
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    return memoryview(text)[1:-1]


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
