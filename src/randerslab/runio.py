"""Seed derivation, deterministic formatting and atomic file output.

``derive_rng(root, tag, index)`` derives a generator from one root seed
as ``SeedSequence([root, sha256(tag)[:8], index])``, so independent tasks
(experiments, trials, parallel workers) get independent streams while a
rerun with the same root reproduces every stream bit-exactly.  The
mm-space samplers and the Lipschitz estimators seed ``default_rng``
directly instead (README, "Seeding").
"""

import hashlib
import json
import os
import tempfile

import numpy as np

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
    """Write the text chunks in order to a temp file in the target
    directory, then rename it over ``path``; on any error the temp file is
    removed and ``path`` is left as it was."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    _atomic_write(path, (text,))


def atomic_write_csv(path, header, rows) -> None:
    """CSV with a header row, '.' decimal separator, shortest round-trip floats.

    ``rows`` yields sequences of str, int, bool and float cells (np.float64
    is a float, float32 is not), each written as its ``str``, for a float
    its shortest round-trip decimal.  Rows are formatted and written one at
    a time, so the file is never held whole.
    """
    def lines():
        yield ",".join(header) + "\n"
        for row in rows:
            yield ",".join(map(str, row)) + "\n"

    _atomic_write(path, lines())


def atomic_write_json(path, obj) -> None:
    """Standard JSON: a NaN or infinite value raises ``NumericError`` naming
    the file, and nothing is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{os.path.basename(path)}: {exc}") from None
    atomic_write_text(path, text + "\n")
