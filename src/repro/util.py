"""Small shared utilities: atomic writes, stable hashing, text helpers.

Determinism matters throughout this reproduction: the simulated LLM, the
dataset generators and the perturbation machinery must all produce the same
output for the same seed regardless of call order.  ``stable_uniform``
therefore derives randomness from a keyed BLAKE2b hash of its arguments
instead of from shared mutable RNG state.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import tempfile
from pathlib import Path


def atomic_write_text(path: Path | str, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary; an interrupted run leaves either
    the old file or the new one, never a truncated hybrid.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
        # mkstemp creates the file 0600; widen to what a plain open()
        # would have produced (0666 masked by the umask) so the replaced
        # artifact stays readable by whoever could read it before.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, target)
    finally:
        # After a successful replace the temp name is gone; on any
        # failure (including KeyboardInterrupt) this removes the orphan.
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)


def stable_hash(*parts: object, seed: int = 0) -> int:
    """A 64-bit hash of ``parts`` that is stable across processes and runs."""
    digest = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


def stable_uniform(*parts: object, seed: int = 0) -> float:
    """A deterministic pseudo-uniform draw in ``[0, 1)`` keyed by ``parts``."""
    return stable_hash(*parts, seed=seed) / 2**64


def normalize_value(value: object) -> str:
    """Canonical string form of an attribute value for comparisons.

    Lower-cases, strips and collapses internal whitespace so that
    ``"Christopher  Nolan "`` and ``"christopher nolan"`` agree.
    """
    return " ".join(str(value).strip().lower().split())


_THOUSANDS_RE = re.compile(r"(\d),(\d{3})\b")
_ALNUM_RE = re.compile(r"[a-z0-9]+")


def canonical_value(value: object) -> str:
    """Semantic canonical form used for *scoring* predictions.

    Collapses surface variation that does not change meaning — case,
    punctuation, token order ("Nolan, Christopher" ≡ "Christopher Nolan"),
    currency prefixes and thousands separators — so a method is graded on
    *what* it answered, not on which source's spelling it surfaced.
    Methods' internal grouping intentionally does NOT use this (alignment
    is part of what is being evaluated); see :func:`normalize_value`.
    """
    text = str(value).strip().lower()
    if text.startswith("$"):
        text = text[1:]
    text = _THOUSANDS_RE.sub(r"\1\2", text)
    tokens = sorted(_ALNUM_RE.findall(text))
    return " ".join(tokens)
