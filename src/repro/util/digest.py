"""Content hashing and canonical JSON for the experiment result cache.

The cache keys experiment runs by *content*: the experiment id, its
canonicalized kwargs, the package version, a digest of the experiment
module's source and a digest of the whole package's source. Everything
here is deterministic across processes and interpreter runs (no
``hash()``, which is salted per process).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Union

#: Types that canonicalize losslessly; anything else makes a run uncacheable.
_PLAIN_SCALARS = (type(None), bool, int, float, str)


def is_plain_data(value) -> bool:
    """True when ``value`` is JSON-representable primitive data.

    Only such values participate in cache keys: arbitrary objects fall
    back to ``repr`` which may embed memory addresses, so runs keyed on
    them could never be looked up reliably.
    """
    if isinstance(value, _PLAIN_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(is_plain_data(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and is_plain_data(item)
            for key, item in value.items()
        )
    return False


def canonical_json(value) -> str:
    """A deterministic JSON rendering: sorted keys, no whitespace.

    Tuples serialize as JSON arrays (indistinguishable from lists, which
    is what we want: ``run(lengths=(1, 2))`` and ``run(lengths=[1, 2])``
    are the same experiment). Non-JSON values degrade to ``repr`` so the
    function is total, but such values should be screened out with
    :func:`is_plain_data` before using the result as a cache key.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


def sha256_hex(data: Union[bytes, str]) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes (the 'source digest' of a module)."""
    return sha256_hex(Path(path).read_bytes())


def tree_digest(root: Union[str, Path]) -> str:
    """SHA-256 over every ``*.py`` file under ``root``: each file's path
    relative to ``root`` and its bytes, in sorted path order."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(file_digest(path).encode("ascii"))
    return digest.hexdigest()
