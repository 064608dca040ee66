"""Span recorder and entry-point wrapping for the traced benchmark run.

A span is ``(id, parent, name, start, end, thread, request)``. Spans come
from wrappers this module installs around the public entry points of the
``repro`` layers (the table lives in :mod:`benchmarks.e2e.layers`), so no
file under ``src/`` knows about tracing. They are kept in memory and
dumped when the traced process exits.

* The parent is the span open in the caller's context when the span
  starts (a ``contextvars`` variable, so asyncio tasks and threads each
  see their own). Work handed to an executor thread starts a new root.
* Wrapping a method replaces the class attribute. Wrapping a module
  function replaces every ``repro.*`` module global bound to that same
  function object, because callers bind names with ``from … import``.
  :meth:`Installation.uninstall` restores all of them, including
  bindings made by modules imported after the install.
* A target may mark the start or the end of a served request. Spans that
  start while a request is open carry its id; the request itself is
  recorded as one ``serve.request`` span.

Self time (:func:`self_times`) is a span's duration minus the part of its
interval its children cover. Children are merged as intervals before
subtracting, so overlapping children (on other threads) are not counted
twice and self time is never negative.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(id, parent, name, start, end, thread, request)``; times are
#: ``time.monotonic()`` seconds, comparable across processes on one host.
Span = Tuple[int, Optional[int], str, float, float, int, Optional[int]]

ID, PARENT, NAME, START, END, THREAD, REQUEST = range(7)

_SPAN: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)
#: ``(request id, start time)`` of the request being served, if any.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_request", default=None
)

#: Name of the span recorded per served request.
REQUEST_SPAN = "serve.request"


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``path`` is ``"module:qualname"``. ``name`` is ``<layer>.<what>``.
    ``on_result(recorder, result)`` turns the return value into counts
    (:meth:`Recorder.count`).
    ``span=False`` records no span (a hook only). ``begins_request``
    opens a request when the call returns a non-``None`` value;
    ``ends_request`` closes the open request when the call returns.
    """

    path: str
    name: str
    on_result: Optional[Callable[["Recorder", object], None]] = None
    span: bool = True
    begins_request: bool = False
    ends_request: bool = False


class Recorder:
    """In-memory span and count store (append-only, GIL-atomic)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.spans: List[Span] = []
        #: ``(time, key, amount)``, so counts can be cut to a window.
        self.counts: List[Tuple[float, str, float]] = []
        self.clock = clock
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts.append((self.clock(), key, amount))

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A span-recording wrapper around ``fn`` (async-aware)."""
        spans_append = self.spans.append
        ids = self._ids
        clock = self.clock
        get_ident = threading.get_ident
        name = target.name
        on_result = target.on_result
        record = target.span
        recorder = self

        def enter():
            parent = _SPAN.get()
            span_id = next(ids)
            return parent, span_id, _SPAN.set(span_id), clock()

        def leave(parent, span_id, token, start, result):
            end = clock()
            _SPAN.reset(token)
            request = _REQUEST.get()
            if record:
                spans_append(
                    (span_id, parent, name, start, end, get_ident(),
                     request[0] if request else None)
                )
            if target.ends_request and request is not None:
                spans_append(
                    (next(ids), None, REQUEST_SPAN, request[1], end,
                     get_ident(), request[0])
                )
                _REQUEST.set(None)
            if target.begins_request and result is not None:
                _REQUEST.set((next(recorder._requests), end))
            if on_result is not None:
                on_result(recorder, result)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = enter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(*state, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(*state, result)

        return wrapper


class Installation:
    """The references :func:`install` patched, and how to put them back."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while the table is in use.
        self._originals: Dict[int, Tuple[object, object]] = {}

    def patch(self, owner: object, attr: str, original: object, new: object) -> None:
        self._patches.append((owner, attr, original))
        self._originals[id(new)] = (new, original)
        setattr(owner, attr, new)

    @property
    def n_patched(self) -> int:
        return len(self._patches)

    def uninstall(self) -> None:
        """Restore every patched reference, late ``from`` imports too."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._patches.clear()
        self._originals.clear()


def _repro_modules() -> Iterable[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(path: str) -> Tuple[object, str]:
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder, targets: Sequence[Target]) -> Installation:
    """Wrap every target; raises ``LookupError`` if one does not resolve."""
    installation = Installation()
    try:
        for target in targets:
            owner, attr = _resolve(target.path)
            if inspect.isclass(owner):
                if attr not in vars(owner):
                    raise LookupError(
                        f"{target.path}: {attr} is not defined on "
                        f"{owner.__qualname__} itself"
                    )
                raw = vars(owner)[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(recorder.wrap(raw.__func__, target))
                else:
                    new = recorder.wrap(raw, target)
                installation.patch(owner, attr, raw, new)
                continue
            fn = getattr(owner, attr)
            new = recorder.wrap(fn, target)
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        installation.patch(module, name, fn, new)
    except BaseException:
        installation.uninstall()
        raise
    return installation


# -- analysis -----------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        kids = children.get(span[ID])
        covered = 0.0
        if kids:
            covered = _covered(
                [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
            )
        result[span[ID]] = max(0.0, end - start - covered)
    return result


def count_totals(
    counts: Iterable[Tuple[float, str, float]], t0: float, t1: float
) -> Counter:
    """Per-key sums of the counts made inside ``[t0, t1)``."""
    totals: Counter = Counter()
    for when, key, amount in counts:
        if t0 <= when < t1:
            totals[key] += amount
    return totals
