"""Span arithmetic and wrapper install/uninstall of the traced run."""

from __future__ import annotations

import asyncio
import contextvars
import inspect
import sys
import threading
import types

import pytest

from benchmarks.e2e import layers
from benchmarks.e2e.trace import (
    END,
    NAME,
    PARENT,
    REQUEST,
    REQUEST_SPAN,
    Recorder,
    Target,
    install,
    self_times,
)


def _span(span_id, parent, start, end, thread=1):
    return (span_id, parent, f"s{span_id}", start, end, thread, None)


class TestSelfTimes:
    def test_nested(self):
        spans = [_span(1, None, 0, 10), _span(2, 1, 2, 5), _span(3, 2, 3, 4)]
        assert self_times(spans) == {1: 7, 2: 2, 3: 1}

    def test_sibling_children_add(self):
        spans = [_span(1, None, 0, 10), _span(2, 1, 1, 3), _span(3, 1, 5, 9)]
        assert self_times(spans)[1] == 4

    def test_overlapping_cross_thread_children_are_merged(self):
        spans = [
            _span(1, None, 0, 10, thread=1),
            _span(2, 1, 1, 6, thread=2),
            _span(3, 1, 4, 8, thread=3),
        ]
        assert self_times(spans)[1] == 3  # union [1, 8] covers 7

    def test_child_outliving_its_parent_is_clipped(self):
        spans = [_span(1, None, 0, 10), _span(2, 1, 8, 15, thread=2)]
        assert self_times(spans) == {1: 8, 2: 7}

    def test_children_covering_everything_leave_zero(self):
        spans = [_span(1, None, 0, 4), _span(2, 1, 0, 3, 2), _span(3, 1, 1, 4, 3)]
        assert self_times(spans)[1] == 0


def _ticking_clock():
    ticks = iter(range(1, 10_000))
    return lambda: float(next(ticks))


class TestRecorder:
    def test_nested_calls_link_parents(self):
        recorder = Recorder(clock=_ticking_clock())
        inner = recorder.wrap(lambda: None, Target("m:inner", "tech.inner"))
        outer = recorder.wrap(lambda: inner(), Target("m:outer", "noc.outer"))
        outer()
        by_name = {span[NAME]: span for span in recorder.spans}
        assert by_name["tech.inner"][PARENT] == by_name["noc.outer"][0]
        assert by_name["noc.outer"][PARENT] is None
        # outer: ticks 1..4, inner: ticks 2..3 -> self times 2 and 1.
        own = self_times(recorder.spans)
        assert own[by_name["noc.outer"][0]] == 2
        assert own[by_name["tech.inner"][0]] == 1

    def test_cross_thread_child_keeps_its_parent(self):
        recorder = Recorder()
        child = recorder.wrap(lambda: None, Target("m:child", "tech.child"))

        def parent():
            context = contextvars.copy_context()
            thread = threading.Thread(target=context.run, args=(child,))
            thread.start()
            thread.join(10)
            assert not thread.is_alive()

        recorder.wrap(parent, Target("m:parent", "noc.parent"))()
        by_name = {span[NAME]: span for span in recorder.spans}
        assert by_name["tech.child"][PARENT] == by_name["noc.parent"][0]
        assert by_name["tech.child"][5] != by_name["noc.parent"][5]
        own = self_times(recorder.spans)
        child_s = by_name["tech.child"][END] - by_name["tech.child"][3]
        parent_s = by_name["noc.parent"][END] - by_name["noc.parent"][3]
        assert own[by_name["noc.parent"][0]] == pytest.approx(parent_s - child_s)

    def test_async_wrapper_and_request_spans(self):
        recorder = Recorder()

        async def read():
            return "request"

        async def handle():
            return "ok"

        async def write():
            return None

        wrapped_read = recorder.wrap(read, Target("m:read", "serve.read", span=False, begins_request=True))
        wrapped_handle = recorder.wrap(handle, Target("m:handle", "serve.handle"))
        wrapped_write = recorder.wrap(write, Target("m:write", "serve.write", ends_request=True))
        assert inspect.iscoroutinefunction(wrapped_handle)

        async def connection():
            for _ in range(2):
                await wrapped_read()
                await wrapped_handle()
                await wrapped_write()

        asyncio.run(connection())
        names = [span[NAME] for span in recorder.spans]
        assert names.count("serve.handle") == 2 and names.count(REQUEST_SPAN) == 2
        assert "serve.read" not in names
        requests = {span[REQUEST] for span in recorder.spans}
        assert requests == {1, 2}

    def test_exceptions_still_record_the_span(self):
        recorder = Recorder()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            recorder.wrap(boom, Target("m:boom", "tech.boom"))()
        assert [span[NAME] for span in recorder.spans] == ["tech.boom"]


@pytest.fixture
def fake_modules():
    """``repro._e2e_fake_{a,b}``: a function, an alias of it, a class."""
    a = types.ModuleType("repro._e2e_fake_a")

    def f(x):
        return x + 1

    class C:
        def m(self):
            return f(1)

        @staticmethod
        def s():
            return 2

    a.f, a.C = f, C
    b = types.ModuleType("repro._e2e_fake_b")
    b.f = f  # what ``from repro._e2e_fake_a import f`` leaves behind
    sys.modules[a.__name__] = a
    sys.modules[b.__name__] = b
    yield a, b
    for name in (a.__name__, b.__name__, "repro._e2e_fake_c"):
        sys.modules.pop(name, None)


def test_install_and_uninstall_restore_every_reference(fake_modules):
    a, b = fake_modules
    f, C = a.f, a.C
    m, s = vars(C)["m"], vars(C)["s"]
    recorder = Recorder()
    installation = install(
        recorder,
        [
            Target("repro._e2e_fake_a:f", "tech.f"),
            Target("repro._e2e_fake_a:C.m", "noc.m"),
            Target("repro._e2e_fake_a:C.s", "noc.s"),
        ],
    )
    assert a.f is not f and b.f is a.f
    assert isinstance(vars(C)["s"], staticmethod)
    assert C().m() == 2 and C.s() == 2 and b.f(1) == 2
    assert sorted({span[NAME] for span in recorder.spans}) == ["noc.m", "noc.s", "tech.f"]
    # A module imported after the install binds the wrapper; uninstall
    # must find and restore that reference too.
    late = types.ModuleType("repro._e2e_fake_c")
    late.f = a.f
    sys.modules[late.__name__] = late
    installation.uninstall()
    assert a.f is f and b.f is f and late.f is f
    assert vars(C)["m"] is m and vars(C)["s"] is s


def test_install_rejects_an_inherited_method(fake_modules):
    a, _ = fake_modules
    a.D = type("D", (a.C,), {})
    with pytest.raises(LookupError):
        install(Recorder(), [Target("repro._e2e_fake_a:D.m", "noc.m")])
    assert "m" not in vars(a.D)


def test_layer_targets_install_and_uninstall_cleanly():
    """Every declared entry point resolves, and uninstall leaves the
    ``repro`` package exactly as it found it."""
    import repro.experiments.cli  # noqa: F401
    import repro.serve  # noqa: F401

    def snapshot():
        state = {}
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in vars(module).items():
                    state[(name, attr)] = value
                    if inspect.isclass(value):
                        for key, member in vars(value).items():
                            state[(name, attr, key)] = member
        return state

    before = snapshot()
    installation = install(Recorder(), layers.TARGETS)
    assert installation.n_patched >= len(layers.TARGETS)
    installation.uninstall()
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
