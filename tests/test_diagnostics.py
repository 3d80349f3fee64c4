import ast
import contextvars
import sys
import threading
from pathlib import Path

import polyscope
from polyscope.diagnostics import collect, memo, record


def test_nested_empty_collectors_stay_separate():
    # the two sinks are equal (both empty) when the inner block closes
    with collect() as outer:
        with collect() as inner:
            pass
        record("probe", "after the inner block")
    assert [e.category for e in outer] == ["probe"]
    assert inner == []
    record("probe", "after both blocks")
    assert len(outer) == 1


def test_event_lands_in_every_active_collector():
    with collect() as outer:
        with collect() as inner:
            record("probe", "inside both")
    assert len(outer) == len(inner) == 1


def test_threads_collecting_at_once_keep_their_own_events():
    barrier = threading.Barrier(2, timeout=10)
    seen = {}

    def work(name):
        with collect() as events:
            barrier.wait()          # both collectors are open
            record("probe", name)
            barrier.wait()          # both events are recorded
        seen[name] = [e.message for e in events]

    threads = [threading.Thread(target=work, args=(name,)) for name in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {"a": ["a"], "b": ["b"]}


def test_a_kept_result_gives_each_collector_its_events_once():
    store, runs = {}, []

    def inner():
        runs.append("inner")
        record("probe", "inner")
        return 1

    def outer():
        runs.append("outer")
        record("probe", "outer")
        return memo(store, "inner", inner) + 1

    with collect() as first:
        assert memo(store, "outer", outer) == 2
        assert memo(store, "inner", inner) == 1
    with collect() as both:
        with collect() as nested:
            memo(store, "inner", inner)
        memo(store, "outer", outer)
    assert runs == ["outer", "inner"]
    assert [e.message for e in first] == ["outer", "inner"]
    assert [e.message for e in nested] == ["inner"]
    assert [e.message for e in both] == ["inner", "outer"]
    assert first[1] is nested[0] is both[0]


def test_one_memo_rule_in_the_library():
    # per-input results are kept only by ``memo``: no other cache, and the
    # one lock it needs is the only threading in the library
    banned = {("functools", "cached_property"), ("functools", "lru_cache"),
              ("functools", "cache"), ("weakref", "WeakKeyDictionary")}
    found = []
    for path in sorted(Path(polyscope.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {(node.module, alias.name) for alias in node.names}
                modules = {node.module}
            elif isinstance(node, ast.Import):
                names, modules = set(), {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names, modules = {(node.value.id, node.attr)}, set()
            else:
                continue
            found += [(path.stem, *name) for name in names & banned]
            if "threading" in modules and path.stem != "diagnostics":
                found.append((path.stem, "threading"))
    assert found == []


def test_threads_sharing_a_collector_get_each_kept_event_once():
    store, runs, barrier = {}, [], threading.Barrier(6, timeout=10)

    def compute(key):
        runs.append(key)
        for i in range(300):
            record("probe", f"{key}-{i}")
        return key

    def reads():
        barrier.wait()
        for key in range(10):
            memo(store, key, lambda: compute(key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with collect() as events:
            # copied contexts: every thread reads under the one collector
            threads = [threading.Thread(target=contextvars.copy_context().run,
                                        args=(reads,)) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert runs == list(range(10))
    assert [e.message for e in events] == [
        f"{key}-{i}" for key in range(10) for i in range(300)]
