import threading

from polyscope.diagnostics import collect, record


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
