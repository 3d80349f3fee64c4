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
