"""Self-time arithmetic of the benchmark's tracer, on hand-built span trees."""

from spans import Tracer, self_times


def columns(spans):
    """(name, start, end, parent) rows -> the start, end, parent columns."""
    return [s for _, s, _, _ in spans], [e for _, _, e, _ in spans], [p for *_, p in spans]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0, 100, -1),
        ("ber.run_monte_carlo", 10, 90, 0),
        ("filterbank.synthesize_pyramid", 20, 50, 1),
        ("filterbank.synthesis_step", 25, 35, 2),
        ("filterbank.synthesis_step", 40, 45, 2),
        ("channel.add_awgn", 60, 70, 1),
    ]
    own = self_times(*columns(spans))
    assert list(own) == [20, 40, 15, 10, 5, 10]
    # Self times of a tree add up to its root's duration.
    assert sum(own) == 100


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        ("parent", 0, 100, -1),
        ("b", 30, 60, 0),  # listed before a, starts after it
        ("a", 10, 40, 0),  # overlaps b by 10
        ("c", 90, 120, 0),  # runs 20 past the parent's end
    ]
    assert self_times(*columns(spans))[0] == 100 - 50 - 10


def test_tracer_records_nesting_and_totals_by_name():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    spans = list(tracer.spans())
    assert [name for name, *_ in spans] == ["outer", "inner", "inner"]
    assert [p for *_, p in spans] == [-1, 0, 0]
    totals = tracer.totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 2
    root = spans[0][2] - spans[0][1]
    assert totals["outer"][1] + totals["inner"][1] == root
    assert all(t >= 0 for _, t in totals.values())
