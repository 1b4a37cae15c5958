import pickle

import pytest

from repro.grid import ChannelSpan, ChannelState
from repro.grid.channels import build_state, spans_by_channel


def sw(net, channel, lo, hi, row):
    return ChannelSpan(net=net, channel=channel, lo=lo, hi=hi, switchable=True, row=row)


def test_span_normalizes_bounds():
    s = ChannelSpan(net=0, channel=1, lo=9, hi=2)
    assert (s.lo, s.hi) == (2, 9)
    assert s.length == 7


def test_switchable_needs_row():
    with pytest.raises(ValueError):
        ChannelSpan(net=0, channel=1, lo=0, hi=5, switchable=True)


def test_switchable_channel_must_be_adjacent():
    with pytest.raises(ValueError):
        ChannelSpan(net=0, channel=5, lo=0, hi=5, switchable=True, row=1)


def test_other_channel():
    s = sw(0, 2, 0, 5, row=1)
    assert s.other_channel() == 1
    s2 = sw(0, 1, 0, 5, row=1)
    assert s2.other_channel() == 2


def test_other_channel_non_switchable_raises():
    with pytest.raises(ValueError):
        ChannelSpan(net=0, channel=1, lo=0, hi=5).other_channel()


def test_state_density_and_total():
    st = ChannelState(0, 3)
    st.add_span(ChannelSpan(net=0, channel=1, lo=0, hi=10))
    st.add_span(ChannelSpan(net=1, channel=1, lo=5, hi=15))
    st.add_span(ChannelSpan(net=2, channel=2, lo=0, hi=3))
    assert st.density(1) == 2
    assert st.density(2) == 1
    assert st.total_tracks() == 3
    assert st.densities() == {0: 0, 1: 2, 2: 1, 3: 0}


def test_state_window_enforced():
    st = ChannelState(2, 4)
    with pytest.raises(IndexError):
        st.density(1)
    assert st.owns(2) and st.owns(4) and not st.owns(5)


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        ChannelState(3, 2)


def test_flip_moves_span():
    st = ChannelState(0, 2)
    a = sw(0, 2, 0, 10, row=1)
    st.add_span(a)
    st.flip(a)
    assert a.channel == 1
    assert st.density(1) == 1 and st.density(2) == 0


def test_flip_gain_positive_when_it_reduces_total_tracks():
    st = ChannelState(0, 2)
    # channel 2 has two stacked spans; channel 1 is busy elsewhere, so the
    # candidate can move there without raising channel 1's density
    st.add_span(ChannelSpan(net=0, channel=2, lo=0, hi=10))
    st.add_span(ChannelSpan(net=1, channel=1, lo=20, hi=30))
    cand = sw(9, 2, 0, 10, row=1)
    st.add_span(cand)
    assert st.flip_gain(cand) == 1
    # gain evaluation must not mutate state
    assert st.density(2) == 2 and st.density(1) == 1


def test_flip_gain_zero_when_fully_overlapped_everywhere():
    # moving between an overlapped stack and an empty channel keeps the
    # total track count: the optimizer minimizes the sum, not the max
    st = ChannelState(0, 2)
    for net in range(3):
        st.add_span(ChannelSpan(net=net, channel=2, lo=0, hi=10))
    cand = sw(9, 2, 0, 10, row=1)
    st.add_span(cand)
    assert st.flip_gain(cand) == 0


def test_flip_gain_zero_for_non_switchable():
    st = ChannelState(0, 2)
    s = ChannelSpan(net=0, channel=1, lo=0, hi=5)
    st.add_span(s)
    assert st.flip_gain(s) == 0


def test_flip_gain_zero_outside_window():
    st = ChannelState(2, 2)
    s = sw(0, 2, 0, 5, row=1)  # other channel is 1, outside window
    st.add_span(s)
    assert st.flip_gain(s) == 0


def test_externals_count_in_density():
    st = ChannelState(0, 2)
    st.add_external(1, [(0, 10), (5, 15)])
    assert st.density(1) == 2


def test_replace_externals():
    st = ChannelState(0, 2)
    st.add_span(ChannelSpan(net=0, channel=1, lo=0, hi=10))
    st.add_external(1, [(0, 10)])
    assert st.density(1) == 2
    st.replace_externals({1: [(20, 30)], 2: [(0, 5)]})
    assert st.density(1) == 1  # old external gone, new one elsewhere
    assert st.density(2) == 1
    st.replace_externals({})
    assert st.density(1) == 1 and st.density(2) == 0


def test_replace_externals_ignores_foreign_channels():
    st = ChannelState(0, 2)
    st.replace_externals({9: [(0, 5)]})
    assert st.total_tracks() == 0


def test_build_state_and_grouping():
    spans = [
        ChannelSpan(net=0, channel=1, lo=0, hi=5),
        ChannelSpan(net=1, channel=1, lo=2, hi=8),
        ChannelSpan(net=2, channel=3, lo=0, hi=1),
    ]
    st = build_state(spans, 0, 3)
    assert st.density(1) == 2
    groups = spans_by_channel(spans)
    assert len(groups[1]) == 2 and len(groups[3]) == 1


@pytest.mark.parametrize(
    "span",
    [ChannelSpan(4, 2, 9, 3), ChannelSpan(5, 3, 1, 7, switchable=True, row=2)],
)
def test_span_wire_round_trip_skips_cached_interval(span):
    assert span.interval.lo == span.lo  # populate the lazy cache
    data = pickle.dumps(span, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"Interval" not in data
    back = pickle.loads(data)
    assert back == span
    assert (back.net, back.channel, back.lo, back.hi, back.switchable, back.row) == (
        span.net, span.channel, span.lo, span.hi, span.switchable, span.row
    )
    assert back._interval is None
    assert back.interval == span.interval
