"""Final channel state: wire spans, densities, switchable segments.

After net connection (TWGR step 4) every net is a set of horizontal
*spans*, each living in one routing channel.  The number of tracks a
channel needs is the maximum overlap of its spans; total tracks — the
paper's headline quality metric — is the sum over channels.

A span whose two endpoint pins both have electrically-equivalent twins on
the opposite cell side is *switchable*: it may live in the channel above
or below its home row, and step 5 flips such spans to balance densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry import Interval, IntervalSet
from repro.perfmodel.counter import WorkCounter, NULL_COUNTER


@dataclass(slots=True)
class ChannelSpan:
    """One horizontal wire span inside a channel.

    ``row`` is the home row of a switchable span (its channel is then
    ``row`` — below — or ``row + 1`` — above); non-switchable spans keep
    ``row = -1``.
    """

    net: int
    channel: int
    lo: int
    hi: int
    switchable: bool = False
    row: int = -1
    # lo/hi are immutable after normalization (only ``channel`` ever
    # changes), so the column interval is built at most once — lazily,
    # since the flip kernels work from the bare bounds and most spans
    # never need the object form.
    _interval: Optional[Interval] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            self.lo, self.hi = self.hi, self.lo
        if self.switchable and self.row < 0:
            raise ValueError("switchable spans need a home row")
        if self.switchable and self.channel not in (self.row, self.row + 1):
            raise ValueError(
                f"switchable span channel {self.channel} not adjacent to row {self.row}"
            )

    def __reduce__(self):
        # the six constructor fields; the cached interval is not shipped
        return (
            ChannelSpan,
            (self.net, self.channel, self.lo, self.hi, self.switchable, self.row),
        )

    @property
    def interval(self) -> Interval:
        """The span's column interval."""
        iv = self._interval
        if iv is None:
            iv = self._interval = Interval(self.lo, self.hi)
        return iv

    @property
    def length(self) -> int:
        """Horizontal wirelength of the span."""
        return self.hi - self.lo

    def other_channel(self) -> int:
        """The alternative channel of a switchable span."""
        if not self.switchable:
            raise ValueError("span is not switchable")
        return self.row if self.channel == self.row + 1 else self.row + 1


class ChannelState:
    """Density bookkeeping over a window of channels.

    The window (``ch_lo .. ch_hi`` inclusive) lets a row-wise rank hold
    only the channels its rows touch; indices stay global.  External spans
    (a neighbour rank's contribution to a shared boundary channel, paper
    §4) can be folded in so flip decisions see the true density.
    """

    def __init__(self, ch_lo: int, ch_hi: int) -> None:
        if ch_lo > ch_hi:
            raise ValueError("empty channel window")
        self.ch_lo = ch_lo
        self.ch_hi = ch_hi
        self._sets: Dict[int, IntervalSet] = {
            ch: IntervalSet() for ch in range(ch_lo, ch_hi + 1)
        }
        # externally-contributed intervals, tracked so they can be replaced
        self._external: Dict[int, List[Interval]] = {}
        # monotone per-channel version counters: every mutation of a
        # channel's interval set (span edits, flips, external resyncs)
        # bumps its counter, so any quantity derived purely from a
        # channel's span profile — a flip gain, a density, a work charge —
        # stays provably fresh while the versions it was computed under
        # are unchanged.  This is the channel-window analogue of
        # CoarseGrid._wver.
        self._ver: Dict[int, int] = {}
        #: extra work units charged per flip evaluation — set by callers
        #: whose real implementation consults channel structures larger
        #: than the locally-held spans (net-wise scalar sync mode)
        self.eval_surcharge: float = 0.0

    # -- membership --------------------------------------------------------

    def owns(self, channel: int) -> bool:
        """True when ``channel`` lies in this state's window."""
        return self.ch_lo <= channel <= self.ch_hi

    def _set(self, channel: int) -> IntervalSet:
        try:
            return self._sets[channel]
        except KeyError:
            raise IndexError(
                f"channel {channel} outside window [{self.ch_lo}, {self.ch_hi}]"
            ) from None

    def version(self, channel: int) -> int:
        """Monotone mutation counter of one channel's interval set."""
        return self._ver.get(channel, 0)

    def _bump(self, channel: int) -> None:
        self._ver[channel] = self._ver.get(channel, 0) + 1

    def add_span(self, span: ChannelSpan) -> None:
        """Insert a span into its channel's interval set."""
        self._set(span.channel).add_range(span.lo, span.hi)
        self._bump(span.channel)

    def remove_span(self, span: ChannelSpan) -> None:
        """Remove a previously-added span."""
        self._set(span.channel).remove_range(span.lo, span.hi)
        self._bump(span.channel)

    def add_external(self, channel: int, intervals: Iterable[Tuple[int, int]]) -> None:
        """Fold in spans owned by another rank (boundary-channel sync)."""
        s = self._set(channel)
        bucket = self._external.setdefault(channel, [])
        for lo, hi in intervals:
            iv = Interval(lo, hi)
            s.add(iv)
            bucket.append(iv)
        self._bump(channel)

    def replace_externals(self, per_channel: Dict[int, List[Tuple[int, int]]]) -> None:
        """Swap the external snapshot for a fresh one (net-wise resync).

        Removes every previously-added external interval, then installs
        the new ones; the rank's own spans are untouched.  Every channel
        whose externals are removed or reinstalled is bumped (reinstalls
        bump even when the new snapshot equals the old — conservative,
        never stale).
        """
        for ch, bucket in self._external.items():
            s = self._set(ch)
            for iv in bucket:
                s.remove(iv)
            self._bump(ch)
        self._external.clear()
        for ch, intervals in per_channel.items():
            if self.owns(ch):
                self.add_external(ch, intervals)

    # -- queries -------------------------------------------------------------

    def density(self, channel: int) -> int:
        """Track requirement of one channel."""
        return self._set(channel).density()

    def total_tracks(self) -> int:
        """Sum of channel densities over the window."""
        return sum(s.density() for s in self._sets.values())

    def densities(self) -> Dict[int, int]:
        """``channel -> density`` over the window."""
        return {ch: s.density() for ch, s in self._sets.items()}

    def span_count(self, channel: int) -> int:
        """Number of spans currently in ``channel``."""
        return len(self._set(channel))

    # -- switchable optimization (step 5 kernel) ------------------------------

    def flip_gain(self, span: ChannelSpan, counter: WorkCounter = NULL_COUNTER) -> int:
        """Track-count reduction achieved by flipping ``span``.

        Positive means flipping helps.  Channels outside the window count
        as unavailable (gain impossible).
        """
        if not span.switchable:
            return 0
        src = span.channel
        row = span.row
        dst = row if src == row + 1 else row + 1
        sets = self._sets
        s_src = sets.get(src)
        s_dst = sets.get(dst)
        if s_src is None or s_dst is None:  # outside the window
            return 0
        counter.add("switch", len(s_src) + len(s_dst) + 1 + self.eval_surcharge)
        # The flip delta follows directly from the two channels' cached
        # density profiles — no remove/add/recompute/restore round trip.
        lo, hi = span.lo, span.hi
        before = s_src.density() + s_dst.density()
        after = s_src.whatif_density(lo, hi, -1) + s_dst.whatif_density(lo, hi, 1)
        return before - after

    def flip(self, span: ChannelSpan) -> None:
        """Move a switchable span to its alternative channel."""
        dst = span.other_channel()
        self._set(span.channel).remove_range(span.lo, span.hi)
        self._set(dst).add_range(span.lo, span.hi)
        self._bump(span.channel)
        self._bump(dst)
        span.channel = dst


def spans_by_channel(spans: Sequence[ChannelSpan]) -> Dict[int, List[ChannelSpan]]:
    """Group spans per channel (used for reporting and boundary sync)."""
    out: Dict[int, List[ChannelSpan]] = {}
    for s in spans:
        out.setdefault(s.channel, []).append(s)
    return out


def build_state(
    spans: Sequence[ChannelSpan], ch_lo: int, ch_hi: int
) -> ChannelState:
    """Create a :class:`ChannelState` pre-loaded with ``spans``."""
    state = ChannelState(ch_lo, ch_hi)
    for s in spans:
        state.add_span(s)
    return state
