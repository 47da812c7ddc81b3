"""``DisclosureIndicator`` against the scan-based LED it replaced.

The indicator keeps a live-collection count so ``is_on`` is O(1) and
appends history events directly.  The reference below decides every
state change by scanning the per-channel counts, as the original did;
over any interleaving of starts and stops the two must record the same
history, answer every query the same way and raise the same error.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConsentError
from repro.privacy import DisclosureIndicator

CHANNELS = ("gaze", "audio", "pose")


@dataclass
class _Event:
    time: float
    on: bool
    active_channels: Tuple[str, ...]


class ReferenceIndicator:
    """The LED with ``is_on`` as an ``any()`` scan over channel counts."""

    def __init__(self) -> None:
        self._active: Dict[str, int] = {}
        self._history: List[_Event] = []

    @property
    def is_on(self) -> bool:
        return any(count > 0 for count in self._active.values())

    @property
    def active_channels(self) -> Tuple[str, ...]:
        return tuple(sorted(c for c, n in self._active.items() if n > 0))

    def collection_started(self, channel: str, time: float) -> None:
        was_on = self.is_on
        self._active[channel] = self._active.get(channel, 0) + 1
        if not was_on:
            self._record(time)

    def collection_stopped(self, channel: str, time: float) -> None:
        if self._active.get(channel, 0) <= 0:
            raise ConsentError(
                f"collection_stopped({channel!r}) without matching start"
            )
        self._active[channel] -= 1
        if not self.is_on:
            self._record(time)

    def _record(self, time: float) -> None:
        self._history.append(
            _Event(time=time, on=self.is_on, active_channels=self.active_channels)
        )

    def was_on_at(self, time: float) -> bool:
        state = False
        for event in self._history:
            if event.time > time:
                break
            state = event.on
        return state

    @property
    def transitions(self) -> List[Tuple[float, bool]]:
        return [(e.time, e.on) for e in self._history]


def step(led, op, channel, time):
    """Apply one operation; return the error message it raised, if any."""
    try:
        if op == "start":
            led.collection_started(channel, time)
        else:
            led.collection_stopped(channel, time)
    except ConsentError as exc:
        return str(exc)
    return None


def history(led):
    return [(e.time, e.on, e.active_channels) for e in led._history]


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["start", "start", "stop"]),
            st.sampled_from(CHANNELS),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=40,
    ),
    probes=st.lists(st.floats(min_value=-1.0, max_value=50.0), max_size=8),
)
def test_indicator_matches_scan_reference(ops, probes):
    led, ref = DisclosureIndicator(), ReferenceIndicator()
    time = 0.0
    for op, channel, advance in ops:
        time += advance * 0.5
        assert step(led, op, channel, time) == step(ref, op, channel, time)
        assert led.is_on == ref.is_on
        assert led.active_channels == ref.active_channels
    assert history(led) == history(ref)
    assert led.transitions == ref.transitions
    for t in probes + [e.time for e in ref._history]:
        assert led.was_on_at(t) == ref.was_on_at(t)


def test_unmatched_stop_raises_and_leaves_state():
    led, ref = DisclosureIndicator(), ReferenceIndicator()
    for indicator in (led, ref):
        indicator.collection_started("gaze", 1.0)
        indicator.collection_stopped("gaze", 2.0)
    with pytest.raises(ConsentError) as got:
        led.collection_stopped("gaze", 3.0)
    with pytest.raises(ConsentError) as want:
        ref.collection_stopped("gaze", 3.0)
    assert str(got.value) == str(want.value)
    assert not led.is_on
    led.collection_started("audio", 4.0)
    ref.collection_started("audio", 4.0)
    assert history(led) == history(ref)
    assert led.is_on and led.active_channels == ("audio",)
