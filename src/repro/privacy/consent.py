"""Consent, granular switches, and disclosure cues.

§II-D, nearly verbatim requirements: "XR devices that collect sensible
data should provide granular control (switches) to manage the input
data flows from sensors and provide visual cues (e.g., LED in the
device) when personal data is collected or transmitted."

* :class:`ConsentRegistry` — per-subject, per-channel opt-in switches;
  the pipeline refuses to forward frames from unconsented channels.
* :class:`DisclosureIndicator` — the LED: it is *on* exactly while some
  channel is actively collecting, and keeps an inspectable on/off
  history so experiments can verify disclosure correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConsentError

__all__ = ["ConsentRegistry", "DisclosureIndicator"]


class ConsentRegistry:
    """Per-(subject, channel) opt-in switches.

    The default is **deny**: a channel must be explicitly granted
    (privacy-by-default, as GDPR art. 25 demands).  Bystanders can never
    be marked as consenting — they have no relationship with the device.
    """

    def __init__(self) -> None:
        self._granted: Set[Tuple[str, str]] = set()
        self._bystanders: Set[str] = set()
        self.denied_count = 0

    def register_bystander(self, subject: str) -> None:
        """Mark ``subject`` as a bystander; grants to them are illegal."""
        self._bystanders.add(subject)
        # Revoke anything previously granted by mistake.
        self._granted = {
            (s, c) for (s, c) in self._granted if s != subject
        }

    def grant(self, subject: str, channel: str) -> None:
        """Record opt-in for one channel.

        Raises
        ------
        ConsentError
            If ``subject`` is a registered bystander.
        """
        if subject in self._bystanders:
            raise ConsentError(
                f"bystander {subject} cannot consent to {channel!r} collection"
            )
        self._granted.add((subject, channel))

    def revoke(self, subject: str, channel: str) -> None:
        self._granted.discard((subject, channel))

    def revoke_all(self, subject: str) -> None:
        self._granted = {(s, c) for (s, c) in self._granted if s != subject}

    def is_granted(self, subject: str, channel: str) -> bool:
        return (subject, channel) in self._granted

    def check(self, subject: str, channel: str) -> None:
        """Enforce; counts denials for the transparency metrics."""
        if not self.is_granted(subject, channel):
            self.denied_count += 1
            raise ConsentError(
                f"no consent from {subject} for channel {channel!r}"
            )

    def channels_granted(self, subject: str) -> Set[str]:
        return {c for (s, c) in self._granted if s == subject}


@dataclass
class _IndicatorEvent:
    time: float
    on: bool
    active_channels: Tuple[str, ...]


class DisclosureIndicator:
    """The device LED: on iff any channel is actively collecting.

    :meth:`collection_started` / :meth:`collection_stopped` are called by
    the pipeline around every forwarded frame; the history lets tests
    assert the §II-D property "the LED is on whenever personal data is
    collected or transmitted".
    """

    def __init__(self) -> None:
        self._active: Dict[str, int] = {}
        # Open collections summed over channels: the LED is on iff > 0.
        self._live = 0
        self._history: List[_IndicatorEvent] = []

    @property
    def is_on(self) -> bool:
        return self._live > 0

    @property
    def active_channels(self) -> Tuple[str, ...]:
        return tuple(sorted(c for c, n in self._active.items() if n > 0))

    def collection_started(self, channel: str, time: float) -> None:
        self._active[channel] = self._active.get(channel, 0) + 1
        self._live += 1
        if self._live == 1:
            # Off -> on: ``channel`` is the only one collecting.
            self._history.append(_IndicatorEvent(time, True, (channel,)))

    def collection_stopped(self, channel: str, time: float) -> None:
        if self._active.get(channel, 0) <= 0:
            raise ConsentError(
                f"collection_stopped({channel!r}) without matching start"
            )
        self._active[channel] -= 1
        self._live -= 1
        if not self._live:
            self._history.append(_IndicatorEvent(time, False, ()))

    def was_on_at(self, time: float) -> bool:
        """Replay the history: was the LED on at ``time``?"""
        state = False
        for event in self._history:
            if event.time > time:
                break
            state = event.on
        return state

    @property
    def transitions(self) -> List[Tuple[float, bool]]:
        return [(e.time, e.on) for e in self._history]
