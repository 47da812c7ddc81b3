"""Liquid democracy: vote delegation with cycle safety.

The paper worries that flat DAO designs "hinder the members' involvement
... as the number of voting sessions can become cumbersome" (§III-B).
Delegation is the classic mitigation: a member who cannot attend every
vote hands their voice to a delegate, transitively.

:class:`DelegationGraph` stores at most one outgoing delegation per
member, rejects self-delegation, refuses edges that would close a cycle,
and resolves transitive chains with a hop bound.
"""

from __future__ import annotations

from typing import Dict, KeysView, List, Optional

from repro.errors import VotingError

__all__ = ["DelegationGraph"]


class DelegationGraph:
    """Per-topic delegation edges (use one graph per topic for
    topic-scoped delegation, or a single graph for global delegation)."""

    def __init__(self, max_chain_length: int = 32):
        if max_chain_length < 1:
            raise VotingError(
                f"max_chain_length must be >= 1, got {max_chain_length}"
            )
        self._delegate_of: Dict[str, str] = {}
        self._max_chain = max_chain_length

    def delegate(self, member: str, delegate: str) -> None:
        """Point ``member``'s voice at ``delegate``.

        Raises
        ------
        VotingError
            On self-delegation or an edge that would create a cycle.
        """
        if member == delegate:
            raise VotingError(f"{member} cannot delegate to themselves")
        # Walk from the proposed delegate; reaching `member` means a cycle.
        cursor: Optional[str] = delegate
        hops = 0
        while cursor is not None and hops <= self._max_chain:
            if cursor == member:
                raise VotingError(
                    f"delegation {member} -> {delegate} would create a cycle"
                )
            cursor = self._delegate_of.get(cursor)
            hops += 1
        self._delegate_of[member] = delegate

    def revoke(self, member: str) -> bool:
        """Remove ``member``'s delegation; True if one existed."""
        return self._delegate_of.pop(member, None) is not None

    def delegators(self) -> KeysView[str]:
        """Every member with an outgoing delegation edge (a live view)."""
        return self._delegate_of.keys()

    def delegate_of(self, member: str) -> Optional[str]:
        """Direct delegate (no transitive resolution)."""
        return self._delegate_of.get(member)

    def resolve(self, member: str) -> str:
        """Terminal delegate for ``member`` (member themselves if none).

        Raises
        ------
        VotingError
            If the chain exceeds the hop bound (defensive; cycles are
            already rejected at insertion).
        """
        cursor = member
        for _ in range(self._max_chain + 1):
            nxt = self._delegate_of.get(cursor)
            if nxt is None:
                return cursor
            cursor = nxt
        raise VotingError(
            f"delegation chain from {member} exceeds {self._max_chain} hops"
        )

    def voting_power(self, members: List[str]) -> Dict[str, List[str]]:
        """Map each terminal delegate to the members whose voice they
        carry (including themselves if not delegating)."""
        power: Dict[str, List[str]] = {}
        for member in members:
            terminal = self.resolve(member)
            power.setdefault(terminal, []).append(member)
        return power

    def delegators_count(self, delegate: str, members: List[str]) -> int:
        """How many of ``members`` terminally resolve to ``delegate``
        (excluding the delegate's own voice)."""
        return sum(
            1 for m in members if m != delegate and self.resolve(m) == delegate
        )

    def __len__(self) -> int:
        return len(self._delegate_of)
