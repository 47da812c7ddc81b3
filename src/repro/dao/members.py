"""DAO membership: identities, holdings, interests, and attention.

Besides identity and token holdings, each member carries the two fields
that make the paper's scalability argument (§III-B) measurable:

* ``interests`` — governance topics the member actually cares about;
* ``attention_budget`` — how many proposals per epoch the member will
  realistically read and vote on.  Flat DAOs spend this budget on every
  proposal platform-wide; modular DAOs only spend it on routed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.errors import DaoError

__all__ = ["Member", "MemberRegistry"]


@dataclass
class Member:
    """One DAO participant."""

    address: str
    tokens: float = 0.0
    interests: Set[str] = field(default_factory=set)
    attention_budget: float = 5.0
    engagement: float = 0.8
    attention_used: float = 0.0
    joined_at: float = 0.0

    def __post_init__(self) -> None:
        if self.tokens < 0:
            raise DaoError(f"member {self.address[:12]}: negative tokens")
        if self.attention_budget < 0:
            raise DaoError(f"member {self.address[:12]}: negative attention")
        if not 0 <= self.engagement <= 1:
            raise DaoError(
                f"member {self.address[:12]}: engagement must be in [0, 1]"
            )

    @property
    def attention_remaining(self) -> float:
        return max(0.0, self.attention_budget - self.attention_used)

    def spend_attention(self, cost: float = 1.0) -> bool:
        """Consume attention if available; False when exhausted."""
        if cost < 0:
            raise DaoError(f"attention cost must be >= 0, got {cost}")
        if self.attention_remaining < cost:
            return False
        self.attention_used += cost
        return True

    def reset_attention(self) -> None:
        """New epoch: the member is rested."""
        self.attention_used = 0.0

    def interested_in(self, topic: str) -> bool:
        """True if the member follows ``topic`` (empty interests =
        follows everything, modelling a fully engaged generalist)."""
        return not self.interests or topic in self.interests


class MemberRegistry:
    """Address-keyed membership roll.

    The roll order is join order; a removed and re-added member moves to
    the end.  Each member's rank in it is kept alongside, so any subset
    of the roll can be put in roll order without walking the whole roll.
    """

    def __init__(self) -> None:
        self._members: Dict[str, Member] = {}
        self._rank: Dict[str, int] = {}
        self._next_rank = 0

    def add(self, member: Member) -> None:
        if member.address in self._members:
            raise DaoError(f"member {member.address[:12]} already registered")
        self._members[member.address] = member
        self._rank[member.address] = self._next_rank
        self._next_rank += 1

    def remove(self, address: str) -> Member:
        if address not in self._members:
            raise DaoError(f"no member {address[:12]}")
        del self._rank[address]
        return self._members.pop(address)

    def get(self, address: str) -> Member:
        if address not in self._members:
            raise DaoError(f"no member {address[:12]}")
        return self._members[address]

    def __contains__(self, address: str) -> bool:
        return address in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members.values())

    def addresses(self) -> List[str]:
        return list(self._members)

    def in_roll_order(self, addresses: Iterable[str]) -> List[str]:
        """The members among ``addresses`` in the order of
        :meth:`addresses`; non-members are dropped."""
        rank = self._rank
        return sorted((a for a in addresses if a in rank), key=rank.__getitem__)

    def members(self) -> List[Member]:
        return list(self._members.values())

    def tokens_of(self, address: str) -> float:
        """Balance lookup suitable for TokenWeighted/QuadraticVoting."""
        member = self._members.get(address)
        return member.tokens if member is not None else 0.0

    def interested_members(self, topic: str) -> List[Member]:
        return [m for m in self._members.values() if m.interested_in(topic)]

    def reset_all_attention(self) -> None:
        for member in self._members.values():
            member.reset_attention()
