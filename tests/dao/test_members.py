"""Tests for DAO members and the registry."""

import pytest

from repro.dao import Member, MemberRegistry
from repro.errors import DaoError


class TestMember:
    def test_attention_spending(self):
        member = Member(address="m", attention_budget=2.0)
        assert member.spend_attention()
        assert member.spend_attention()
        assert not member.spend_attention()
        assert member.attention_remaining == 0.0

    def test_attention_reset(self):
        member = Member(address="m", attention_budget=1.0)
        member.spend_attention()
        member.reset_attention()
        assert member.attention_remaining == 1.0

    def test_fractional_costs(self):
        member = Member(address="m", attention_budget=1.0)
        assert member.spend_attention(0.5)
        assert member.spend_attention(0.5)
        assert not member.spend_attention(0.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(DaoError):
            Member(address="m").spend_attention(-1)

    def test_interest_matching(self):
        focused = Member(address="m", interests={"privacy"})
        generalist = Member(address="g", interests=set())
        assert focused.interested_in("privacy")
        assert not focused.interested_in("economy")
        assert generalist.interested_in("anything")

    def test_invalid_fields_rejected(self):
        with pytest.raises(DaoError):
            Member(address="m", tokens=-1)
        with pytest.raises(DaoError):
            Member(address="m", attention_budget=-1)
        with pytest.raises(DaoError):
            Member(address="m", engagement=1.5)


class TestRegistry:
    def test_add_get_remove(self):
        registry = MemberRegistry()
        registry.add(Member(address="m1", tokens=10))
        assert "m1" in registry
        assert registry.get("m1").tokens == 10
        registry.remove("m1")
        assert "m1" not in registry

    def test_duplicate_add_rejected(self):
        registry = MemberRegistry()
        registry.add(Member(address="m1"))
        with pytest.raises(DaoError):
            registry.add(Member(address="m1"))

    def test_missing_get_rejected(self):
        with pytest.raises(DaoError):
            MemberRegistry().get("ghost")

    def test_tokens_of_unknown_is_zero(self):
        assert MemberRegistry().tokens_of("ghost") == 0.0

    def test_interested_members(self):
        registry = MemberRegistry()
        registry.add(Member(address="a", interests={"privacy"}))
        registry.add(Member(address="b", interests={"economy"}))
        registry.add(Member(address="c", interests=set()))  # generalist
        interested = {m.address for m in registry.interested_members("privacy")}
        assert interested == {"a", "c"}

    def test_reset_all_attention(self):
        registry = MemberRegistry()
        registry.add(Member(address="a", attention_budget=1.0))
        registry.get("a").spend_attention()
        registry.reset_all_attention()
        assert registry.get("a").attention_remaining == 1.0

    def test_iteration_and_len(self):
        registry = MemberRegistry()
        registry.add(Member(address="a"))
        registry.add(Member(address="b"))
        assert len(registry) == 2
        assert {m.address for m in registry} == {"a", "b"}

    def test_in_roll_order_follows_join_order(self):
        registry = MemberRegistry()
        for address in ("a", "b", "c"):
            registry.add(Member(address=address))
        registry.remove("a")
        registry.add(Member(address="a"))
        # A re-joined member moves to the end; non-members are dropped.
        assert registry.addresses() == ["b", "c", "a"]
        assert registry.in_roll_order(["a", "x", "c", "b"]) == ["b", "c", "a"]
        assert registry.in_roll_order([]) == []
