"""Tests for liquid-democracy delegation."""

import pytest

from repro.dao import DelegationGraph
from repro.errors import VotingError


class TestDelegation:
    def test_simple_delegation_resolves(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        assert graph.resolve("a") == "b"
        assert graph.delegate_of("a") == "b"

    def test_transitive_resolution(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        graph.delegate("b", "c")
        assert graph.resolve("a") == "c"

    def test_non_delegating_member_resolves_to_self(self):
        assert DelegationGraph().resolve("solo") == "solo"

    def test_self_delegation_rejected(self):
        with pytest.raises(VotingError):
            DelegationGraph().delegate("a", "a")

    def test_two_cycle_rejected(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        with pytest.raises(VotingError):
            graph.delegate("b", "a")

    def test_long_cycle_rejected(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        graph.delegate("b", "c")
        graph.delegate("c", "d")
        with pytest.raises(VotingError):
            graph.delegate("d", "a")

    def test_redelegation_replaces(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        graph.delegate("a", "c")
        assert graph.resolve("a") == "c"

    def test_revoke(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        assert graph.revoke("a")
        assert graph.resolve("a") == "a"
        assert not graph.revoke("a")

    def test_chain_length_bound(self):
        graph = DelegationGraph(max_chain_length=3)
        graph.delegate("a", "b")
        graph.delegate("b", "c")
        graph.delegate("c", "d")
        # resolve within bound works
        assert graph.resolve("a") == "d"

    def test_voting_power_aggregation(self):
        graph = DelegationGraph()
        graph.delegate("a", "c")
        graph.delegate("b", "c")
        power = graph.voting_power(["a", "b", "c", "d"])
        assert sorted(power["c"]) == ["a", "b", "c"]
        assert power["d"] == ["d"]

    def test_delegators_count_excludes_self(self):
        graph = DelegationGraph()
        graph.delegate("a", "c")
        graph.delegate("b", "c")
        assert graph.delegators_count("c", ["a", "b", "c"]) == 2

    def test_len(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        graph.delegate("c", "b")
        assert len(graph) == 2

    def test_delegators_are_members_with_an_edge(self):
        graph = DelegationGraph()
        graph.delegate("a", "b")
        graph.delegate("c", "b")
        graph.revoke("a")
        assert sorted(graph.delegators()) == ["c"]
