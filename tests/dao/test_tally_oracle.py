"""``DAO.tally`` against a full-roll reference walk.

The tally visits only members with an outgoing delegation edge.  The
reference below is the straightforward walk over every member's chain;
the two must agree bit for bit on every weight, under every scheme,
through any interleaving of joins, leaves, re-joins, delegations,
revokes and ballots — edges from and to non-members included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dao import (
    DAO,
    DelegationGraph,
    Member,
    OneMemberOneVote,
    QuadraticVoting,
    ReputationWeighted,
    TokenWeighted,
)
from repro.dao.voting import Tally
from repro.errors import VotingError

POOL = [f"a{i}" for i in range(10)]
OPTIONS = ("yes", "no", "abstain")


def reference_tally(dao, proposal_id):
    """Resolve every member's chain, in roll order, then add the direct
    ballots in cast order."""
    ballots = {ballot.voter: ballot for ballot in dao.ballots_of(proposal_id)}
    weights = {option: 0.0 for option in dao.proposal(proposal_id).options}
    carried = 0
    for address in dao.members.addresses():
        if address in ballots:
            continue
        terminal = dao.delegations.resolve(address)
        if terminal != address and terminal in ballots:
            weights[ballots[terminal].option] += dao.scheme.weight_of(address)
            carried += 1
    for ballot in ballots.values():
        weights[ballot.option] += dao.scheme.weight_of(ballot.voter)
    return Tally(
        weights=weights, voters=len(ballots) + carried, eligible=len(dao.members)
    )


def outcome(tally_fn, dao, proposal_id):
    """A comparable image of a tally: exact weight bits, in key order,
    or the error it raised."""
    try:
        tally = tally_fn(dao, proposal_id)
    except VotingError as exc:
        return ("error", str(exc))
    weights = [(option, weight.hex()) for option, weight in tally.weights.items()]
    return (weights, tally.voters, tally.eligible)


def make_scheme(name, dao, reputation):
    if name == "1p1v":
        return OneMemberOneVote()
    if name == "token":
        return TokenWeighted(dao.members.tokens_of)
    if name == "quadratic":
        return QuadraticVoting(dao.members.tokens_of)
    return ReputationWeighted(lambda voter: reputation.get(voter, 0.0), floor=0.01)


addresses = st.integers(0, len(POOL) - 1)
# Mixed magnitudes make float sums order-sensitive, so a tally that
# adds carried weights in any order but the roll's shows up in the bits.
weights = st.one_of(
    st.floats(0.0, 1e17, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 1.0, 3.0, 1e16]),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), addresses, weights),
        st.tuples(st.just("remove"), addresses),
        st.tuples(st.just("delegate"), addresses, addresses),
        st.tuples(st.just("delegate"), addresses, addresses),
        st.tuples(st.just("revoke"), addresses),
        st.tuples(st.just("vote"), addresses, st.sampled_from(OPTIONS)),
    ),
    max_size=60,
)


def apply(dao, proposal_id, op):
    kind, index = op[0], op[1]
    address = POOL[index]
    if kind == "add":
        if address not in dao.members:
            dao.add_member(Member(address=address, tokens=op[2]))
    elif kind == "remove":
        if address in dao.members:
            dao.remove_member(address)
    elif kind == "delegate":
        # Either end may be a non-member; self-edges and cycles raise.
        try:
            dao.delegations.delegate(address, POOL[op[2]])
        except VotingError:
            pass
    elif kind == "revoke":
        dao.delegations.revoke(address)
    elif address in dao.members and all(
        ballot.voter != address for ballot in dao.ballots_of(proposal_id)
    ):
        dao.cast_ballot(proposal_id, address, op[2], time=0.0)


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(["1p1v", "token", "quadratic", "reputation"]),
    founders=st.lists(weights, min_size=1, max_size=len(POOL)),
    reputation=st.lists(st.floats(0.0, 1.0), min_size=len(POOL), max_size=len(POOL)),
    max_chain=st.sampled_from([2, 32]),
    ops=operations,
)
def test_tally_matches_full_roll_walk(scheme, founders, reputation, max_chain, ops):
    dao = DAO("oracle")
    dao.delegations = DelegationGraph(max_chain_length=max_chain)
    dao.scheme = make_scheme(scheme, dao, dict(zip(POOL, reputation)))
    for address, tokens in zip(POOL, founders):
        dao.add_member(Member(address=address, tokens=tokens))
    proposal = dao.submit_proposal(
        title="t", proposer=POOL[0], topic="x", created_at=0.0,
        voting_period=1.0, options=list(OPTIONS),
    )
    pid = proposal.proposal_id
    assert outcome(DAO.tally, dao, pid) == outcome(reference_tally, dao, pid)
    for op in ops:
        apply(dao, pid, op)
        assert outcome(DAO.tally, dao, pid) == outcome(reference_tally, dao, pid)
        # The order the tally sums in: any subset, put back in roll order.
        assert dao.members.in_roll_order(reversed(POOL)) == dao.members.addresses()


def test_carried_weights_summed_in_roll_order():
    # 1 + 1 + 1e16 is 1e16 + 2, but 1e16 + 1 + 1 rounds back to 1e16:
    # the carried weights must be summed in roll order (x, y, whale),
    # not in the order the delegations were made (whale, x, y).
    dao = DAO("order")
    dao.scheme = TokenWeighted(dao.members.tokens_of)
    for address, tokens in (("x", 1.0), ("y", 1.0), ("whale", 1e16), ("v", 0.0)):
        dao.add_member(Member(address=address, tokens=tokens))
    for delegator in ("whale", "x", "y"):
        dao.delegations.delegate(delegator, "v")
    pid = dao.submit_proposal(
        title="t", proposer="v", topic="x", created_at=0.0, voting_period=1.0,
    ).proposal_id
    dao.cast_ballot(pid, "v", "yes", time=0.0)
    tally = dao.tally(pid)
    assert tally.weights["yes"] == 1e16 + 2
    assert tally.voters == 4
    assert outcome(DAO.tally, dao, pid) == outcome(reference_tally, dao, pid)


@pytest.mark.parametrize("readded", [False, True])
def test_removed_delegate_keeps_inbound_edges(readded):
    # Removing a member revokes only their own edge; edges pointing at
    # them stay, and their ballot still carries those delegators.
    dao = DAO("removed")
    for address in ("p", "d", "v"):
        dao.add_member(Member(address=address, tokens=1.0))
    dao.delegations.delegate("d", "v")
    pid = dao.submit_proposal(
        title="t", proposer="p", topic="x", created_at=0.0, voting_period=1.0,
    ).proposal_id
    dao.cast_ballot(pid, "v", "no", time=0.0)
    dao.remove_member("v")
    if readded:
        dao.add_member(Member(address="v", tokens=1.0))
    tally = dao.tally(pid)
    assert tally.weights["no"] == 2.0
    assert outcome(DAO.tally, dao, pid) == outcome(reference_tally, dao, pid)
