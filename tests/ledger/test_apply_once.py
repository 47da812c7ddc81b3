"""``propose_block`` commits its speculative overlay: the body is applied once.

The oracle below is the path block production used to take: re-apply
the finished body to a fresh child of the parent state and pay the
proposer.  Whatever the mempool holds — transfers, self-transfers,
burns, stake moves, records, escrow calls that revert *after* their
value has moved to the contract, unaffordable transactions — the state
``propose_block`` commits must equal that oracle field by field.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import Blockchain, PoAConsensus, Transaction, TxKind
from repro.ledger.contracts import ContractRegistry, EscrowContract
from repro.workloads.load import SyntheticSignedTransaction

VALIDATOR = "v" * 64
ACCOUNTS = [f"{i:02x}" * 32 for i in range(5)]
DEALS = ("d0", "d1")


def reapply_body(chain, block):
    """The oracle: the body applied to a fresh child of the parent state."""
    state = chain.state_at(block.prev_hash).child()
    for stx in block.transactions:
        state.apply(stx, contract_executor=chain.contracts)
    state.credit_fees(block.proposer, block.total_fees)
    return state


def image(state):
    return (
        dict(state.balances.items()),
        dict(state.nonces.items()),
        dict(state.stakes.items()),
        dict(state.contract_storage.items()),
        list(state.records),
    )


def make_chain(balances):
    contracts = ContractRegistry()
    escrow = contracts.deploy(EscrowContract())
    chain = Blockchain(
        PoAConsensus([VALIDATOR]),
        genesis_balances=balances,
        contracts=contracts,
    )
    return chain, escrow


def signed(sender, recipient, amount, fee, nonce, kind, payload=None):
    return SyntheticSignedTransaction(
        Transaction(sender, recipient, amount, fee, nonce, kind, payload or {})
    )


def pending_ids(chain):
    return {stx.tx_id for stx in chain.mempool.pending()}


def propose_and_check(chain, timestamp, max_txs):
    """Propose one block; assert it against the oracle; return
    ``(block, dropped transactions)``."""
    parent_state = chain.state
    supply = parent_state.total_supply
    before = {stx.tx_id: stx for stx in chain.mempool.pending()}
    block = chain.propose_block(VALIDATOR, timestamp=timestamp, max_txs=max_txs)

    assert chain.head.block_hash == block.block_hash
    assert image(chain.state) == image(reapply_body(chain, block))
    assert chain.verify_chain()
    burned = sum(
        stx.tx.amount for stx in block.transactions
        if stx.tx.kind is TxKind.TRANSFER and not stx.tx.recipient
    )
    assert chain.state.total_supply == supply - burned

    after = pending_ids(chain)
    assert not after & set(block.tx_ids)
    dropped = [
        stx for tx_id, stx in before.items()
        if tx_id not in after and tx_id not in block.tx_ids
    ]
    touched = set()
    for stx in block.transactions:
        touched.update((stx.tx.sender, stx.tx.recipient))
        touched.update(stx.tx.payload.get("args", {}).values())
    for stx in dropped:
        sender = stx.tx.sender
        assert chain.state.nonce_of(sender) <= stx.tx.nonce
        if sender not in touched:
            assert chain.state.balance_of(sender) == parent_state.balance_of(sender)
            assert chain.state.nonce_of(sender) == parent_state.nonce_of(sender)
    return block, dropped


_ACCOUNT = st.integers(min_value=0, max_value=len(ACCOUNTS) - 1)
_SMALL = st.integers(min_value=0, max_value=60)
_OPS = st.one_of(
    st.tuples(st.just("transfer"), _ACCOUNT, _ACCOUNT, _SMALL, _SMALL),
    st.tuples(st.just("self"), _ACCOUNT, _ACCOUNT, _SMALL, _SMALL),
    st.tuples(st.just("burn"), _ACCOUNT, _ACCOUNT, _SMALL, _SMALL),
    st.tuples(st.just("stake"), _ACCOUNT, _ACCOUNT, _SMALL, _SMALL),
    st.tuples(st.just("unstake"), _ACCOUNT, _ACCOUNT, _SMALL, _SMALL),
    st.tuples(st.just("record"), _ACCOUNT, _ACCOUNT, _SMALL, _SMALL),
    st.tuples(
        st.sampled_from(["deposit", "release", "refund"]),
        _ACCOUNT,
        _ACCOUNT,
        _SMALL,
        _SMALL,
        st.sampled_from(DEALS),
    ),
)


def build_tx(op, nonce, escrow):
    kind, s, r, amount, fee = op[:5]
    sender = ACCOUNTS[s]
    if kind == "transfer":
        return signed(sender, ACCOUNTS[r], amount, fee, nonce, TxKind.TRANSFER)
    if kind == "self":
        return signed(sender, sender, amount, fee, nonce, TxKind.TRANSFER)
    if kind == "burn":
        return signed(sender, "", amount, fee, nonce, TxKind.TRANSFER)
    if kind == "stake":
        return signed(sender, "", amount, fee, nonce, TxKind.STAKE)
    if kind == "unstake":
        return signed(sender, "", amount, fee, nonce, TxKind.UNSTAKE)
    if kind == "record":
        payload = {"purpose": "gaze", "subject": ACCOUNTS[r], "n": amount}
        return signed(sender, "", 0, fee, nonce, TxKind.RECORD, payload)
    payload = {"method": kind, "args": {"seller": ACCOUNTS[r], "deal_id": op[5]}}
    # Release/refund carry no value; a deposit may (or may not).
    value = amount if kind == "deposit" else 0
    return signed(sender, escrow, value, fee, nonce, TxKind.CONTRACT, payload)


@settings(max_examples=150, deadline=None)
@given(
    balances=st.lists(
        st.integers(min_value=0, max_value=300),
        min_size=len(ACCOUNTS),
        max_size=len(ACCOUNTS),
    ),
    rounds=st.lists(
        st.tuples(
            st.lists(_OPS, max_size=10),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_committed_state_equals_reapplied_body(balances, rounds):
    chain, escrow = make_chain(dict(zip(ACCOUNTS, balances)))
    # Each new transaction takes its sender's next free nonce: after the
    # sender's pending transactions, and never below its committed nonce.
    for height, (ops, max_txs) in enumerate(rounds, start=1):
        next_nonce = {}
        for stx in chain.mempool.pending():
            sender = stx.tx.sender
            next_nonce[sender] = max(next_nonce.get(sender, 0), stx.tx.nonce + 1)
        for op in ops:
            sender = ACCOUNTS[op[1]]
            nonce = max(next_nonce.get(sender, 0), chain.state.nonce_of(sender))
            if chain.mempool.submit(build_tx(op, nonce, escrow), chain.state):
                next_nonce[sender] = nonce + 1
        propose_and_check(chain, float(height), max_txs)


def test_reverted_deposit_is_neither_debited_nor_nonce_bumped():
    buyer, seller, other = ACCOUNTS[:3]
    chain, escrow = make_chain({buyer: 100, other: 50})
    deposit = {"method": "deposit", "args": {"seller": seller, "deal_id": "d0"}}
    chain.mempool.submit(
        signed(buyer, escrow, 30, 2, 0, TxKind.CONTRACT, deposit), chain.state
    )
    propose_and_check(chain, 1.0, max_txs=10)
    assert chain.state.balance_of(escrow) == 30
    assert chain.state.balance_of(buyer) == 68

    # The same deal again: the state machine moves 20 to the contract,
    # then the contract reverts ("already open").
    again = signed(buyer, escrow, 20, 5, 1, TxKind.CONTRACT, deposit)
    pay = signed(other, seller, 10, 1, 0, TxKind.TRANSFER)
    for stx in (again, pay):
        assert chain.mempool.submit(stx, chain.state)
    block, dropped = propose_and_check(chain, 2.0, max_txs=10)

    assert block.tx_ids == [pay.tx_id]
    assert dropped == [again]
    assert again.tx_id not in pending_ids(chain)
    assert chain.state.balance_of(buyer) == 68
    assert chain.state.nonce_of(buyer) == 1
    assert chain.state.balance_of(escrow) == 30
    assert chain.state.balance_of(seller) == 10
    assert chain.state.balance_of(VALIDATOR) == 3


def test_explicit_body_still_applied_by_add_block():
    chain, _ = make_chain({ACCOUNTS[0]: 100})
    stx = signed(ACCOUNTS[0], ACCOUNTS[1], 40, 1, 0, TxKind.TRANSFER)
    block = chain.propose_block(VALIDATOR, timestamp=1.0, transactions=[stx])
    assert image(chain.state) == image(reapply_body(chain, block))
    assert chain.state.balance_of(ACCOUNTS[1]) == 40
