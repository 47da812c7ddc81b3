"""Tests for the mempool."""

import hashlib

import pytest

from repro.ledger import LedgerState, Mempool, Wallet
from repro.ledger.mempool import _desc_id


@pytest.fixture
def alice():
    return Wallet(seed=b"pool-alice", height=6)


@pytest.fixture
def bob():
    return Wallet(seed=b"pool-bob", height=6)


@pytest.fixture
def state(alice, bob):
    return LedgerState({alice.address: 1000, bob.address: 1000})


class TestAdmission:
    def test_valid_tx_admitted(self, alice, state):
        pool = Mempool()
        assert pool.submit(alice.transfer("ff" * 32, 1, nonce=0), state)
        assert len(pool) == 1

    def test_duplicate_rejected(self, alice, state):
        pool = Mempool()
        stx = alice.transfer("ff" * 32, 1, nonce=0)
        assert pool.submit(stx, state)
        assert not pool.submit(stx, state)
        assert pool.rejected_count == 1

    def test_bad_signature_rejected(self, alice, state):
        pool = Mempool()
        stx = alice.transfer("ff" * 32, 1, nonce=0)
        forged = type(stx)(
            tx=alice.build_transaction("ff" * 32, 2, nonce=0),
            signature=stx.signature,
            key_proof=stx.key_proof,
        )
        assert not pool.submit(forged, state)

    def test_stale_nonce_rejected_with_state(self, alice, bob, state):
        pool = Mempool()
        state.apply(alice.transfer(bob.address, 1, nonce=0))
        assert not pool.submit(alice.transfer("ff" * 32, 1, nonce=0), state)

    def test_contains(self, alice, state):
        pool = Mempool()
        stx = alice.transfer("ff" * 32, 1, nonce=0)
        pool.submit(stx, state)
        assert stx.tx_id in pool


class TestEviction:
    def test_cheapest_evicted_when_full(self, alice, bob, state):
        pool = Mempool(capacity=2)
        pool.submit(alice.transfer("ff" * 32, 1, nonce=0, fee=1), state)
        pool.submit(alice.transfer("ff" * 32, 1, nonce=1, fee=5), state)
        # Higher-fee newcomer evicts the fee-1 resident.
        assert pool.submit(bob.transfer("ff" * 32, 1, nonce=0, fee=10), state)
        assert pool.evicted_count == 1
        assert len(pool) == 2

    def test_cheap_newcomer_rejected_when_full(self, alice, bob, state):
        pool = Mempool(capacity=2)
        pool.submit(alice.transfer("ff" * 32, 1, nonce=0, fee=5), state)
        pool.submit(alice.transfer("ff" * 32, 1, nonce=1, fee=5), state)
        assert not pool.submit(bob.transfer("ff" * 32, 1, nonce=0, fee=1), state)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Mempool(capacity=0)


class TestSelection:
    def test_selection_respects_nonce_order(self, alice, state):
        pool = Mempool()
        # Submit out of order, with higher fee on the later nonce.
        pool.submit(alice.transfer("ff" * 32, 1, nonce=1, fee=10), state)
        pool.submit(alice.transfer("ff" * 32, 1, nonce=0, fee=1), state)
        selected = pool.select(state, max_count=10)
        assert [s.tx.nonce for s in selected] == [0, 1]

    def test_selection_prefers_fees_across_senders(self, alice, bob, state):
        pool = Mempool()
        pool.submit(alice.transfer("ff" * 32, 1, nonce=0, fee=1), state)
        pool.submit(bob.transfer("ff" * 32, 1, nonce=0, fee=9), state)
        selected = pool.select(state, max_count=1)
        assert selected[0].tx.sender == bob.address

    def test_nonce_gap_blocks_later_txs(self, alice, state):
        pool = Mempool()
        pool.submit(alice.transfer("ff" * 32, 1, nonce=2, fee=10), state)
        assert pool.select(state, max_count=10) == []

    def test_max_count_honoured(self, alice, state):
        pool = Mempool()
        for n in range(5):
            pool.submit(alice.transfer("ff" * 32, 1, nonce=n), state)
        assert len(pool.select(state, max_count=3)) == 3

    def test_zero_max_count(self, alice, state):
        pool = Mempool()
        pool.submit(alice.transfer("ff" * 32, 1, nonce=0), state)
        assert pool.select(state, max_count=0) == []


class TestPruning:
    def test_prune_included(self, alice, state):
        pool = Mempool()
        stx = alice.transfer("ff" * 32, 1, nonce=0)
        pool.submit(stx, state)
        removed = pool.prune_included([stx.tx_id, "ab" * 32])
        assert removed == 1
        assert len(pool) == 0


class TestDescId:
    @staticmethod
    def per_digit(tx_id):
        return "".join("%x" % (15 - int(ch, 16)) for ch in tx_id)

    def test_matches_per_digit_complement(self):
        ids = [hashlib.sha256(str(n).encode()).hexdigest() for n in range(500)]
        ids += ["0" * 64, "f" * 64, "0123456789abcdef" * 4]
        for tx_id in ids:
            assert _desc_id(tx_id) == self.per_digit(tx_id)
