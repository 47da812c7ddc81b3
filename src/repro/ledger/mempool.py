"""Mempool: pending transactions awaiting inclusion in a block.

Orders candidates by fee (highest first) while respecting per-sender
nonce order, rejects duplicates and obviously-invalid transactions at
admission, and evicts the lowest-fee entries when full.

Two persistent fee-ordered structures keep the hot paths sub-linear,
both built on the same lazy-deletion idiom (stale heap entries are
skipped on pop instead of being searched out on removal):

* a global **min**-heap over ``(fee, tx_id)`` serves eviction — finding
  the cheapest resident is O(log n) amortised instead of a full scan
  per admission; and
* a global **max**-heap over ``(sender max fee, sender)`` plus a
  per-sender nonce-chain index serves selection — block assembly pulls
  the best executable transaction in O(log n) per pick instead of
  rescanning every sender per pick (O(senders x picks)).

A sender's heap key is the *maximum* resident fee of that sender, which
upper-bounds the fee of whatever transaction of theirs is currently
executable; selection therefore never has to look at a sender whose
bound is below the best candidate already in hand, which is what makes
block assembly sub-linear in the number of senders.

Admissions, rejections, and evictions emit trace events through the
optional ``obs`` instrumentation (eviction events carry fee, age, and
sender — the paper's transparency requirement applied to mempool
pressure).  A transaction admitted without a timestamp has no age, so
its eviction event carries ``age=None`` rather than a misleading 0.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InvalidTransactionError
from repro.ledger.state import LedgerState
from repro.ledger.transactions import SignedTransaction
from repro.obs.instrument import NULL_OBS, Instrumentation

__all__ = ["Mempool"]


def _fee_key(stx: SignedTransaction) -> Tuple[int, str]:
    """Total order used everywhere a "best" transaction is picked:
    highest fee first, ties broken by tx_id so every node agrees."""
    return (stx.tx.fee, stx.tx_id)


class _SenderChain:
    """One sender's resident transactions, indexed by nonce.

    ``by_nonce`` buckets replacements (same sender, same nonce,
    different tx_id) together; selection considers only the best-fee
    member of the bucket at the executable nonce.  ``max_fee`` is served
    from a lazy max-heap over the chain's residents and is the sender's
    key in the pool-wide selection heap.
    """

    __slots__ = ("txs", "by_nonce", "_fee_heap")

    def __init__(self) -> None:
        self.txs: Dict[str, SignedTransaction] = {}
        self.by_nonce: Dict[int, List[SignedTransaction]] = {}
        # Max-heap of (-fee, tx_id); stale entries skipped on peek.
        self._fee_heap: List[Tuple[int, str]] = []

    def __len__(self) -> int:
        return len(self.txs)

    def add(self, stx: SignedTransaction) -> None:
        self.txs[stx.tx_id] = stx
        self.by_nonce.setdefault(stx.tx.nonce, []).append(stx)
        heapq.heappush(self._fee_heap, (-stx.tx.fee, stx.tx_id))

    def remove(self, tx_id: str) -> SignedTransaction:
        stx = self.txs.pop(tx_id)
        bucket = self.by_nonce[stx.tx.nonce]
        if len(bucket) == 1:
            del self.by_nonce[stx.tx.nonce]
        else:
            bucket[:] = [s for s in bucket if s.tx_id != tx_id]
        return stx

    def max_fee(self) -> int:
        """Highest resident fee (the chain must be non-empty)."""
        heap = self._fee_heap
        while heap:
            neg_fee, tx_id = heap[0]
            if tx_id in self.txs:
                return -neg_fee
            heapq.heappop(heap)  # stale: pruned/evicted earlier
        raise KeyError("max_fee() on an empty sender chain")

    def best_at(self, nonce: int) -> Optional[SignedTransaction]:
        """Best-fee resident at exactly ``nonce`` (None if no bucket)."""
        bucket = self.by_nonce.get(nonce)
        if not bucket:
            return None
        return max(bucket, key=_fee_key)


class Mempool:
    """Fee-prioritised, nonce-ordered transaction pool.

    Parameters
    ----------
    capacity:
        Maximum resident transactions; admission beyond this evicts the
        cheapest entry (or rejects the newcomer if it is the cheapest).
    obs:
        Optional observability instrumentation; when omitted the pool
        stays dark (null instrumentation).
    """

    def __init__(self, capacity: int = 10_000, obs: Optional[Instrumentation] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._by_id: Dict[str, SignedTransaction] = {}
        self._chains: Dict[str, _SenderChain] = {}
        # Min-heap of (fee, tx_id) over all residents; entries whose
        # tx_id is no longer resident are stale and skipped on pop
        # (lazy deletion).  Serves eviction.
        self._fee_heap: List[Tuple[int, str]] = []
        # Max-heap of (-max resident fee, sender); an entry is live
        # while its fee still equals the sender's current max_fee().
        # Serves selection: the top is an upper bound on the best
        # executable fee of any sender not yet considered.
        self._head_heap: List[Tuple[int, str]] = []
        self._admitted_at: Dict[str, float] = {}
        self._obs = obs if obs is not None else NULL_OBS
        self.rejected_count = 0
        self.evicted_count = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._by_id

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        stx: SignedTransaction,
        state: Optional[LedgerState] = None,
        time: Optional[float] = None,
    ) -> bool:
        """Admit ``stx`` if valid and not a duplicate.

        If ``state`` is provided, stale nonces (already consumed on
        chain) are rejected at admission.  ``time`` (simulated) stamps
        the admission for eviction-age accounting and trace events.
        Returns True on admission.
        """
        if stx.tx_id in self._by_id:
            return self._reject(stx, "duplicate", time)
        if not stx.verify():
            return self._reject(stx, "bad-signature", time)
        if state is not None and stx.tx.nonce < state.nonce_of(stx.tx.sender):
            return self._reject(stx, "stale-nonce", time)
        if len(self._by_id) >= self._capacity and not self._evict_for(stx, time):
            return self._reject(stx, "full-pool-fee-too-low", time)
        sender = stx.tx.sender
        self._by_id[stx.tx_id] = stx
        chain = self._chains.get(sender)
        if chain is None:
            chain = self._chains[sender] = _SenderChain()
        chain.add(stx)
        heapq.heappush(self._fee_heap, (stx.tx.fee, stx.tx_id))
        heapq.heappush(self._head_heap, (-chain.max_fee(), sender))
        if time is not None:
            self._admitted_at[stx.tx_id] = float(time)
        self._obs.counter("ledger.mempool.admitted").inc()
        self._obs.event(
            "ledger.mempool",
            "tx.admitted",
            time=time,
            tx_id=stx.tx_id,
            sender=sender,
            fee=stx.tx.fee,
        )
        return True

    def _reject(
        self, stx: SignedTransaction, reason: str, time: Optional[float]
    ) -> bool:
        self.rejected_count += 1
        self._obs.counter("ledger.mempool.rejected").inc()
        self._obs.event(
            "ledger.mempool",
            "tx.rejected",
            time=time,
            tx_id=stx.tx_id,
            sender=stx.tx.sender,
            fee=stx.tx.fee,
            reason=reason,
        )
        return False

    def _cheapest_resident(self) -> Optional[SignedTransaction]:
        """Lowest-(fee, tx_id) resident via the heap (lazy deletion)."""
        while self._fee_heap:
            fee, tx_id = self._fee_heap[0]
            resident = self._by_id.get(tx_id)
            if resident is not None and resident.tx.fee == fee:
                return resident
            heapq.heappop(self._fee_heap)  # stale: evicted/pruned earlier
        return None

    def _evict_for(
        self, newcomer: SignedTransaction, time: Optional[float] = None
    ) -> bool:
        """Evict the cheapest resident if the newcomer pays more."""
        cheapest = self._cheapest_resident()
        if cheapest is None or cheapest.tx.fee >= newcomer.tx.fee:
            return False
        admitted_at = self._admitted_at.get(cheapest.tx_id)
        # A resident admitted without a timestamp has no age; emitting 0
        # would claim it was evicted the instant it arrived.
        age = (
            float(time) - admitted_at
            if time is not None and admitted_at is not None
            else None
        )
        self._remove(cheapest.tx_id)
        self.evicted_count += 1
        self._obs.counter("ledger.mempool.evicted").inc()
        self._obs.event(
            "ledger.mempool",
            "tx.evicted",
            time=time,
            tx_id=cheapest.tx_id,
            sender=cheapest.tx.sender,
            fee=cheapest.tx.fee,
            age=age,
            displaced_by=newcomer.tx_id,
        )
        return True

    def _remove(self, tx_id: str) -> None:
        stx = self._by_id.pop(tx_id)
        self._admitted_at.pop(tx_id, None)
        sender = stx.tx.sender
        chain = self._chains.get(sender)
        if chain is None:
            return
        chain.remove(tx_id)
        if not chain.txs:
            del self._chains[sender]
        else:
            # Re-key the sender in the selection heap; the old entry
            # goes stale and is skipped lazily.
            heapq.heappush(self._head_heap, (-chain.max_fee(), sender))

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self, state: LedgerState, max_count: int = 100) -> List[SignedTransaction]:
        """Pick up to ``max_count`` executable transactions.

        Greedy by ``(fee, tx_id)``, but a sender's transactions are only
        eligible in nonce order starting from the sender's current
        on-chain nonce, so the returned list always applies cleanly in
        order.  Replacements (same sender and nonce) are resolved in
        favour of the highest-fee resident.

        Implementation: senders are drawn from the persistent max-fee
        head heap; a sender is only materialised into the candidate heap
        when its fee upper bound beats the best candidate in hand, so a
        block of K picks costs O((K + drawn) log n) rather than
        O(senders x picks).  The pool is not mutated — drawn senders are
        restored to the head heap before returning.
        """
        if max_count <= 0:
            return []
        head_heap = self._head_heap
        chains = self._chains
        # Senders drawn out of the persistent heap this call (restored
        # on exit); their executable candidate lives in ``candidates``.
        drawn: Set[str] = set()
        # Next executable nonce per sender, as adjusted by this call's
        # own picks (the pool itself is left untouched).
        session_nonce: Dict[str, int] = {}
        candidates: List[Tuple[int, str, SignedTransaction]] = []
        selected: List[SignedTransaction] = []

        def draw_best_sender() -> Optional[int]:
            """Peek the best live sender bound; None when exhausted."""
            while head_heap:
                neg_fee, sender = head_heap[0]
                chain = chains.get(sender)
                if (
                    chain is None
                    or sender in drawn
                    or chain.max_fee() != -neg_fee
                ):
                    heapq.heappop(head_heap)  # stale or already drawn
                    continue
                return -neg_fee
            return None

        try:
            while len(selected) < max_count:
                # Materialise senders until every unseen sender's fee
                # bound is at or below the best candidate in hand.  A
                # bound equal to the candidate fee must still be drawn:
                # the tx_id tie-break may favour the unseen sender.
                while True:
                    bound = draw_best_sender()
                    if bound is None or (candidates and bound < -candidates[0][0]):
                        break
                    _, sender = heapq.heappop(head_heap)
                    drawn.add(sender)
                    chain = chains[sender]
                    nonce = state.nonce_of(sender)
                    session_nonce[sender] = nonce
                    head = chain.best_at(nonce)
                    if head is not None:
                        heapq.heappush(
                            candidates, (-head.tx.fee, _desc_id(head.tx_id), head)
                        )
                if not candidates:
                    break
                _, _, best = heapq.heappop(candidates)
                selected.append(best)
                sender = best.tx.sender
                nxt = best.tx.nonce + 1
                session_nonce[sender] = nxt
                successor = chains[sender].best_at(nxt)
                if successor is not None:
                    heapq.heappush(
                        candidates,
                        (-successor.tx.fee, _desc_id(successor.tx_id), successor),
                    )
        finally:
            # Restore every drawn sender's live entry; stale duplicates
            # left behind are cleaned up lazily on later pops.
            for sender in drawn:
                chain = chains.get(sender)
                if chain is not None and chain.txs:
                    heapq.heappush(head_heap, (-chain.max_fee(), sender))
        return selected

    def prune_included(self, included_ids: List[str]) -> int:
        """Drop transactions that made it into a block; returns count.

        Batched: each sender's chain is re-keyed in the selection heap
        once, so pruning a whole block is O(pruned log pool) rather than
        O(block x pool).
        """
        targets = {tx_id for tx_id in included_ids if tx_id in self._by_id}
        if not targets:
            return 0
        touched_senders = set()
        for tx_id in targets:
            stx = self._by_id.pop(tx_id)
            self._admitted_at.pop(tx_id, None)
            sender = stx.tx.sender
            touched_senders.add(sender)
            self._chains[sender].remove(tx_id)
        for sender in touched_senders:
            chain = self._chains[sender]
            if chain.txs:
                heapq.heappush(self._head_heap, (-chain.max_fee(), sender))
            else:
                del self._chains[sender]
        return len(targets)

    def pending(self) -> List[SignedTransaction]:
        """All resident transactions (no particular order)."""
        return list(self._by_id.values())


#: Maps each lowercase hex digit ``d`` to ``15 - d``.
_DESC_HEX = str.maketrans("0123456789abcdef", "fedcba9876543210")


def _desc_id(tx_id: str) -> str:
    """Invert a hex tx_id's sort order.

    Candidate heaps are min-heaps keyed ``(-fee, _desc_id(tx_id))``, so
    popping yields the highest fee with ties broken by *highest* tx_id —
    the same total order the greedy reference uses.
    """
    return tx_id.translate(_DESC_HEX)
