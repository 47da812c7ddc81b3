"""``Transaction.signing_bytes`` against the generic canonical encoder.

The signing bytes are built from precomputed key frames rather than by
walking ``to_dict()``; they must equal ``canonical_encode(tx.to_dict())``
for every kind, address and integer, and a fixed list of transactions
must keep the ids it had when the generic walk produced them.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import Transaction, TxKind
from repro.ledger.encoding import EncodingError, canonical_encode

# Recorded with the generic ``canonical_encode(tx.to_dict())`` path.
PINNED_TX_IDS_SHA256 = (
    "74a7efcd0429690eecba01ef0a8409db038cd5c34aba35cd221fc0b7a40a54d5"
)


def pinned_transactions():
    nested = {
        "purpose": "analytics",
        "channel": "gaze",
        "retention_days": 30,
        "nested": {"list": [1, 2.5, None, True, "x", (3, "ü")], "raw": b"\x00\xff"},
        "": -7,
    }
    return [
        Transaction("aa" * 32, "bb" * 32, 5, 1, 0, TxKind.TRANSFER),
        Transaction("aa" * 32, "aa" * 32, 0, 0, 0, TxKind.TRANSFER),
        Transaction("aa" * 32, "", 9, 2, 1, TxKind.TRANSFER),
        Transaction("ålice-ü", "", 0, 0, 3, TxKind.RECORD, nested),
        Transaction(
            "cc" * 32, "escrow", 2**63 + 5, 2**64, 2**70, TxKind.CONTRACT,
            {"method": "deposit", "args": {"deal": "d1"}},
        ),
        Transaction(
            "dd" * 32, "nft", 1, 3, 7, TxKind.MINT,
            {"uri": "ipfs://x", "royalty": 0.05},
        ),
        Transaction("ee" * 32, "", 1000, 10, 4, TxKind.STAKE),
        Transaction("ee" * 32, "", 0, 0, 5, TxKind.UNSTAKE),
        Transaction("ff" * 32, "bb" * 32, True, False, 2, TxKind.TRANSFER),
        Transaction("ff" * 32, "日本", 1, 1, 3, TxKind.TRANSFER, {"memo": ""}),
    ]


def test_pinned_tx_ids():
    ids = "\n".join(tx.tx_id for tx in pinned_transactions())
    assert hashlib.sha256(ids.encode("ascii")).hexdigest() == PINNED_TX_IDS_SHA256


def test_pinned_signing_bytes_match_generic_encoder():
    for tx in pinned_transactions():
        assert tx.signing_bytes == canonical_encode(tx.to_dict())


_ADDRESSES = st.one_of(
    st.just(""),
    st.text(max_size=12),
    st.sampled_from(["aa" * 32, "ålice", "日本語", "\x00"]),
)
_INTS = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2),
    st.integers(min_value=0, max_value=2**130),
)
_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
)
_PAYLOAD_VALUES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_PAYLOADS = st.dictionaries(st.text(max_size=6), _PAYLOAD_VALUES, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    sender=_ADDRESSES.filter(bool),
    recipient=_ADDRESSES,
    amount=_INTS,
    fee=_INTS,
    nonce=_INTS,
    kind=st.sampled_from(list(TxKind)),
    payload=_PAYLOADS,
)
def test_signing_bytes_equal_generic_encoding(
    sender, recipient, amount, fee, nonce, kind, payload
):
    tx = Transaction(sender, recipient, amount, fee, nonce, kind, payload)
    assert tx.signing_bytes == canonical_encode(tx.to_dict())


@pytest.mark.parametrize("field", ["amount", "fee", "nonce"])
@pytest.mark.parametrize("value", [True, False])
def test_bool_fields_encode_as_bool(field, value):
    fields = dict(amount=1, fee=1, nonce=1)
    fields[field] = value
    tx = Transaction("aa" * 32, "bb" * 32, kind=TxKind.TRANSFER, **fields)
    assert tx.signing_bytes == canonical_encode(tx.to_dict())
    assert (b"B" + (1).to_bytes(8, "big") + bytes([value])) in tx.signing_bytes


@pytest.mark.parametrize("field", ["amount", "fee", "nonce"])
def test_numpy_int_fields_still_rejected(field):
    fields = dict(amount=1, fee=1, nonce=1)
    fields[field] = np.int64(3)
    tx = Transaction("aa" * 32, "bb" * 32, kind=TxKind.TRANSFER, **fields)
    with pytest.raises(EncodingError):
        tx.signing_bytes
