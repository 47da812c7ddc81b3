"""Copy-on-write ledger overlays read exactly like a plain dict.

``LedgerState.child`` stacks overlay maps over a frozen base — a dict or
a columnar ``ColumnMap`` — and folds the stack once it reaches the
flatten depth.  Whatever the depth, every layer must read (get, [], in,
len, iteration order, equality) like a dict that received the same
writes in order, and no write may leak into an ancestor snapshot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import LedgerState
from repro.ledger.state import _FLATTEN_DEPTH
from repro.world.columnar import AgentTable
from repro.workloads.load import agent_addresses

ADDRESSES = agent_addresses(4)
KEYS = ADDRESSES + ["ff" * 32, "validator"]

_WRITES = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(min_value=0, max_value=99)),
    max_size=4,
)


def genesis(columnar):
    if columnar:
        return LedgerState.from_columns(AgentTable(ADDRESSES, initial_balance=7))
    return LedgerState({address: 7 for address in ADDRESSES})


def assert_reads_like(view, reference):
    for key in KEYS + ["absent"]:
        assert view.get(key, -1) == reference.get(key, -1)
        assert (key in view) == (key in reference)
        if key in reference:
            assert view[key] == reference[key]
    assert len(view) == len(reference)
    assert list(view) == list(reference)
    assert dict(view.items()) == reference
    assert view == reference


@settings(max_examples=100, deadline=None)
@given(
    columnar=st.booleans(),
    layers=st.lists(_WRITES, max_size=2 * _FLATTEN_DEPTH + 3),
)
def test_overlay_chain_reads_like_sequential_dict(columnar, layers):
    state = genesis(columnar)
    reference = {address: 7 for address in ADDRESSES}
    snapshots = [(state, dict(reference))]
    for writes in layers:
        state = state.child()
        for key, value in writes:
            state.balances[key] = state.balances.get(key, 0) + value
            reference[key] = reference.get(key, 0) + value
        assert_reads_like(state.balances, reference)
        snapshots.append((state, dict(reference)))
    for snapshot, expected in snapshots:
        assert_reads_like(snapshot.balances, expected)


@settings(max_examples=50, deadline=None)
@given(depth=st.integers(min_value=1, max_value=2 * _FLATTEN_DEPTH + 3))
def test_storage_reads_copy_at_any_depth(depth):
    state = LedgerState()
    state.contract_storage["c"] = {"deals": {"d": [1]}}
    chain = [state]
    for level in range(1, depth + 1):
        # A parent is frozen once it has a child: write, then stack.
        layer = chain[-1].child()
        layer.contract_storage["c"]["deals"]["d"].append(level + 1)
        chain.append(layer)
    for level, layer in enumerate(chain):
        assert layer.contract_storage["c"] == {"deals": {"d": list(range(1, level + 2))}}
    assert chain[-1].contract_storage.get("missing") is None
    assert "missing" not in chain[-1].contract_storage
