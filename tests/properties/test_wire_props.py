"""Wire identity: the one-pass marshal renders the reference wire.

A redirected call's wire bytes sit in the pages shared with the guest,
so they are behaviour the guest can see (``test_channel_crypto_props``
reads them there).  :func:`~repro.core.marshal.marshal_call_into` and
:func:`~repro.core.marshal.marshal_call` size and render a call in one
walk over its arguments; the two-walk :func:`~repro.core.marshal
.wire_size` + :func:`~repro.core.marshal._render_into` stay as the
reference they must equal, byte for byte, for every call drawn here.
"""

from hypothesis import given, settings, strategies as st

from repro.android.binder import Transaction
from repro.core.marshal import (
    _render_into,
    marshal_call,
    marshal_call_into,
    wire_size,
)
from repro.perf.costs import PAGE_SIZE


def reference_wire(name, args, kwargs):
    """The two-walk rendering: size the call, then render into it."""
    size = wire_size(name, args, kwargs)
    wire = bytearray(size)
    _render_into(wire, size, name, args)
    return bytes(wire), size


_BLOBS = st.binary(max_size=PAGE_SIZE + 300)

_INTS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.integers(min_value=-5, max_value=5000),
)

_TEXT = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
    st.text(max_size=12),
)

_LEAVES = st.one_of(
    _INTS,
    _BLOBS,
    _BLOBS.map(bytearray),
    _BLOBS.map(memoryview),
    _TEXT,
    st.none(),
    st.floats(allow_nan=False),
)

_ARGS = st.one_of(
    _LEAVES,
    st.lists(_LEAVES, max_size=3),
    st.dictionaries(st.text(max_size=4), _LEAVES, max_size=3),
    st.builds(Transaction, st.text(max_size=8), st.text(max_size=8),
              st.dictionaries(st.text(max_size=4), _LEAVES, max_size=2)),
)

_CALLS = st.tuples(
    st.sampled_from(["pread64", "pwrite64", "write", "open", "ioctl",
                     "x"]),
    st.lists(_ARGS, max_size=4).map(tuple),
    st.dictionaries(st.sampled_from(["mode", "flags", "offset"]), _ARGS,
                    max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(call=_CALLS)
def test_one_pass_wire_equals_the_reference(call):
    name, args, kwargs = call
    expected = reference_wire(name, args, kwargs)
    wire, size = marshal_call_into(name, args, kwargs)
    assert type(wire) is bytearray
    assert (bytes(wire), size) == expected
    flat = marshal_call(name, args, kwargs)
    assert type(flat[0]) is bytes
    assert flat == expected


def test_fixed_wires_render_as_before():
    """The shapes every crossing carries, spelled out: a name, each
    argument's rendering, truncated at or zero-padded to the wire
    size."""
    page = b"p" * PAGE_SIZE
    assert marshal_call("pread64", (3, 4096, 0), {}) \
        == (b"pread643" + b"4096" + b"0" + bytes(18), 31)
    assert marshal_call("pwrite64", (3, page, 0), {}) \
        == (b"pwrite643" + page + b"0" + bytes(14), 4120)
    assert marshal_call("open", ("/d/x", 578, 420), {}) \
        == (b"open'/d/x'578420" + bytes(8), 24)
    # A long int renders more than its 8 wire bytes: truncated.
    assert marshal_call("lseek", (3, 10 ** 30), {}) \
        == (b"lseek31" + b"0" * 14, 21)
    # Keyword arguments size the wire but render nothing.
    assert marshal_call("open", ("/d/x",), {"mode": 0o600}) \
        == (b"open'/d/x'" + bytes(10), 20)
