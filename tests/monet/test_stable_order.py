"""``stable_order`` against numpy's stable argsort, its definition.

The reorder of every attribute BAT on its tail (``sort_tail``) and
so the reference loader's catalog go through ``stable_order``: keys
wider than 16 bits take the default sort plus a tie-fix by position,
narrower keys numpy's radix sort.  The permutation must be the stable
one, bit for bit, for NaN (all NaNs tie), -0.0 against 0.0, the
infinities, runs of ties, the empty array and one element.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.monet.operators.sort import stable_order

SETTINGS = dict(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]))

KEYS = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 40), elements=_FLOATS),
    hnp.arrays(st.sampled_from([np.int32, np.int64]), st.integers(0, 40),
               elements=st.integers(-3, 3)),
    hnp.arrays(st.sampled_from([np.int32, np.int64]), st.integers(0, 40)),
    hnp.arrays(st.sampled_from([np.int8, np.int16, np.uint16, np.bool_]),
               st.integers(0, 40)),
)


@settings(**SETTINGS)
@given(keys=KEYS)
@example(keys=np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, np.nan, 0.0]))
@example(keys=np.empty(0, dtype=np.float64))
@example(keys=np.array([np.nan]))
@example(keys=np.array([5], dtype=np.int32))
def test_stable_order_equals_the_stable_argsort(keys):
    expected = np.argsort(keys, kind="stable")
    order = stable_order(keys)
    assert order.tolist() == expected.tolist()
    assert order.dtype == expected.dtype
