"""Grouping: ``AB.group`` and ``AB.group(CD)`` (Figure 4).

``group`` "introduces new oids for uniquely occurring values in a BAT
column"::

    AB.group     = { a o_b  | ab in AB, o_b  = unique_oid(b) }
    AB.group(CD) = { a o_bd | ab in AB, cd in CD, a = c,
                             o_bd = unique_oid(b, d) }

It implements SQL ``GROUP BY`` and MOA ``nest``; groupings on multiple
attributes chain the binary form: ``group(a); group(grp, b); ...``
(section 4.2, "followed up by binary group invocations till all
attributes are processed").

Group oids are dense ``0..k-1`` in order of *sorted distinct key*, so
the result tail can later be used as a dense head by the aggregation
operators.  Handing out those oids needs no sort when the keys are
integers with a compact span — heap indices of a string column, oids,
the previous group's codes: :func:`~repro.monet.vectorized.factorize`
marks the keys present in a direct-address table over the span and
numbers them in table order.  Wide spans and floats go through
``np.unique``; NaN keys each get their own oid.
"""

import numpy as np

from ...errors import OperatorError
from .. import atoms as _atoms
from ..buffer import get_manager
from ..column import FixedColumn
from ..optimizer import get_optimizer
from ..properties import Props, synced
from ..vectorized import combine_codes
from .common import factorize, result_bat
from .join import join_positions


def group1(ab, name=None):
    """Unary group: new dense oid per distinct tail value."""
    manager = get_manager()
    optimizer = get_optimizer()
    optimizer.record("group", "unary")
    with manager.operator("group"):
        manager.access_column(ab.tail)
        codes, n_groups = factorize(ab.tail.keys())
        manager.access_column(ab.head)
    tail = FixedColumn(_atoms.OID, codes)
    props = Props(hkey=ab.props.hkey, hordered=ab.props.hordered,
                  tkey=(n_groups == len(ab)))
    out = result_bat(ab.head.take(np.arange(len(ab), dtype=np.int64)),
                     tail, name=name, props=props, alignment=ab.alignment)
    return out


def group2(grp, cd, name=None):
    """Binary group: refine ``grp``'s groups by ``cd``'s tail values.

    ``grp`` must be a ``[head, group-oid]`` BAT (typically the output of
    a previous group); ``cd`` supplies one extra grouping attribute for
    the same heads.
    """
    manager = get_manager()
    optimizer = get_optimizer()
    with manager.operator("group"):
        if optimizer.dynamic and synced(grp, cd):
            optimizer.record("group", "binary-synced")
            left_codes = np.asarray(grp.tail.logical(), dtype=np.int64)
            right_keys = cd.tail.keys()
            head_positions = np.arange(len(grp), dtype=np.int64)
        else:
            optimizer.record("group", "binary-hash")
            if not cd.props.hkey:
                raise OperatorError(
                    "binary group needs a head-unique second operand "
                    "when operands are not synced")
            left_pos, right_pos = join_positions(
                _as_join_operand(grp), cd)
            if len(left_pos) != len(grp):
                raise OperatorError(
                    "binary group: second operand misses %d heads"
                    % (len(grp) - len(left_pos)))
            left_codes = np.asarray(
                grp.tail.logical(), dtype=np.int64)[left_pos]
            right_keys = cd.tail.keys()[right_pos]
            head_positions = left_pos
        manager.access_column(grp.tail)
        manager.access_column(cd.tail)
        right_codes, n_right = factorize(right_keys)
        combined = combine_codes(left_codes, right_codes, n_right)
        codes, n_groups = factorize(combined)
        manager.access_column(grp.head)
    tail = FixedColumn(_atoms.OID, codes)
    props = Props(hkey=grp.props.hkey, hordered=grp.props.hordered,
                  tkey=(n_groups == len(grp)))
    return result_bat(grp.head.take(head_positions), tail, name=name,
                      props=props, alignment=grp.alignment)


def _as_join_operand(grp):
    """View ``grp`` as ``[head, head]`` so join matches on heads."""
    return result_bat(grp.head, grp.head, props=Props(
        hkey=grp.props.hkey, hordered=grp.props.hordered,
        tkey=grp.props.hkey, tordered=grp.props.hordered))
