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
numbers them in table order, with no first-position scatter.  Wide
spans and floats go through ``np.unique``; NaN keys each get their own
oid.

Grouping costs one pass over the rows and nothing more:

* a key that already is a column of group codes (dense ``0..k-1``)
  is its own code column — no table gather;
* the binary form refines by a compact integer key directly: the
  mixed-radix code ``left * span + (key - min)`` is monotone in the
  key, so one factorization of it yields the same dense oids as
  factorizing the key first (:func:`~repro.monet.vectorized.refine_codes`);
* the result shares the operand's head column instead of copying it:
  its BUNs are the operand's, in the operand's order.
"""

from ...errors import OperatorError
from .. import atoms as _atoms
from ..buffer import get_manager
from ..column import FixedColumn
from ..optimizer import get_optimizer
from ..properties import Props, synced
from ..vectorized import factorize, refine_codes
from .common import result_bat
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
    return result_bat(ab.head, tail, name=name, props=props,
                      alignment=ab.alignment)


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
            right_keys = cd.tail.keys()
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
            # every left BUN matched one head-unique right BUN, in
            # left-major order: left_pos is the identity
            right_keys = cd.tail.keys()[right_pos]
        manager.access_column(grp.tail)
        manager.access_column(cd.tail)
        codes, n_groups = refine_codes(grp.tail.logical(), right_keys)
        manager.access_column(grp.head)
    tail = FixedColumn(_atoms.OID, codes)
    props = Props(hkey=grp.props.hkey, hordered=grp.props.hordered,
                  tkey=(n_groups == len(grp)))
    return result_bat(grp.head, tail, name=name, props=props,
                      alignment=grp.alignment)


def _as_join_operand(grp):
    """View ``grp`` as ``[head, head]`` so join matches on heads."""
    return result_bat(grp.head, grp.head, props=Props(
        hkey=grp.props.hkey, hordered=grp.props.hordered,
        tkey=grp.props.hkey, tordered=grp.props.hordered))
