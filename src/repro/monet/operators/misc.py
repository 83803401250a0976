"""Small MIL utilities: mirror, mark, number, ident.

``mark`` numbers the BUNs of a BAT with fresh dense oids; MOA's
rewriter uses it to mint element ids for join pairs and projected
tuples, the way Monet's ``mark`` supports intermediate-result oids.
"""

from ..buffer import get_manager
from ..column import VoidColumn
from ..properties import Props
from .common import result_bat


def mirror(ab, name=None):
    """The zero-cost mirror view (head and tail swapped)."""
    out = ab.mirror()
    if name is not None:
        out.name = name
    return out


def mark(ab, base=0, name=None):
    """``[a, o]`` with fresh dense oids ``o = base, base+1, ...``.

    The tail is a void (virtual) column, so marking is free of storage.
    """
    manager = get_manager()
    with manager.operator("mark"):
        manager.access_column(ab.head)
    tail = VoidColumn(base, len(ab))
    props = Props(hkey=ab.props.hkey, hordered=ab.props.hordered,
                  tkey=True, tordered=True)
    return result_bat(ab.head, tail, name=name, props=props,
                      alignment=ab.alignment)


def number(ab, base=0, name=None):
    """``[o, b]``: dense oids over the tail values (mark mirrored)."""
    head = VoidColumn(base, len(ab))
    props = Props(hkey=True, hordered=True, tkey=ab.props.tkey,
                  tordered=ab.props.tordered)
    return result_bat(head, ab.tail, name=name, props=props)


def ident(ab, name=None):
    """``[a, a]``: the head column duplicated into the tail.

    The MOA rewriter uses it to treat a carrier BAT's heads as values
    (element identity), e.g. before BUN-level set operations.
    """
    props = Props(hkey=ab.props.hkey, hordered=ab.props.hordered,
                  tkey=ab.props.hkey, tordered=ab.props.hordered)
    return result_bat(ab.head, ab.head, name=name, props=props,
                      alignment=ab.alignment)
