"""The MOA -> MIL term rewriter (paper section 4.3).

"The idea behind the algebra implementation is to translate a query on
the representation of the structured operands into a representation of
the structured query result" — each MOA operator becomes a short MIL
program fragment plus a structure function over the result BATs.

The central compile-time objects:

* :class:`SetComp` — a compiled top-level set: a *carrier* MIL
  variable (a BAT whose heads are the candidate element ids) plus the
  element's structure rep.
* :class:`NestedComp` — a compiled set-valued attribute: an *index*
  variable (``BAT[owner, elem]``) plus the element rep; per the paper
  (section 4.3.2) operations on nested sets run once on the flattened
  index instead of once per owner.
* :class:`Col` — a compiled scalar expression over a carrier:
  ``BAT[elem, value]``, total on the candidates.

Published rewrite rules honoured literally:

* ``select[f](SET(A, X)) -> SET(semijoin(A, T(f(X))), X)`` — the
  carrier is filtered with a semijoin against the BAT of qualifying
  ids (:meth:`Rewriter._apply_predicate`).
* Indexable predicates (attribute path compared to a literal) compile
  to a selection on the *full* tail-sorted attribute BAT followed by
  joins back along the reference path — exactly the Q13 plan
  ``orders := select(Order_clerk, ...); items := join(Item_order,
  orders)``.
* ``nest`` compiles to ``group`` (+ binary ``group`` per extra key),
  key extraction, and a member index, like Figure 5's grouping block.
* Aggregates over nested sets compile to one set-aggregate
  ``{g}(join(index, values))`` — "nested aggregates in one go".
"""

from ..analysis.verify import catalog_stats_from_kernel, check_program
from ..errors import RewriteError
from ..monet import atoms as _atoms
from ..monet.mil import MILProgram, Var
from ..monet.optimizer import optimize
from . import ast
from .structures import (AtomRep, InlineAtomRep, InlineRefRep, Mirrored,
                         ObjectRep, RefRep, SetRep, TupleRep, ViaRep)
from .types import BaseType, ClassRef, SetType, TupleType


class Col:
    """A compiled scalar column: MIL var of BAT[elem, value]."""

    __slots__ = ("var", "moa_type")

    def __init__(self, var, moa_type):
        self.var = var
        self.moa_type = moa_type


class SetComp:
    """A compiled top-level set (carrier + element rep)."""

    __slots__ = ("carrier", "inner", "elem_type")

    def __init__(self, carrier, inner, elem_type):
        self.carrier = carrier
        self.inner = inner
        self.elem_type = elem_type


class NestedComp:
    """A compiled nested set: index BAT[owner, elem] + element rep."""

    __slots__ = ("index", "inner", "elem_type")

    def __init__(self, index, inner, elem_type):
        self.index = index
        self.inner = inner
        self.elem_type = elem_type


class RewriteResult:
    """MIL program + result structure rep (+ result kind)."""

    def __init__(self, program, rep, elem_type, scalar_var=None):
        self.program = program
        self.rep = rep
        self.elem_type = elem_type
        #: set for scalar (aggregate-rooted) queries
        self.scalar_var = scalar_var


class Rewriter:
    """Compiles one resolved MOA query into one MIL program."""

    def __init__(self, resolved, flat):
        self.resolved = resolved
        self.schema = resolved.schema
        self.flat = flat
        self.program = MILProgram()
        #: (attr source key, carrier name) -> Col, to reuse semijoins
        self._col_cache = {}

    # ------------------------------------------------------------------
    def rewrite(self):
        root = self.resolved.root
        if isinstance(root, ast.Aggregate):
            col_or_comp = self.compile_set(root.input, None)
            if not isinstance(col_or_comp, SetComp):
                raise RewriteError("scalar aggregate root needs a "
                                   "top-level set")
            value = self.value_col(col_or_comp)
            out = self.program.emit("aggr_all", [value.var], fn=root.func,
                                    hint="scalar")
            return RewriteResult(self.program, None,
                                 self.resolved.type_of(root),
                                 scalar_var=out.name)
        comp = self.compile_set(root, None)
        if isinstance(comp, NestedComp):
            raise RewriteError("query root is a nested set")
        index = self.program.emit("ident", [comp.carrier], hint="result",
                                  comment="result set index")
        rep = SetRep(index, comp.inner)
        return RewriteResult(self.program, rep, comp.elem_type)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def emit(self, op, args, **kw):
        return self.program.emit(op, args, **kw)

    def type_of(self, node):
        return self.resolved.type_of(node)

    def _attr_bat(self, class_name, attr):
        return Var(self.flat.attr_bat_name(class_name, attr))

    # ------------------------------------------------------------------
    # set expressions
    # ------------------------------------------------------------------
    def compile_set(self, node, scope):
        """Compile a set-valued node; ``scope`` is the enclosing
        :class:`SetComp` when inside a set operation, else None."""
        if isinstance(node, ast.Extent):
            return SetComp(Var(self.flat.extent_name(node.class_name)),
                           ObjectRep(node.class_name),
                           ClassRef(node.class_name))
        if isinstance(node, (ast.Attr, ast.Pos, ast.Element)):
            value = self.compile_expr(node, scope)
            if isinstance(value, NestedComp):
                return value
            raise RewriteError("%s is not set-valued here" % node.render())
        if isinstance(node, ast.Select):
            return self._compile_select(node, scope)
        if isinstance(node, ast.Project):
            return self._compile_project(node, scope)
        if isinstance(node, ast.Join):
            return self._compile_join(node, scope)
        if isinstance(node, ast.Semijoin):
            return self._compile_semijoin(node, scope)
        if isinstance(node, ast.SetOp):
            return self._compile_setop(node, scope)
        if isinstance(node, ast.Nest):
            return self._compile_nest(node, scope)
        if isinstance(node, ast.Unnest):
            return self._compile_unnest(node, scope)
        if isinstance(node, ast.Sort):
            return self._compile_sort(node, scope)
        if isinstance(node, ast.Top):
            return self._compile_top(node, scope)
        raise RewriteError("cannot compile set expression %r" % node)

    # -- select -----------------------------------------------------------
    def _compile_select(self, node, scope):
        comp = self.compile_set(node.input, scope)
        if isinstance(comp, NestedComp):
            # section 4.3.2: selection on a set-valued attribute is one
            # flattened selection over all sets at once
            elems = self.emit("mirror", [comp.index], hint="elems")
            inner_comp = SetComp(elems, comp.inner, comp.elem_type)
            for predicate in node.predicates:
                inner_comp = self._apply_predicate(inner_comp, predicate)
            index = self.emit("mirror", [inner_comp.carrier], hint="nsel")
            return NestedComp(index, comp.inner, comp.elem_type)
        for predicate in node.predicates:
            comp = self._apply_predicate(comp, predicate)
        return comp

    def _apply_predicate(self, comp, predicate):
        """SET(semijoin(A, T(f(X))), X): filter the carrier."""
        if isinstance(predicate, ast.BinOp) and predicate.op == "and":
            comp = self._apply_predicate(comp, predicate.left)
            return self._apply_predicate(comp, predicate.right)
        if isinstance(predicate, ast.In):
            return self._apply_membership(comp, predicate, anti=False)
        if isinstance(predicate, ast.UnOp) and predicate.op == "not" \
                and isinstance(predicate.operand, ast.In):
            return self._apply_membership(comp, predicate.operand,
                                          anti=True)
        qualifying = self._indexable_predicate(comp, predicate)
        if qualifying is None:
            boolean = self.compile_expr(predicate, comp)
            if not isinstance(boolean, Col):
                raise RewriteError("predicate %s is not scalar"
                                   % predicate.render())
            qualifying = self.emit("select", [boolean.var, True],
                                   hint="qual")
        carrier = self.emit("semijoin", [comp.carrier, qualifying],
                            hint="sel")
        return SetComp(carrier, comp.inner, comp.elem_type)

    def _indexable_predicate(self, comp, predicate):
        """Fast path: ``cmp(attribute-path, literal)`` compiles to a
        selection on the full tail-sorted attribute BAT, walked back
        through the reference path with joins (the Q13 plan).  Returns
        the qualifying-ids Var, or None when not applicable."""
        if not isinstance(predicate, ast.BinOp):
            return None
        op, left, right = predicate.op, predicate.left, predicate.right
        if isinstance(left, ast.Literal) and not isinstance(right,
                                                            ast.Literal):
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if not isinstance(right, ast.Literal):
            return None
        path = self._attr_path(comp, left)
        if path is None:
            return None
        bat_names, value_atom = path
        literal = _atoms.atom(value_atom).coerce(right.value)
        deepest = bat_names[-1]
        if op == "=":
            qualifying = self.emit("select", [deepest, literal],
                                   hint="q")
        elif op in ("<", "<=", ">", ">="):
            low = literal if op in (">", ">=") else None
            high = literal if op in ("<", "<=") else None
            args = [deepest, low, high,
                    op != ">", op != "<"]
            qualifying = self.emit("select", args, hint="q")
        else:
            return None   # '!=' goes through the generic path
        for bat_name in reversed(bat_names[:-1]):
            qualifying = self.emit("join", [bat_name, qualifying],
                                   hint="q")
        return qualifying

    def _attr_path(self, comp, expr):
        """For pure navigation ``a.b.c`` from the element over class
        references ending in a base type: the chain of attribute BAT
        vars, outermost first.  None when the expression is not such a
        path or crosses tuples/sets."""
        steps = []
        node = expr
        while isinstance(node, ast.Attr):
            steps.append(node.name)
            node = node.base
        if not isinstance(node, ast.Element) or not steps:
            return None
        steps.reverse()
        inner = comp.inner
        if not isinstance(inner, ObjectRep):
            return None
        class_name = inner.class_name
        bat_names = []
        for position, step in enumerate(steps):
            attr_type = self.schema.cls(class_name).attribute(step)
            bat_names.append(self._attr_bat(class_name, step))
            if isinstance(attr_type, ClassRef):
                class_name = attr_type.class_name
            elif isinstance(attr_type, BaseType):
                if position != len(steps) - 1:
                    return None
                return bat_names, attr_type.atom.name
            else:
                return None
        return None

    # -- project ----------------------------------------------------------
    def _compile_project(self, node, scope):
        comp = self.compile_set(node.input, scope)
        nested_input = isinstance(comp, NestedComp)
        if nested_input:
            elems = self.emit("mirror", [comp.index], hint="elems")
            work = SetComp(elems, comp.inner, comp.elem_type)
        else:
            work = comp
        if len(node.items) == 1 and node.items[0][1] is None:
            value = self.compile_expr(node.items[0][0], work)
            if isinstance(value, NestedComp):
                raise RewriteError("project of a bare nested set needs "
                                   "a field name")
            value = self._ensure_col(value, work)
            inner = self._col_rep(value)
            elem_type = self.type_of(node).element
            if nested_input:
                # keep the owner->elem index; values key off elem ids
                return NestedComp(comp.index, inner, elem_type)
            return SetComp(work.carrier, inner, elem_type)
        fields = []
        for expr, name in node.items:
            value = self.compile_expr(expr, work)
            if isinstance(value, NestedComp):
                fields.append((name, SetRep(value.index, value.inner)))
            else:
                value = self._ensure_col(value, work)
                fields.append((name, self._col_rep(value)))
        inner = TupleRep(fields)
        elem_type = self.type_of(node).element
        if nested_input:
            return NestedComp(comp.index, inner, elem_type)
        return SetComp(work.carrier, inner, elem_type)

    def _col_rep(self, col):
        if isinstance(col.moa_type, ClassRef):
            return RefRep(col.var, col.moa_type.class_name)
        if isinstance(col.moa_type, BaseType):
            return AtomRep(col.var, col.moa_type.atom.name)
        raise RewriteError("cannot represent column of type %s"
                           % col.moa_type.render())

    def _ensure_col(self, value, comp):
        if isinstance(value, Col):
            return value
        if isinstance(value, _Scalar):
            raise RewriteError("a constant projection needs a carrier "
                               "column; wrap it in an expression")
        raise RewriteError("expected a scalar column")

    # -- join / semijoin ----------------------------------------------------
    def _key_cols(self, key_expr, comp):
        """Key columns of one join side, carrier-aligned."""
        if isinstance(key_expr, ast.TupleCons):
            return [self._as_col(self.compile_expr(expr, comp), comp)
                    for expr, _name in key_expr.items]
        return [self._as_col(self.compile_expr(key_expr, comp), comp)]

    def _as_col(self, value, comp):
        if isinstance(value, Col):
            return value
        raise RewriteError("join keys must be scalar expressions")

    def _compile_join(self, node, scope):
        left = self._as_top(self.compile_set(node.left, scope))
        right = self._as_top(self.compile_set(node.right, scope))
        left_keys = self._key_cols(node.left_key, left)
        right_keys = self._key_cols(node.right_key, right)
        if len(left_keys) != len(right_keys):
            raise RewriteError("join key arity mismatch")
        args = [c.var for c in left_keys] + [c.var for c in right_keys]
        pairs = self.emit("pairjoin", args, hint="pairs")
        # mint pair ids: lmap[pair, left_elem], rmap[pair, right_elem]
        marked = self.emit("mark", [pairs, 0], hint="pmark")
        lmap = self.emit("mirror", [marked], hint="lmap")
        rmap = self.emit("number", [pairs, 0], hint="rmap")
        inner = TupleRep([
            ("_1", self._via_rep(lmap, left.inner)),
            ("_2", self._via_rep(rmap, right.inner)),
        ])
        carrier = lmap
        elem_type = self.type_of(node).element
        return SetComp(carrier, inner, elem_type)

    def _via_rep(self, map_var, inner):
        return ViaRep(map_var, inner)

    def _compile_semijoin(self, node, scope):
        left = self._as_top(self.compile_set(node.left, scope))
        right = self._as_top(self.compile_set(node.right, scope))
        left_keys = self._key_cols(node.left_key, left)
        right_keys = self._key_cols(node.right_key, right)
        args = [c.var for c in left_keys] + [c.var for c in right_keys]
        pairs = self.emit("pairjoin", args, hint="sjpairs")
        op = "antijoin" if node.anti else "semijoin"
        carrier = self.emit(op, [left.carrier, pairs], hint="sj")
        return SetComp(carrier, left.inner, left.elem_type)

    def _as_top(self, comp):
        if isinstance(comp, NestedComp):
            elems = self.emit("mirror", [comp.index], hint="elems")
            return SetComp(elems, comp.inner, comp.elem_type)
        return comp

    # -- set operations -----------------------------------------------------
    def _compile_setop(self, node, scope):
        left = self._as_top(self.compile_set(node.left, scope))
        right = self._as_top(self.compile_set(node.right, scope))
        elem_type = self.type_of(node).element
        if isinstance(elem_type, ClassRef):
            # compare by *object identity* (oid values), regardless of
            # how each side's elements are keyed
            left_vals = self.value_col(left)
            right_vals = self.value_col(right)
            left_ids = self._value_ident(left_vals)
            right_ids = self._value_ident(right_vals)
            carrier = self.emit(_SETOP_MIL[node.kind],
                                [left_ids, right_ids], hint=node.kind[:3])
            return SetComp(carrier, ObjectRep(elem_type.class_name),
                           elem_type)
        if isinstance(elem_type, BaseType):
            left_vals = self.value_col(left)
            right_vals = self.value_col(right)
            left_ids = self._value_ident(left_vals)
            right_ids = self._value_ident(right_vals)
            carrier = self.emit(_SETOP_MIL[node.kind],
                                [left_ids, right_ids], hint=node.kind[:3])
            return SetComp(carrier, InlineAtomRep(elem_type.atom.name),
                           elem_type)
        raise RewriteError("set operations over %s elements are not "
                           "supported" % elem_type.render())

    def _value_ident(self, col):
        mirrored = self.emit("mirror", [col.var], hint="vm")
        return self.emit("ident", [mirrored], hint="vid")

    # -- nest ----------------------------------------------------------------
    def _compile_nest(self, node, scope):
        comp = self._as_top(self.compile_set(node.input, scope))
        key_cols = []
        for expr, _name in node.keys:
            value = self.compile_expr(expr, comp)
            key_cols.append(self._as_col(value, comp))
        aligned = [self._carrier_aligned(col, comp) for col in key_cols]
        grp = self.emit("group", [aligned[0].var], hint="grp")
        for col in aligned[1:]:
            grp = self.emit("group", [grp, col.var], hint="grp")
        member_index = self.emit("mirror", [grp], hint="members")
        fields = []
        carrier = None
        for (expr, name), col in zip(node.keys, key_cols):
            per_group = self.emit("join", [member_index, col.var],
                                  hint="keyv")
            key_field = self.emit("aggr", [per_group], fn="min",
                                  hint="key",
                                  comment="key extraction per group")
            if carrier is None:
                carrier = key_field
            fields.append((name, self._col_rep(
                Col(key_field, self.type_of(expr)))))
        fields.append((node.group_name, SetRep(member_index, comp.inner)))
        inner = TupleRep(fields)
        elem_type = self.type_of(node).element
        return SetComp(carrier, inner, elem_type)

    def _carrier_aligned(self, col, comp):
        """Column re-ordered to the carrier's BUN order (for group/sort)."""
        ids = self.emit("ident", [comp.carrier], hint="ids")
        var = self.emit("join", [ids, col.var], hint="alg")
        return Col(var, col.moa_type)

    # -- unnest ----------------------------------------------------------------
    def _compile_unnest(self, node, scope):
        comp = self._as_top(self.compile_set(node.input, scope))
        nested = self.compile_expr(ast.Attr(ast.Element(), node.attr),
                                   comp, forced_type=self._unnest_attr_type(
                                       comp, node.attr))
        if not isinstance(nested, NestedComp):
            raise RewriteError("unnest needs a set-valued attribute")
        pairs = nested.index
        marked = self.emit("mark", [pairs, 0], hint="umark")
        lmap = self.emit("mirror", [marked], hint="ulmap")
        rmap = self.emit("number", [pairs, 0], hint="urmap")
        inner = TupleRep([
            ("_1", ViaRep(lmap, comp.inner)),
            ("_2", ViaRep(rmap, nested.inner)),
        ])
        elem_type = self.type_of(node).element
        return SetComp(lmap, inner, elem_type)

    def _unnest_attr_type(self, comp, attr):
        if isinstance(comp.elem_type, ClassRef):
            return self.schema.cls(comp.elem_type.class_name).attribute(attr)
        if isinstance(comp.elem_type, TupleType):
            return comp.elem_type.field(attr)
        raise RewriteError("unnest over %s" % comp.elem_type.render())

    # -- sort / top ---------------------------------------------------------
    def _compile_sort(self, node, scope):
        comp = self._as_top(self.compile_set(node.input, scope))
        args = [comp.carrier]
        for expr, descending in node.keys:
            col = self._as_col(self.compile_expr(expr, comp), comp)
            aligned = self._carrier_aligned(col, comp)
            args.extend([aligned.var, bool(descending)])
        carrier = self.emit("sortby", args, hint="sorted")
        return SetComp(carrier, comp.inner, comp.elem_type)

    def _compile_top(self, node, scope):
        comp = self._as_top(self.compile_set(node.input, scope))
        carrier = self.emit("slice", [comp.carrier, 0, node.n],
                            hint="top")
        return SetComp(carrier, comp.inner, comp.elem_type)

    # ------------------------------------------------------------------
    # scalar expressions over a carrier
    # ------------------------------------------------------------------
    def compile_expr(self, node, comp, forced_type=None):
        """Compile an expression in the scope of ``comp``.

        Returns a :class:`Col`, a :class:`NestedComp` (for set-valued
        attributes), or a :class:`_Scalar` (literals / whole-set
        aggregates)."""
        if isinstance(node, ast.Literal):
            return _Scalar(_atoms.atom(node.atom_name).coerce(node.value),
                           BaseType(node.atom_name))
        if isinstance(node, ast.Element):
            ids = self.emit("ident", [comp.carrier], hint="self")
            return Col(ids, comp.elem_type)
        if isinstance(node, ast.Attr):
            return self._compile_attr(node, comp, forced_type)
        if isinstance(node, ast.Pos):
            return self._compile_pos(node, comp)
        if isinstance(node, ast.BinOp):
            return self._compile_binop(node, comp)
        if isinstance(node, ast.UnOp):
            return self._compile_unop(node, comp)
        if isinstance(node, ast.Call):
            return self._compile_call(node, comp)
        if isinstance(node, ast.Aggregate):
            return self._compile_aggregate(node, comp)
        if isinstance(node, ast.In):
            return self._compile_in(node, comp)
        if isinstance(node, ast.SET_NODES):
            nested = self.compile_set(node, comp)
            if isinstance(nested, NestedComp):
                return nested
            raise RewriteError("top-level set %s used as a scalar"
                               % node.render())
        raise RewriteError("cannot compile expression %r" % node)

    # -- attribute access ----------------------------------------------------
    #
    # Attribute/positional paths from the current element are compiled
    # by *walking the rep tree*: each step either descends into a tuple
    # field (possibly behind Via maps minted by joins/unnests) or
    # navigates an object reference (which becomes a Via map itself:
    # the reference BAT maps element ids to target oids).  At the end
    # the accumulated Via chain is flattened into joins and aligned to
    # the carrier with one semijoin — the paper's reassembly pattern.
    def _compile_attr(self, node, comp, forced_type=None):
        path = self._element_path(node)
        if path is None:
            raise RewriteError("cannot navigate %s (paths must start at "
                               "the element)" % node.render())
        return self._compile_path(comp, path,
                                  forced_type or self.type_of(node))

    def _compile_pos(self, node, comp):
        path = self._element_path(node)
        if path is None:
            raise RewriteError("positional access must start at the "
                               "element")
        return self._compile_path(comp, path, self.type_of(node))

    def _element_path(self, node):
        """The chain of Attr names / Pos indices from Element, or None."""
        steps = []
        cursor = node
        while isinstance(cursor, (ast.Attr, ast.Pos)):
            steps.append(cursor.name if isinstance(cursor, ast.Attr)
                         else cursor.index)
            cursor = cursor.base
        if not isinstance(cursor, ast.Element):
            return None
        steps.reverse()
        return steps

    def _compile_path(self, comp, path, result_type):
        cache_key = (comp.carrier.name, tuple(path))
        cached = self._col_cache.get(cache_key)
        if cached is not None:
            return cached
        rep = comp.inner
        for step in path:
            rep = self._field_of(rep, step)
        result = self._columnize(rep, comp, result_type)
        if isinstance(result, Col):
            self._col_cache[cache_key] = result
        return result

    def _field_of(self, rep, step):
        """Descend one path step through a rep (see block comment)."""
        maps, core = _unwrap_via(rep)
        if isinstance(core, TupleRep):
            if isinstance(step, int):
                name, field_rep = core.fields[step - 1]
            else:
                field_rep = core.field(step)
            return _wrap_via(maps, field_rep)
        if isinstance(core, ObjectRep):
            field_rep = self._object_attr_rep(core.class_name, step)
            return _wrap_via(maps, field_rep)
        if isinstance(core, InlineRefRep):
            field_rep = self._object_attr_rep(core.class_name, step)
            return _wrap_via(maps, field_rep)
        if isinstance(core, RefRep):
            # navigate the reference: its source BAT acts as a Via map
            field_rep = self._object_attr_rep(core.class_name, step)
            return _wrap_via(maps + [core.source], field_rep)
        raise RewriteError("cannot access %r of %r" % (step, rep))

    def _object_attr_rep(self, class_name, step):
        if isinstance(step, int):
            raise RewriteError("positional access on an object of %s"
                               % class_name)
        attr_type = self.schema.cls(class_name).attribute(step)
        source = self._attr_bat(class_name, step)
        if isinstance(attr_type, BaseType):
            return AtomRep(source, attr_type.atom.name)
        if isinstance(attr_type, ClassRef):
            return RefRep(source, attr_type.class_name)
        if isinstance(attr_type, SetType):
            inner = self._set_inner_rep(class_name, step, attr_type.element)
            return SetRep(source, inner)
        raise RewriteError("unsupported attribute type for %s.%s"
                           % (class_name, step))

    def _columnize(self, rep, comp, result_type):
        """Flatten a path rep into a carrier-aligned Col / NestedComp.

        The Via chain is restricted to the carrier *first* and then
        walked with joins — the paper's Q13 order (``critems :=
        semijoin(Item_order, ritems); join(critems, Order_orderdate)``)
        — so navigation never touches objects outside the selection.
        """
        maps, core = _unwrap_via(rep)
        if isinstance(core, (AtomRep, RefRep)):
            acc = self._restricted_chain(maps, comp)
            if acc is None:
                var = self.emit("semijoin", [core.source, comp.carrier],
                                hint="col")
            else:
                var = self.emit("join", [acc, core.source], hint="nav")
            return Col(var, result_type)
        if isinstance(core, SetRep):
            acc = self._restricted_chain(maps, comp)
            if acc is None:
                index = self.emit("semijoin", [core.index, comp.carrier],
                                  hint="sidx")
            else:
                index = self.emit("join", [acc, core.index],
                                  hint="nidx")
            element = result_type.element \
                if isinstance(result_type, SetType) else None
            return NestedComp(index, core.inner, element)
        if isinstance(core, (ObjectRep, InlineRefRep, InlineAtomRep)):
            # the ids themselves are the values
            if not maps:
                ids = self.emit("ident", [comp.carrier], hint="self")
                return Col(ids, result_type)
            acc = self._restricted_chain(maps[:-1], comp)
            if acc is None:
                var = self.emit("semijoin", [maps[-1], comp.carrier],
                                hint="col")
            else:
                var = self.emit("join", [acc, maps[-1]], hint="nav")
            return Col(var, result_type)
        raise RewriteError("cannot columnize %r" % rep)

    def _restricted_chain(self, maps, comp):
        """Fold a Via-map chain left-associatively, restricted to the
        carrier up front.  Returns None for an empty chain (the caller
        then restricts the core source directly)."""
        if not maps:
            return None
        acc = self.emit("semijoin", [maps[0], comp.carrier], hint="nav")
        for map_source in maps[1:]:
            acc = self.emit("join", [acc, map_source], hint="nav")
        return acc

    def _set_inner_rep(self, class_name, attr, element_type):
        """Inner rep of a stored set attribute, per the mapping."""
        if isinstance(element_type, BaseType):
            return InlineAtomRep(element_type.atom.name)
        if isinstance(element_type, ClassRef):
            return ObjectRep(element_type.class_name)
        if isinstance(element_type, TupleType):
            fields = []
            for field_name, field_type in element_type.fields:
                source = Var(self.flat.field_bat_name(class_name, attr,
                                                      field_name))
                if isinstance(field_type, BaseType):
                    fields.append((field_name,
                                   AtomRep(source, field_type.atom.name)))
                elif isinstance(field_type, ClassRef):
                    fields.append((field_name,
                                   RefRep(source, field_type.class_name)))
                else:
                    raise RewriteError("doubly nested set attribute")
            return TupleRep(fields)
        raise RewriteError("unsupported set element type")

    # -- operators over columns -------------------------------------------------
    def _compile_binop(self, node, comp):
        if node.op in ("and", "or"):
            left = self._as_col(self.compile_expr(node.left, comp), comp)
            right = self._as_col(self.compile_expr(node.right, comp), comp)
            var = self.emit("multiplex", [left.var, right.var], fn=node.op,
                            hint="b")
            return Col(var, self.type_of(node))
        left = self.compile_expr(node.left, comp)
        right = self.compile_expr(node.right, comp)
        fn = node.op
        return self._multiplex(fn, [left, right], self.type_of(node))

    def _compile_unop(self, node, comp):
        operand = self.compile_expr(node.operand, comp)
        return self._multiplex(node.op, [operand], self.type_of(node))

    def _compile_call(self, node, comp):
        args = [self.compile_expr(a, comp) for a in node.args]
        return self._multiplex(node.fname, args, self.type_of(node))

    def _multiplex(self, fn, operands, result_type):
        """Emit ``[fn](...)`` over Col/scalar operands."""
        args = []
        saw_col = False
        for operand in operands:
            if isinstance(operand, Col):
                args.append(operand.var)
                saw_col = True
            elif isinstance(operand, _Scalar):
                args.append(operand.value)
            else:
                raise RewriteError("cannot multiplex %r" % operand)
        if not saw_col:
            raise RewriteError("constant expressions are not supported "
                               "standalone; fold them first")
        var = self.emit("multiplex", args, fn=fn, hint="m")
        return Col(var, result_type)

    # -- aggregates ---------------------------------------------------------
    def _compile_aggregate(self, node, comp):
        inner = self.compile_set(node.input, comp)
        if isinstance(inner, NestedComp):
            return self._nested_aggregate(node, inner, comp)
        # aggregate over an (uncorrelated) top-level set: a scalar
        value = self.value_col(inner)
        var = self.emit("aggr_all", [value.var], fn=node.func,
                        hint="scalar")
        return _Scalar(var, self.type_of(node))

    def _nested_aggregate(self, node, nested, comp):
        """{g}(join(index, values)) — nested aggregates in one go.

        count/sum of an empty set is 0 (SQL semantics), but the
        set-aggregate only emits BUNs for non-empty owners; a fillzero
        against the scope carrier patches the gap.  min/max/avg over
        possibly-empty sets stay partial (guard with count > 0).
        """
        if node.func == "count":
            per_owner = self.emit("aggr", [nested.index], fn="count",
                                  hint="agg")
            per_owner = self.emit("fillzero", [per_owner, comp.carrier],
                                  hint="agg") if comp is not None \
                else per_owner
            return Col(per_owner, self.type_of(node))
        values = self._nested_value_source(nested)
        joined = self.emit("join", [nested.index, values], hint="aggv")
        per_owner = self.emit("aggr", [joined], fn=node.func, hint="agg")
        if node.func == "sum" and comp is not None:
            per_owner = self.emit("fillzero", [per_owner, comp.carrier],
                                  hint="agg")
        return Col(per_owner, self.type_of(node))

    def _nested_value_source(self, nested):
        """Var of BAT[elem, value] for a nested set's element values."""
        inner = nested.inner
        if isinstance(inner, (InlineAtomRep, InlineRefRep)):
            # SET(A): the index tail IS the value; join(index, values)
            # degenerates to the index itself, expressed via ident on
            # the mirrored index
            mirrored = self.emit("mirror", [nested.index], hint="nv")
            return self.emit("ident", [mirrored], hint="nvid")
        if isinstance(inner, (AtomRep, RefRep)):
            return inner.source
        raise RewriteError("aggregate over non-scalar set elements")

    def value_col(self, comp):
        """Value column of a top-level set of scalars (for aggr_all)."""
        inner = comp.inner
        if isinstance(inner, (AtomRep, RefRep)):
            ids = self.emit("ident", [comp.carrier], hint="ids")
            var = self.emit("join", [ids, inner.source], hint="vals")
            moa = BaseType(inner.atom_name) if isinstance(inner, AtomRep) \
                else ClassRef(inner.class_name)
            return Col(var, moa)
        if isinstance(inner, (InlineAtomRep, InlineRefRep)):
            var = self.emit("ident", [comp.carrier], hint="vals")
            moa = BaseType(inner.atom_name) \
                if isinstance(inner, InlineAtomRep) \
                else ClassRef(inner.class_name)
            return Col(var, moa)
        if isinstance(inner, ObjectRep):
            var = self.emit("ident", [comp.carrier], hint="vals")
            return Col(var, ClassRef(inner.class_name))
        raise RewriteError("set of %r has no single value column" % inner)

    # -- membership -----------------------------------------------------------
    def _apply_membership(self, comp, node, anti):
        """``select[in(e, X)](S)``: carrier elements whose key value
        occurs in X — compiled as one (anti)semijoin over the mirrored
        value columns."""
        item = self._as_col(self.compile_expr(node.item, comp), comp)
        input_comp = self.compile_set(node.input, comp)
        if isinstance(input_comp, NestedComp):
            raise RewriteError("in() over correlated nested sets is not "
                               "supported; use semijoin")
        values = self.value_col(self._as_top(input_comp))
        item_mirror = self.emit("mirror", [item.var], hint="inm")
        values_mirror = self.emit("mirror", [values.var], hint="ivm")
        op = "antijoin" if anti else "semijoin"
        hits = self.emit(op, [item_mirror, values_mirror], hint="inh")
        qualifying = self.emit("mirror", [hits], hint="inq")
        carrier = self.emit("semijoin", [comp.carrier, qualifying],
                            hint="sel")
        return SetComp(carrier, comp.inner, comp.elem_type)

    def _compile_in(self, node, comp):
        raise RewriteError("in() is only supported as a selection "
                           "predicate")


def _unwrap_via(rep):
    """Strip leading ViaRep layers; returns (map sources, core rep)."""
    maps = []
    while isinstance(rep, ViaRep):
        maps.append(rep.map_source)
        rep = rep.inner
    return maps, rep


def _wrap_via(maps, rep):
    """Re-apply Via maps (outermost first) around a rep."""
    for map_source in reversed(maps):
        rep = ViaRep(map_source, rep)
    return rep


class _Scalar:
    """A compile-time scalar: literal value or aggr_all result Var."""

    __slots__ = ("value", "moa_type")

    def __init__(self, value, moa_type):
        self.value = value
        self.moa_type = moa_type


_SETOP_MIL = {
    "union": "union",
    "difference": "kdiff",
    "intersection": "semijoin",
}


def rep_root_names(result):
    """Variable names the result rep (or scalar) observes.

    These are the roots of the optimizer's passes: a MIL statement
    whose target none of them (transitively) depends on can be
    eliminated without changing what the Materializer can see, and a
    root is read by name, so it is never merged into another
    statement's target.
    """
    roots = set()
    if result.scalar_var is not None:
        roots.add(result.scalar_var)
    _collect_rep_sources(result.rep, roots)
    return roots


def _collect_rep_sources(rep, roots):
    if rep is None:
        return
    source = getattr(rep, "source", None) or getattr(rep, "index", None) \
        or getattr(rep, "map_source", None)
    while isinstance(source, Mirrored):
        source = source.source
    if isinstance(source, Var):
        roots.add(source.name)
    for inner in getattr(rep, "fields", ()):
        _collect_rep_sources(inner[1], roots)
    _collect_rep_sources(getattr(rep, "inner", None), roots)


def rewrite(resolved, flat, catalog=None, budget=None, verify=True):
    """Rewrite a resolved query to (MIL program, result structure).

    The path every compiled plan takes: the rewriter emits the plan,
    the optimizer's pass pipeline (:func:`repro.monet.optimizer.optimize`:
    common-subexpression merging, then dead-code elimination, both
    rooted at what the result rep reads) shrinks it, and the surviving
    program is verified once against the operator signature registry —
    a miscompile (unbound reference, type violation, malformed
    statement) surfaces here as a
    :class:`~repro.errors.PlanVerificationError` instead of at run
    time, and an optional admission ``budget`` (a
    :class:`~repro.analysis.verify.PlanBudget`) is enforced in the same
    pass as :class:`~repro.errors.PlanBudgetExceededError`.

    ``catalog`` is the stats dict to verify against; callers compiling
    many plans over one database pass it once instead of paying
    :func:`~repro.analysis.verify.catalog_stats_from_kernel` per plan.
    ``verify=False`` skips the check for callers that time it as a
    layer of its own.
    """
    result = Rewriter(resolved, flat).rewrite()
    optimize(result.program, rep_root_names(result))
    if verify:
        if catalog is None:
            catalog = catalog_stats_from_kernel(flat.kernel)
        check_program(result.program, catalog=catalog, budget=budget)
    return result
