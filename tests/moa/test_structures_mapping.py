"""Structure functions + the flattening mapping (paper section 3.3)."""

import numpy as np
import pytest

from repro.errors import MappingError, MOAError
from repro.moa import (Bag, MOADatabase, Ref, Row, Schema, ref, setof,
                       tupleof)
from repro.moa.mapping import (columns_to_objects, flatten,
                               objects_to_columns)
from repro.moa.structures import (AtomRep, InlineAtomRep, InlineRefRep,
                                  Materializer, Mirrored, ObjectRep,
                                  RefRep, SetRep, TupleRep, ViaRep)
from repro.moa.types import DOUBLE, INT, STRING
from repro.monet.kernel import MonetKernel
from repro.monet.mil import Var
from repro.monet import bat_from_pairs


def _schema():
    schema = Schema()
    schema.define("Dept", [("name", STRING)])
    schema.define("Emp", [
        ("name", STRING), ("salary", DOUBLE), ("dept", ref("Dept")),
        ("grades", setof(INT)),
        ("projects", setof(tupleof(("title", STRING),
                                   ("hours", INT)))),
    ])
    return schema


DATA = {
    "Dept": {0: {"name": "R&D"}, 1: {"name": "Sales"}},
    "Emp": {
        10: {"name": "ada", "salary": 100.0, "dept": 0,
             "grades": [1, 2], "projects": [
                 {"title": "x", "hours": 5}]},
        11: {"name": "bob", "salary": 80.0, "dept": 1, "grades": [],
             "projects": [{"title": "x", "hours": 2},
                          {"title": "y", "hours": 7}]},
    },
}


def _flatten(data, kernel):
    schema = _schema()
    return flatten(schema, objects_to_columns(schema, data), kernel)


@pytest.fixture(scope="module")
def flat():
    kernel = MonetKernel()
    return _flatten(DATA, kernel)


# ----------------------------------------------------------------------
# the Figure 3 decomposition
# ----------------------------------------------------------------------
def test_extent_bats(flat):
    extent = flat.kernel.get("Emp")
    assert extent.signature() == "[oid,oid]"
    assert extent.tail.is_void()
    assert [h for h, _t in extent.to_pairs()] == [10, 11]


def test_attribute_bats(flat):
    names = flat.kernel.get("Emp_name")
    assert names.to_pairs() == [(10, "ada"), (11, "bob")]
    dept = flat.kernel.get("Emp_dept")
    assert dept.to_pairs() == [(10, 0), (11, 1)]


def test_simple_set_bat(flat):
    # SET(A) optimisation: one BAT, 0..n BUNs per owner
    grades = flat.kernel.get("Emp_grades")
    assert grades.to_pairs() == [(10, 1), (10, 2)]


def test_tuple_set_bats(flat):
    index = flat.kernel.get("Emp_projects")
    titles = flat.kernel.get("Emp_projects_title")
    hours = flat.kernel.get("Emp_projects_hours")
    assert [h for h, _t in index.to_pairs()] == [10, 11, 11]
    assert [t for _h, t in titles.to_pairs()] == ["x", "x", "y"]
    assert [t for _h, t in hours.to_pairs()] == [5, 2, 7]
    # field BATs are mutually synced (loaded in one group)
    from repro.monet.properties import synced
    assert synced(titles, hours)


def test_class_attribute_bats_synced(flat):
    from repro.monet.properties import synced
    assert synced(flat.kernel.get("Emp_name"),
                  flat.kernel.get("Emp_salary"))


def test_structure_expression_renders(flat):
    rep = flat.class_rep("Emp")
    assert rep.render() == "SET(mirror(Emp), OBJECT(Emp))"
    projects = flat.attribute_rep("Emp", "projects")
    assert isinstance(projects, SetRep)
    assert isinstance(projects.inner, TupleRep)
    grades = flat.attribute_rep("Emp", "grades")
    assert isinstance(grades.inner, InlineAtomRep)
    dept = flat.attribute_rep("Emp", "dept")
    assert isinstance(dept, RefRep)


def test_mapping_rejects_missing_attribute():
    bad = {"Dept": {0: {"name": "x"}},
           "Emp": {1: {"name": "y"}}}       # salary etc. missing
    with pytest.raises(MappingError):
        _flatten(bad, MonetKernel())


def test_mapping_rejects_wrong_ref_class():
    bad = dict(DATA)
    bad = {"Dept": {0: {"name": "x"}},
           "Emp": {1: {"name": "y", "salary": 1.0,
                       "dept": Ref("Emp", 0), "grades": [],
                       "projects": []}}}
    with pytest.raises(MappingError):
        _flatten(bad, MonetKernel())


def test_mapping_rejects_non_tuple_value():
    bad = {"Dept": {0: {"name": "x"}},
           "Emp": {1: {"name": "y", "salary": 1.0, "dept": 0,
                       "grades": [], "projects": [5]}}}
    with pytest.raises(MappingError):
        _flatten(bad, MonetKernel())


def test_flatten_rejects_malformed_columns():
    schema = _schema()
    good = objects_to_columns(schema, DATA)
    oids, attributes = good["Emp"]
    short = dict(good, Emp=(oids, dict(attributes, salary=[100.0])))
    unpaired = dict(good, Emp=(oids, dict(attributes, grades=[1, 2])))
    for columns in (DATA, short, unpaired, {"Dept": good["Dept"]}):
        with pytest.raises(MappingError):
            flatten(schema, columns, MonetKernel())


def test_columns_round_trip_to_the_logical_store():
    schema = _schema()
    columns = objects_to_columns(schema, DATA)
    assert columns["Emp"][1]["grades"] == ([10, 10], [1, 2])
    assert columns_to_objects(schema, columns) == DATA
    flat = flatten(schema, columns, MonetKernel())
    assert flat.data == DATA              # derived on first read


# ----------------------------------------------------------------------
# materialization of rep trees
# ----------------------------------------------------------------------
def _resolver_for(kernel, extra=None):
    extra = extra or {}

    def resolver(source):
        if isinstance(source, Var):
            if source.name in extra:
                return extra[source.name]
            return kernel.get(source.name)
        return source

    return resolver


def test_materialize_class_extent(flat):
    rep = flat.class_rep("Dept")
    rows = Materializer(_resolver_for(flat.kernel)).top_level(rep)
    assert rows == [Ref("Dept", 0), Ref("Dept", 1)]


def test_materialize_tuple_with_nested_set(flat):
    kernel = flat.kernel
    rep = SetRep(
        Mirrored(Var("Emp")),
        TupleRep([
            ("name", AtomRep(Var("Emp_name"), "string")),
            ("projects", SetRep(Var("Emp_projects"), TupleRep([
                ("title", AtomRep(Var("Emp_projects_title"), "string")),
                ("hours", AtomRep(Var("Emp_projects_hours"), "int")),
            ]))),
        ]))
    rows = Materializer(_resolver_for(kernel)).top_level(rep)
    assert rows[0]["name"] == "ada"
    assert rows[0]["projects"] == Bag([Row([("title", "x"),
                                            ("hours", 5)])])
    assert len(rows[1]["projects"]) == 2


def test_materialize_empty_set_owner(flat):
    # bob has no grades: the set map must yield an empty bag
    rep = SetRep(
        Mirrored(Var("Emp")),
        TupleRep([("grades",
                   SetRep(Var("Emp_grades"), InlineAtomRep("int")))]))
    rows = Materializer(_resolver_for(flat.kernel)).top_level(rep)
    assert rows[0]["grades"] == Bag([1, 2])
    assert rows[1]["grades"] == Bag()


def test_materialize_via_rep():
    mapping = bat_from_pairs("oid", "oid", [(100, 1), (101, 2)])
    values = bat_from_pairs("oid", "string", [(1, "a"), (2, "b")])
    rep = ViaRep(mapping, AtomRep(values, "string"))
    materializer = Materializer(lambda s: s)
    # asked in another order than the mapping BAT's: a real gather
    assert materializer.values(rep, np.array([101, 100])) == ["b", "a"]
    with pytest.raises(MOAError):
        materializer.values(rep, np.array([100, 999]))


def test_materialize_inline_ref():
    index = bat_from_pairs("oid", "oid", [(7, 42)])
    rep = SetRep(index, InlineRefRep("Dept"))
    values = Materializer(lambda s: s).values(rep, np.array([7, 8]))
    assert values == [Bag([Ref("Dept", 42)]), Bag()]


def test_object_rep_identity():
    values = Materializer(lambda s: s).values(ObjectRep("Emp"),
                                              np.array([10]))
    assert values == [Ref("Emp", 10)]


# ----------------------------------------------------------------------
# end-to-end through MOADatabase on this schema
# ----------------------------------------------------------------------
def test_end_to_end_commutes_on_hr_schema():
    db = MOADatabase(_schema())
    db.load(DATA)
    db.build_accelerators()
    for query in [
        "select[>(salary, 90.0)](Emp)",
        'project[<name : n, dept.name : d>](Emp)',
        "project[<name : n, sum(project[hours](%projects)) : h>](Emp)",
        "select[in(dept, project[%0](Dept))](Emp)",
        "nest[dept](Emp)",
        "unnest[projects](Emp)",
        "project[<%1.name : who, %2.title : what>]"
        "(unnest[projects](Emp))",
        "sort[salary desc](Emp)",
        "count(Emp)",
    ]:
        db.check_commutes(query)
