"""Every frozen record behaves as the stdlib frozen dataclass of its fields.

``graph.Value`` gives all 18 records their constructor, repr, equality,
hash and freezing, read off each class's fields; ``dataclass`` only declares
those fields. Each record is checked here against a reference class that
the stdlib ``@dataclass(frozen=True)`` makes of the same fields, on records
the library builds and on records built here.
"""

import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError, asdict, field, fields, is_dataclass, make_dataclass, replace
from itertools import product

import pytest

import depmat.graph
from depmat.fileio import Records, parse_graph
from depmat.graph import (
    Activity,
    ActivityEdge,
    ActivityGraph,
    ValidationIssue,
    ValidationReport,
    Value,
    validate,
)
from depmat.localization import AnnotatedMatrix, Candidate, LocalizationReport, annotate_matrix, localize
from depmat.matrices import (
    AdjacencyMatrix,
    CondensedGraph,
    DependencyMatrix,
    IncidenceMatrix,
    adjacency_matrix,
    condense_sccs,
    dependency_matrix,
    incidence_matrix,
    transitive_closure,
)
from depmat.schedule import Classification, Schedule, classify_activities, compute_schedule
from depmat.simulation import ExperimentReport, FaultScenario, GeneratorParams, generate_graph, inject, run_experiment

from conftest import ROBOT_PATH

# records whose own constructor checks its input, or takes none at all
OWN_CONSTRUCTOR = (ActivityGraph, IncidenceMatrix, AdjacencyMatrix, DependencyMatrix)


def _samples() -> dict[type, list]:
    """Per record class, records of distinct field values, the first of
    them also as an equal copy."""
    params = GeneratorParams(node_count=12, layer_count=3, edge_density=0.5, feedback_edge_fraction=0.3, seed=4)
    robot, small = parse_graph(ROBOT_PATH.read_bytes()), generate_graph(params)
    reports = [localize(robot, ["v2", "v4"]), localize(small, [small.node_ids[-1], small.node_ids[5]])]
    samples = {
        ValidationIssue: [ValidationIssue("error", "invalid-id", "bad", ("x",)), ValidationIssue("warning", "w", "m")],
        ValidationReport: [validate(small), validate(robot), ValidationReport(())],
        Activity: [robot.activities[0], small.activities[3], Activity("a", "A label", "critical")],
        ActivityEdge: [robot.edges[0], small.edges[-1], ActivityEdge("e", "a", "b", 0, "dummy")],
        ActivityGraph: [robot, small],
        Records: [Records(("id", "n"), (("a", "b"), (1, 2))), Records(["id"], [["a"]])],
        Candidate: [*reports[0].candidates[:2], reports[1].candidates[-1]],
        LocalizationReport: reports,
        AnnotatedMatrix: [annotate_matrix(dependency_matrix(g), r) for g, r in zip((robot, small), reports)],
        IncidenceMatrix: [incidence_matrix(robot), incidence_matrix(small)],
        AdjacencyMatrix: [adjacency_matrix(robot), adjacency_matrix(small)],
        DependencyMatrix: [
            dependency_matrix(robot),
            transitive_closure(dependency_matrix(small)),
            DependencyMatrix(("a", "b"), ((0, 1), (0, 0))),
        ],
        CondensedGraph: [condense_sccs(dependency_matrix(robot)), condense_sccs(dependency_matrix(small))],
        Schedule: [compute_schedule(robot), compute_schedule(small)],
        Classification: [classify_activities(robot), classify_activities(small)],
        GeneratorParams: [params, replace(params, seed=5, edge_density=0.25), GeneratorParams(1, 1, 1.0)],
        FaultScenario: [inject(small, "n0", 0.5, 3), inject(robot, "v4", 1.0, 1)],
        ExperimentReport: [run_experiment(params, 2, 0.9), run_experiment(params, 1, 0.5, "uniform")],
    }
    for records in samples.values():
        records.append(pickle.loads(pickle.dumps(records[0])))
    return samples


SAMPLES = _samples()
CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _reference(cls: type) -> type:
    """The stdlib ``@dataclass(frozen=True)`` of ``cls``'s fields, with
    their defaults and repr and compare flags, under ``cls``'s name."""
    spec = []
    for f in fields(cls):
        options = {} if f.default is dataclasses.MISSING else {"default": f.default}
        spec.append((f.name, f.type, field(repr=f.repr, compare=f.compare, **options)))
    return make_dataclass(cls.__name__, spec, frozen=True)


def _field_values(record) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _outcome(call):
    """``call()``'s repr, or the type of the exception it raises."""
    try:
        return repr(call())
    except Exception as exc:  # any exception: its type is the answer
        return type(exc)


def test_every_record_is_a_value_and_has_samples():
    assert set(SAMPLES) == set(Value.__subclasses__())
    assert len(SAMPLES) == 18
    assert all(len(records) >= 3 for records in SAMPLES.values())


def test_no_record_class_has_methods_of_its_own_making_a_value():
    """``dataclass`` generated none of them: each is ``Value``'s, but the
    constructors of the records that check their input or take none."""
    generated = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
    for cls in SAMPLES:
        assert generated & vars(cls).keys() == ({"__init__"} if cls in OWN_CONSTRUCTOR else set()), cls


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_reprs_compares_hashes_and_freezes_as_a_frozen_dataclass(cls):
    reference = _reference(cls)
    records = SAMPLES[cls]
    twins = [reference(**_field_values(record)) for record in records]
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
        assert record != twin and twin != record  # of different classes
        assert record.__eq__(object()) is NotImplemented
        for name in (fields(cls)[0].name, "other"):
            for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
                with pytest.raises(FrozenInstanceError) as ours:
                    act(record)
                with pytest.raises(FrozenInstanceError) as theirs:
                    act(twin)
                assert str(ours.value) == str(theirs.value)
    for (a, ta), (b, tb) in product(zip(records, twins), repeat=2):
        assert (a == b, a != b) == (ta == tb, ta != tb)
    assert records[0] == records[-1] and records[0] is not records[-1]
    assert hash(records[0]) == hash(records[-1])
    kin = depmat.graph.record(type(cls.__name__, (cls,), {}))  # the same fields, another class
    assert records[0] != kin._made(_field_values(records[0])) != records[0]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_fields_replace_and_asdict_work(cls):
    reference = _reference(cls)
    assert is_dataclass(cls)
    flags = [[(f.name, f.repr, f.compare) for f in fields(c)] for c in (cls, reference)]
    assert flags[0] == flags[1]
    for record in SAMPLES[cls]:
        twin = reference(**_field_values(record))
        assert asdict(record) == asdict(twin)
        assert copy.copy(record) == record == copy.deepcopy(record)
        if cls not in OWN_CONSTRUCTOR:
            name, other = fields(cls)[0].name, getattr(SAMPLES[cls][1], fields(cls)[0].name)
            assert repr(replace(record, **{name: other})) == repr(replace(twin, **{name: other}))


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if cls not in OWN_CONSTRUCTOR], ids=lambda cls: cls.__name__)
def test_record_constructs_as_a_frozen_dataclass(cls):
    """Positional, keyword and default construction, and a TypeError for
    too many, missing, unknown or repeated arguments."""
    reference = _reference(cls)
    names = [f.name for f in fields(cls)]
    required = sum(f.default is dataclasses.MISSING for f in fields(cls))
    for record in SAMPLES[cls]:
        values = _field_values(record)
        args = list(values.values())
        calls = [
            (args, {}),
            ((), values),
            (args[:1], {k: v for k, v in values.items() if k != names[0]}),
            (args[:required], {}),
            ((), dict(list(values.items())[:required])),
            (args[: required - 1], {}),
            ((), dict(list(values.items())[1:])),
            ([*args, args[0]], {}),
            (args, {"other": 1}),
            (args[:1], {names[0]: args[0]}),
            (args, {names[-1]: args[-1]}),
        ]
        for call_args, kwargs in calls:
            ours = _outcome(lambda: cls(*call_args, **kwargs))
            assert ours == _outcome(lambda: reference(*call_args, **kwargs)), (call_args, kwargs)
        assert cls(*args) == record == cls(**values)


def test_activity_graph_takes_no_constructor_arguments():
    graph = SAMPLES[ActivityGraph][0]
    for args, kwargs in [((1,), {}), ((), {"unit": "ms"}), (tuple(_field_values(graph).values()), {})]:
        with pytest.raises(TypeError, match=r"^ActivityGraph\(\) takes no arguments$"):
            ActivityGraph(*args, **kwargs)
