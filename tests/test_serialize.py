"""The strict netlist loader: wrong JSON types are errors, never coerced."""

import json
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamnet import (
    BeamSplitter,
    DomainError,
    DovePrism,
    H,
    Hologram,
    Mirror,
    ModeLabel,
    Netlist,
    OamNetError,
    PhaseShifter,
    ReflectiveHologram,
    V,
    dove_stage_elements,
    oambs_netlist,
)
from oamnet.serialize import (
    dumps_canonical,
    element_from_dict,
    element_to_dict,
    netlist_dumps,
    netlist_from_dict,
    netlist_loads,
)
from oracles import reference_dumps_canonical
from test_transit import netlists

ELEMENT_TYPES = (
    "beamsplitter",
    "phase",
    "dove",
    "hologram",
    "reflective_hologram",
    "mirror",
)


def document(**overrides):
    data = {
        "dimension": 3,
        "parity_flip": False,
        "elements": [
            {"type": "beamsplitter", "ports": [0, 1], "theta": 0.5, "phi": 0},
            {"type": "dove", "port": 2, "alpha": 0},
        ],
    }
    data.update(overrides)
    return data


def test_valid_document_loads():
    netlist = netlist_from_dict(document())
    assert netlist.dimension == 3
    assert netlist.parity_flip is False
    assert len(netlist.elements) == 2


def test_empty_element_list_is_an_identity_netlist():
    assert netlist_from_dict(document(elements=[])).elements == ()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_parity_flip_must_be_a_json_boolean(value):
    # "false" used to load as True
    with pytest.raises(DomainError, match="parity_flip"):
        netlist_from_dict(document(parity_flip=value))


@pytest.mark.parametrize("value", ["x", "3", 2.7, 3.0, True, None])
def test_dimension_must_be_an_integer(value):
    # "x" used to leak ValueError and 2.7 to load as 2
    with pytest.raises(DomainError, match="dimension"):
        netlist_from_dict(document(dimension=value))


@pytest.mark.parametrize("value", [{"a": 1}, {}, "ab", 3, None])
def test_elements_must_be_a_list(value):
    # {"a": 1} used to leak AttributeError and {} to load as no elements
    with pytest.raises(DomainError, match="elements"):
        netlist_from_dict(document(elements=value))


@pytest.mark.parametrize("record", [1, "mirror", [0], None])
def test_element_record_must_be_an_object(record):
    with pytest.raises(DomainError, match="element record"):
        netlist_from_dict(document(elements=[record]))


@pytest.mark.parametrize(
    "text",
    [
        '{"type": "phase", "port": 0, "phi": "nan"}',
        '{"type": "phase", "port": 0, "phi": NaN}',
        '{"type": "phase", "port": 0, "phi": 1e400}',
        '{"type": "phase", "port": 0, "phi": -Infinity}',
        '{"type": "dove", "port": 0, "alpha": true}',
        '{"type": "beamsplitter", "ports": [0, 1], "theta": 1e400, "phi": 0}',
    ],
)
def test_float_fields_must_be_finite_numbers(text):
    with pytest.raises(DomainError):
        element_from_dict(json.loads(text))


def test_huge_integer_in_a_float_field_is_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        element_from_dict({"type": "phase", "port": 0, "phi": 10**400})


@pytest.mark.parametrize(
    "ports", [[0.5, 1], [0, 1.0], [True, 1], [0], [0, 1, 2], "01", None]
)
def test_ports_must_be_two_integers(ports):
    # [0.5, 1] used to load as ports (0, 1)
    record = {"type": "beamsplitter", "ports": ports, "theta": 0.1, "phi": 0.0}
    with pytest.raises(DomainError, match="ports"):
        element_from_dict(record)


@pytest.mark.parametrize(
    "record",
    [
        {"type": "hologram", "port": 0, "k": 1.5},
        {"type": "reflective_hologram", "port": 0, "k": "1"},
        {"type": "mirror", "port": 1.0},
        {"type": "phase", "port": False, "phi": 0.0},
    ],
)
def test_integer_fields_reject_other_types(record):
    with pytest.raises(DomainError, match="must be an integer"):
        element_from_dict(record)


def test_missing_field_is_named():
    with pytest.raises(DomainError, match="missing field 'theta'"):
        element_from_dict({"type": "beamsplitter", "ports": [0, 1], "phi": 0.0})


def test_float_fields_accept_integers():
    element = element_from_dict({"type": "dove", "port": 0, "alpha": 0})
    assert element.alpha == 0.0 and isinstance(element.alpha, float)


def test_export_reloads_byte_exact():
    text = netlist_dumps(oambs_netlist(4), replay_error=1e-16)
    assert netlist_dumps(netlist_loads(text), replay_error=1e-16) == text


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)

FIELD_VALUES = st.one_of(
    JSON_VALUES,
    st.integers(-2, 4),
    st.lists(st.integers(-1, 4), min_size=2, max_size=2),
)


@st.composite
def near_valid_documents(draw):
    """Documents shaped like netlists, with any field possibly of a wrong type."""
    records = []
    for _ in range(draw(st.integers(0, 3))):
        record = {"type": draw(st.sampled_from(ELEMENT_TYPES) | JSON_VALUES)}
        for key in draw(
            st.lists(st.sampled_from(("ports", "port", "theta", "phi", "alpha", "k")))
        ):
            record[key] = draw(FIELD_VALUES)
        records.append(record)
    data = {
        "dimension": draw(st.integers(-1, 5) | JSON_VALUES),
        "parity_flip": draw(st.booleans() | JSON_VALUES),
        "elements": draw(st.just(records) | JSON_VALUES),
    }
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        del data[key]
    return data


@settings(max_examples=150, deadline=None)
@given(st.one_of(near_valid_documents(), JSON_VALUES))
def test_loader_raises_only_domain_errors(data):
    text = json.dumps(data)
    try:
        netlist = netlist_loads(text)
    except OamNetError as exc:
        assert isinstance(exc, DomainError)
        return
    assert netlist_loads(netlist_dumps(netlist)) == netlist


def test_negative_zero_survives_the_round_trip():
    # port 0's reverse prism has alpha -0.0, once written "-0": an integer
    text = netlist_dumps(Netlist(3, dove_stage_elements(3, "reverse")))
    assert '"alpha": -0.0' in text
    loaded = netlist_loads(text)
    assert math.copysign(1.0, loaded.elements[0].alpha) == -1.0
    assert netlist_dumps(loaded) == text
    assert dumps_canonical([-0.0, 0.0, -1.0]) == "[-0.0, 0, -1]"


@pytest.mark.parametrize("value", [5, None, 2.5, ["{}"], {"dimension": 1}])
def test_loading_what_is_not_a_document_is_a_domain_error(value):
    # 5 and None used to leak TypeError from json.loads
    with pytest.raises(
        DomainError, match=f"^not a JSON document: {type(value).__name__}$"
    ):
        netlist_loads(value)


def test_documents_load_from_bytes_and_undecodable_bytes_are_invalid():
    text = netlist_dumps(oambs_netlist(3))
    assert netlist_loads(text.encode()) == netlist_loads(bytearray(text.encode()))
    # used to leak UnicodeDecodeError
    with pytest.raises(DomainError, match="not valid JSON"):
        netlist_loads(b"\xff")


def test_a_document_nested_past_the_parser_is_invalid():
    # used to leak RecursionError
    with pytest.raises(DomainError, match="not valid JSON: maximum recursion"):
        netlist_loads("[" * 100_000 + "]" * 100_000)


@settings(max_examples=150, deadline=None)
@given(netlists())
def test_netlists_of_every_element_type_round_trip(netlist):
    text = netlist_dumps(netlist)
    loaded = netlist_loads(text)
    assert loaded.elements == netlist.elements
    assert netlist_dumps(loaded) == text


class Amplitudes(Mapping):
    """A read-only mapping from label tuples to amplitudes, as an
    ensemble's amplitudes are."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class Text(str):
    pass


class Count(int):
    pass


class Real(float):
    pass


class Record(dict):
    pass


class Row(list):
    pass


LABEL_TUPLES = st.lists(
    st.builds(
        ModeLabel, st.integers(-3, 3), st.integers(-3, 3), st.sampled_from((H, V))
    ),
    min_size=1,
    max_size=2,
).map(tuple)

WRITER_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # -0.0, subnormals, NaN and infinities included
    st.floats(),
    st.sampled_from((-0.0, 5e-324, -2.2250738585072014e-308)),
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.complex_numbers(max_magnitude=2.0),
    st.text(max_size=3).map(Text),
    st.integers(-5, 5).map(Count),
    st.floats().map(Real),
)

WRITER_KEYS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=3),
    st.integers(),
    st.floats(),
    st.none(),
    st.booleans(),
    LABEL_TUPLES,
)

WRITER_TREES = st.recursive(
    WRITER_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(Row),
        st.dictionaries(WRITER_KEYS, children, max_size=3),
        st.dictionaries(WRITER_KEYS, children, max_size=3).map(Record),
        st.dictionaries(LABEL_TUPLES, children, max_size=3).map(Amplitudes),
    ),
    max_leaves=12,
)


def writer_outcome(write, tree):
    try:
        return write(tree)
    except DomainError as exc:
        return f"DomainError: {exc}"


@settings(max_examples=400, deadline=None)
@given(WRITER_TREES)
def test_writer_matches_the_isinstance_chain(tree):
    assert writer_outcome(dumps_canonical, tree) == writer_outcome(
        reference_dumps_canonical, tree
    )


def test_writer_refuses_an_element_of_another_type():
    class Marker:
        """Not an optical element."""

    with pytest.raises(DomainError, match="^unknown element Marker$"):
        element_to_dict(Marker())


@pytest.mark.parametrize("data", [[], "netlist", None])
def test_netlist_record_must_be_an_object(data):
    with pytest.raises(
        DomainError, match="^netlist record must be a JSON object, got "
    ):
        netlist_from_dict(data)


@pytest.mark.parametrize(
    "element, record",
    [
        (
            BeamSplitter(2, 0, 1, -0.25),
            {"type": "beamsplitter", "ports": [2, 0], "theta": 1.0, "phi": -0.25},
        ),
        (PhaseShifter(1, 3), {"type": "phase", "port": 1, "phi": 3.0}),
        (DovePrism(0, -0.0), {"type": "dove", "port": 0, "alpha": -0.0}),
        (Hologram(3, -4), {"type": "hologram", "port": 3, "k": -4}),
        (ReflectiveHologram(1, 7), {"type": "reflective_hologram", "port": 1, "k": 7}),
        (Mirror(2), {"type": "mirror", "port": 2}),
    ],
)
def test_each_element_type_writes_its_record(element, record):
    # the records written by one if-branch per element type, key order and
    # value types included (integer angles are written as floats)
    written = element_to_dict(element)
    assert list(written.items()) == list(record.items())
    assert [type(value) for value in written.values()] == [
        type(value) for value in record.values()
    ]
    assert math.copysign(1.0, written.get("alpha", 1.0)) == math.copysign(
        1.0, record.get("alpha", 1.0)
    )
    assert element_from_dict(written) == element
