"""``idl.Sample`` is an immutable named record of ``(type_name, values)``:
it compares, hashes and unpacks like that plain tuple, pickles and
copies as itself, and is what ``deserialize`` and ``make_sample``
return."""

import copy
import pickle

import pytest

from minidds import idl

READING = idl.parse_idl("struct Reading { long key; string label; double v; };")[0]


def _sample():
    return idl.make_sample(READING, {"key": 7, "label": "aé", "v": 1.5})


def test_deserialize_and_make_sample_return_a_sample():
    sample = _sample()
    decoded = idl.deserialize(READING, idl.serialize(READING, sample))
    assert type(sample) is idl.Sample
    assert type(decoded) is idl.Sample
    assert decoded == sample
    assert decoded.type_name == "Reading" and decoded.values == (7, "aé", 1.5)


def test_equality_and_hash():
    sample = _sample()
    assert sample == idl.Sample("Reading", (7, "aé", 1.5))
    assert sample == ("Reading", (7, "aé", 1.5))  # equals the plain tuple
    assert sample != idl.Sample("Reading", (8, "aé", 1.5))
    assert sample != idl.Sample("Other", (7, "aé", 1.5))
    assert hash(sample) == hash(idl.Sample("Reading", (7, "aé", 1.5)))
    assert hash(sample) == hash(("Reading", (7, "aé", 1.5)))
    assert len({sample, idl.Sample("Reading", (7, "aé", 1.5))}) == 1


def test_unpacks_and_reprs_like_a_named_tuple():
    type_name, values = _sample()
    assert (type_name, values) == ("Reading", (7, "aé", 1.5))
    assert repr(_sample()) == "Sample(type_name='Reading', values=(7, 'aé', 1.5))"
    assert idl.Sample(type_name="R", values=(1,)) == idl.Sample("R", (1,))


def test_is_immutable():
    sample = _sample()
    with pytest.raises(AttributeError):
        sample.values = (1, "b", 2.0)
    with pytest.raises(TypeError):
        sample[0] = "Other"
    assert sample._replace(values=(8, "b", 2.0)) == idl.Sample("Reading", (8, "b", 2.0))
    assert sample.values == (7, "aé", 1.5)


@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickles_and_copies_as_a_sample(clone):
    sample = _sample()
    cloned = clone(sample)
    assert type(cloned) is idl.Sample
    assert cloned == sample
