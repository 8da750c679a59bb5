"""Boundary decoders fail loudly: ``CellSpec.from_json``,
``ExploreCaseResult.from_json`` and ``ExploreProbe.from_json``.

Each accepts exactly the encoding its ``to_json`` writes.  Hypothesis
draws a valid encoding, checks that it decodes, then drops, adds,
retypes or truncates the name of one key (for a probe, also of one
fire) and requires :class:`ConfigError`: any other exception type, or
a silent decode, fails the test.
"""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import scaled

from repro.common.errors import ConfigError
from repro.exec.spec import KINDS, CellSpec
from repro.explore.runner import ExploreCaseResult, ExploreProbe

small_int = st.integers(-(1 << 40), 1 << 40)
text = st.text(max_size=12)
json_dict = st.dictionaries(text, st.one_of(st.none(), small_int, text),
                            max_size=3)


@st.composite
def spec_encodings(draw):
    kind = draw(st.sampled_from(KINDS))
    return CellSpec(
        kind=kind, variant=draw(text), workload=draw(text),
        accesses=draw(st.integers(1, 1 << 30)),
        footprint_blocks=draw(st.integers(1, 1 << 30)),
        seed=draw(st.integers(0, 1 << 40)),
        config=draw(st.none() | json_dict),
        fault=None if kind == "sim" else draw(json_dict),
    ).to_json()


divergences = st.lists(st.fixed_dictionaries(
    {k: text for k in ("kind", "where", "expected", "got")}), max_size=2)

case_encodings = st.builds(
    ExploreCaseResult, outcome=text, crash_point=text,
    crash_index=small_int, recovery_crashed=st.booleans(),
    second_crash_point=text, second_crash_index=small_int,
    recovery_fires=small_int, resumed_fires=small_int,
    divergences=divergences, detail=text,
).map(ExploreCaseResult.to_json)

fires = st.lists(st.tuples(text, small_int, text), max_size=4)
probe_encodings = fires.map(
    lambda f: ExploreProbe(fires=tuple(f)).to_json())

#: values of every JSON type; a retype picks one of another type
ANY_VALUE = (None, True, 7, 2.5, "x", [1], {"k": 1})


def retype(draw, value, also_ok=()):
    return draw(st.sampled_from([
        v for v in ANY_VALUE
        if type(v) is not type(value) and type(v) not in also_ok]))


@st.composite
def mutated(draw, encodings, optional_dicts=()):
    """A valid encoding with one key dropped, added, retyped or
    truncated; ``optional_dicts`` name keys that hold a dict or None
    (retyping between those two is still valid)."""
    data = dict(draw(encodings))
    key = draw(st.sampled_from(sorted(data)))
    how = draw(st.sampled_from(["drop", "add", "retype", "truncate"]))
    if how == "drop":
        del data[key]
    elif how == "add":
        data[draw(text.filter(lambda k: k not in data))] = draw(
            st.sampled_from(ANY_VALUE))
    elif how == "retype":
        also_ok = (dict, type(None)) if key in optional_dicts else ()
        data[key] = retype(draw, data[key], also_ok)
    else:
        data[key[:-1]] = data.pop(key)
    return data


def json_round_trip(data):
    return json.loads(json.dumps(data))


@settings(max_examples=scaled(60))
@given(data=spec_encodings())
def test_spec_encoding_decodes(data):
    assert CellSpec.from_json(json_round_trip(data)).to_json() == data


@settings(max_examples=scaled(150))
@given(data=mutated(spec_encodings(), optional_dicts=("config",)))
def test_mutated_spec_raises_config_error(data):
    with pytest.raises(ConfigError):
        CellSpec.from_json(data)


def test_spec_with_retired_check_key_raises_config_error():
    data = CellSpec("sim", "wb-gc", "mcf_r", 10, 10, 1).to_json()
    with pytest.raises(ConfigError, match="unknown keys \\['check'\\]"):
        CellSpec.from_json({**data, "check": True})


@settings(max_examples=scaled(60))
@given(data=case_encodings)
def test_case_encoding_decodes(data):
    decoded = ExploreCaseResult.from_json(json_round_trip(data))
    assert decoded.to_json() == data


@settings(max_examples=scaled(150))
@given(data=mutated(case_encodings))
def test_mutated_case_raises_config_error(data):
    with pytest.raises(ConfigError):
        ExploreCaseResult.from_json(data)


@settings(max_examples=scaled(60))
@given(data=case_encodings.filter(lambda d: d["divergences"]),
       choice=st.data())
def test_mutated_divergence_raises_config_error(data, choice):
    data["divergences"][0] = choice.draw(mutated(st.just(
        data["divergences"][0])))
    with pytest.raises(ConfigError):
        ExploreCaseResult.from_json(data)


@settings(max_examples=scaled(60))
@given(data=probe_encodings)
def test_probe_encoding_decodes(data):
    assert ExploreProbe.from_json(json_round_trip(data)).to_json() == data


@settings(max_examples=scaled(60))
@given(data=mutated(probe_encodings))
def test_mutated_probe_raises_config_error(data):
    with pytest.raises(ConfigError):
        ExploreProbe.from_json(data)


@settings(max_examples=scaled(100))
@given(data=probe_encodings.filter(lambda d: d["fires"]),
       choice=st.data())
def test_mutated_fire_raises_config_error(data, choice):
    fire = data["fires"][0]
    slot = choice.draw(st.integers(0, len(fire) - 1))
    how = choice.draw(st.sampled_from(["drop", "add", "retype"]))
    if how == "drop":
        del fire[slot]
    elif how == "add":
        fire.insert(slot, choice.draw(st.sampled_from(ANY_VALUE)))
    else:
        fire[slot] = retype(choice.draw, fire[slot])
    with pytest.raises(ConfigError):
        ExploreProbe.from_json(data)
