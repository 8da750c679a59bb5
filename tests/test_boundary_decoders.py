"""Boundary decoders fail loudly: ``CellSpec.from_json``,
``ExploreCaseResult.from_json``, ``ExploreProbe.from_json``,
``decode_plan`` (an explore cell's plan), ``config_from_dict``,
``load_trace`` and the sweep service's reply
frames (``check_reply``: a submit stream's and the one-shot ``stats``,
``pong`` and ``bye``).

Each accepts exactly the encoding its ``to_json`` (``config_to_dict``,
``save_trace``) writes.  Hypothesis draws a valid encoding, checks that
it decodes, then drops, adds, retypes or truncates the name of one key
(for a probe, also of one fire; for a config, at any nesting depth; for
a plan, the mode is the one key it cannot drop; for a trace file, of
its metadata, or spoils one column) and requires
:class:`ConfigError` (:class:`ProtocolError` for a service frame): any
other exception type, or a silent decode, fails the test.
"""
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import scaled

from repro.common.config import CounterMode, default_config, small_config
from repro.common.errors import ConfigError
from repro.exec.configio import config_from_dict, config_to_dict
from repro.exec.spec import KINDS, CellSpec
from repro.explore.runner import (
    PLAN_KEYS,
    TAMPER_KINDS,
    ExploreCaseResult,
    ExploreProbe,
    decode_plan,
)
from repro.serve.protocol import (
    REPLY_OPS,
    ProtocolError,
    cell_error_frame,
    check_reply,
    decode_frame,
    done_frame,
    encode_frame,
    result_frame,
)
from repro.workloads import get_profile
from repro.workloads.tracefile import load_trace, save_trace

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
probe_encodings = st.builds(
    lambda f, n: ExploreProbe(fires=tuple(f), accesses=n).to_json(),
    fires, small_int)

#: values of every JSON type; a retype picks one of another type
ANY_VALUE = (None, True, 7, 2.5, "x", [1], {"k": 1})


def retype(draw, value, also_ok=()):
    return draw(st.sampled_from([
        v for v in ANY_VALUE
        if type(v) is not type(value) and type(v) not in also_ok]))


@st.composite
def mutated(draw, encodings, also_ok=None):
    """A valid encoding with one key dropped, added, retyped or
    truncated; ``also_ok`` maps a key to the types it may validly hold
    (retyping among those is no mutation)."""
    data = dict(draw(encodings))
    key = draw(st.sampled_from(sorted(data)))
    how = draw(st.sampled_from(["drop", "add", "retype", "truncate"]))
    if how == "drop":
        del data[key]
    elif how == "add":
        data[draw(text.filter(lambda k: k not in data))] = draw(
            st.sampled_from(ANY_VALUE))
    elif how == "retype":
        data[key] = retype(draw, data[key], (also_ok or {}).get(key, ()))
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
@given(data=mutated(spec_encodings(),
                    also_ok={"config": (dict, type(None))}))
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


#: a valid value of each optional plan key
PLAN_VALUES = {"mutant": text, "attack": st.sampled_from(TAMPER_KINDS),
               "point": text, "crash_after": small_int,
               "recovery_crash_after": small_int,
               "second_crash_after": small_int, "residual_words": small_int,
               "at_shutdown": st.booleans()}


@st.composite
def plan_encodings(draw):
    mode = draw(st.sampled_from(sorted(PLAN_KEYS)))
    keys = draw(st.lists(st.sampled_from(sorted(PLAN_KEYS[mode])),
                         unique=True))
    return {"mode": mode, **{k: draw(PLAN_VALUES[k]) for k in keys}}


@st.composite
def mutated_plans(draw):
    """A valid plan with its mode dropped, a key its mode does not take
    added, or one key retyped (a mode or attack also to an unknown
    name)."""
    data = draw(plan_encodings())
    how = draw(st.sampled_from(["drop", "add", "retype", "rename"]))
    key = draw(st.sampled_from(sorted(data)))
    if how == "drop":
        del data["mode"]
    elif how == "add":
        allowed = PLAN_KEYS[data["mode"]].keys() | {"mode"}
        data[draw(text.filter(lambda k: k not in allowed))] = draw(
            st.sampled_from(ANY_VALUE))
    elif how == "retype":
        data[key] = retype(draw, data[key])
    elif key in ("mode", "attack"):
        data[key] = draw(text.filter(
            lambda v: v not in PLAN_KEYS and v not in TAMPER_KINDS))
    else:
        data[key[:-1]] = data.pop(key)
    return data


@settings(max_examples=scaled(60))
@given(data=plan_encodings())
def test_plan_encoding_decodes(data):
    assert decode_plan(json_round_trip(data)) == data


@settings(max_examples=scaled(150))
@given(data=mutated_plans())
def test_mutated_plan_raises_config_error(data):
    with pytest.raises(ConfigError):
        decode_plan(data)


config_encodings = st.sampled_from([
    small_config(), default_config(CounterMode.SPLIT)]).map(config_to_dict)


def dict_paths(data, path=()):
    """The key path of every dict in a nested config encoding."""
    yield path
    for key, value in data.items():
        if isinstance(value, dict):
            yield from dict_paths(value, path + (key,))


@st.composite
def mutated_configs(draw):
    """A config encoding with one key of one nested dict dropped, added
    or retyped (an int is no retype of a float field: it takes both)."""
    data = json_round_trip(draw(config_encodings))
    node = data
    for key in draw(st.sampled_from(list(dict_paths(data)))):
        node = node[key]
    key = draw(st.sampled_from(sorted(node)))
    how = draw(st.sampled_from(["drop", "add", "retype"]))
    if how == "drop":
        del node[key]
    elif how == "add":
        node[draw(text.filter(lambda k: k not in node))] = draw(
            st.sampled_from(ANY_VALUE))
    else:
        also_ok = (int,) if type(node[key]) is float else ()
        node[key] = retype(draw, node[key], also_ok)
    return data


@settings(max_examples=scaled(150))
@given(data=mutated_configs())
def test_mutated_config_raises_config_error(data):
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_config_float_field_takes_an_int():
    data = config_to_dict(small_config())
    assert config_from_dict({**data, "clock_ghz": 2}) == small_config()


def saved_trace_arrays():
    """The arrays ``save_trace`` writes for a short trace."""
    buf = io.BytesIO()
    trace = get_profile("pers_hash").generate(seed=1, n=8, footprint=64)
    save_trace(buf, trace, name="pers_hash", seed=1)
    buf.seek(0)
    with np.load(buf) as archive:
        return {name: archive[name] for name in archive.files}


def meta_of(arrays):
    return json.loads(bytes(arrays["meta"]).decode())


#: metadata keys with more than one valid type
TRACE_META_ALSO_OK = {"seed": (int, type(None)),
                      "write_fraction": (float, int)}


@st.composite
def mutated_trace_arrays(draw):
    """A saved trace with its metadata mutated like the encodings above
    (or replaced by a non-object), or one column made float, 2-D or one
    short, or its addresses or gaps negative, or its gaps past int32."""
    arrays = saved_trace_arrays()
    meta = meta_of(arrays)
    how = draw(st.sampled_from(
        ["meta", "not-object", "float", "2-d", "short", "negative",
         "wide"]))
    if how == "meta":
        meta = draw(mutated(st.just(meta), also_ok=TRACE_META_ALSO_OK))
    elif how == "not-object":
        meta = draw(st.sampled_from([None, 7, "x", [meta]]))
    else:
        name = draw(st.sampled_from(
            {"negative": ["address", "gap_cycles"],
             "wide": ["gap_cycles"]}.get(
                 how, ["is_write", "address", "gap_cycles"])))
        column = arrays[name]
        arrays[name] = {"float": lambda: column + 0.5,
                        "2-d": lambda: column[None],
                        "short": lambda: column[:-1],
                        "negative": lambda: -1 - column,
                        "wide": lambda: column.astype(np.int64) + (1 << 31),
                        }[how]()
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    return arrays


def test_saved_trace_arrays_load(tmp_path):
    path = tmp_path / "t.npz"
    arrays = saved_trace_arrays()
    np.savez_compressed(path, **arrays)
    trace, meta = load_trace(path)
    assert meta == meta_of(arrays) and len(trace) == meta["accesses"]


@settings(max_examples=scaled(60))
@given(arrays=mutated_trace_arrays())
def test_mutated_trace_file_raises_config_error(arrays, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "t.npz"
    np.savez_compressed(path, **arrays)
    with pytest.raises(ConfigError):
        load_trace(path)


# ------------------------------------------------------- service frames
counts = st.integers(0, 1 << 20)
reply_frames = st.one_of(
    st.builds(result_frame, counts, json_dict, st.booleans(),
              st.booleans(), st.floats(0, 1e6)),
    st.builds(cell_error_frame, counts, text),
    st.builds(done_frame, counts, counts, counts, counts, counts),
    st.fixed_dictionaries({
        "op": st.just("stats"), "draining": st.booleans(),
        "queue_depth": counts, "inflight": counts,
        "workers": st.lists(json_dict, max_size=2), "metrics": json_dict}),
    st.sampled_from([{"op": "pong"}, {"op": "bye"}]),
)
#: every reply frame ``check_reply`` decodes
DECODED_OPS = tuple(op for op in REPLY_OPS if op != "error")


def wire(frame):
    """``frame`` as the client receives it."""
    return decode_frame(encode_frame(frame))


@settings(max_examples=scaled(60))
@given(reply_frames)
def test_reply_frame_decodes(frame):
    assert check_reply(wire(frame), (frame["op"],)) == frame
    with pytest.raises(ProtocolError):   # not the frame asked for
        check_reply(wire(frame), tuple(
            op for op in DECODED_OPS if op != frame["op"]))


@settings(max_examples=scaled(100))
@given(mutated(reply_frames, also_ok={"elapsed_s": (int,)}))
def test_mutated_reply_frame_raises_protocol_error(frame):
    with pytest.raises(ProtocolError):
        check_reply(wire(frame), DECODED_OPS)
