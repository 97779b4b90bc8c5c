"""`jsonout.dumps` against its reference, `json.dumps(obj, indent=2)`."""

import enum
import json
import math
import random

import pytest

from symrank import cli, jsonout

_FLOATS = [0.0, -0.0, 5e-324, 1e300, -1e300, 1.5, math.nan, math.inf, -math.inf, 0.1 + 0.2]
_INTS = [0, -1, 2**63, 2**64 + 1, -(2**70), 3**200]
_CHARS = "az09 \"\\/\x00\x01\x1f\x7f\t\n\réπ \ud800\U0001f600中"


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind == 1:
        return rng.choice(_INTS + [rng.randrange(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, None])
    return _text(rng)


def _key(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(_FLOATS)
    if kind == 1:
        return rng.choice(_INTS)
    if kind == 2:
        return rng.choice([True, False, None])
    return _text(rng)


def _document(rng: random.Random, depth: int):
    """A value whose containers nest at most `depth` levels; an empty dict,
    list or tuple may stand at any level."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([{}, [], ()]) if rng.random() < 0.15 else _scalar(rng)
    return _container(rng, depth)


def _container(rng: random.Random, depth: int):
    size = rng.randrange(6)
    kind = rng.randrange(3)
    if kind == 0:
        return {_key(rng): _document(rng, depth - 1) for _ in range(size)}
    members = [_document(rng, depth - 1) for _ in range(size)]
    return members if kind == 1 else tuple(members)


@pytest.mark.parametrize("block", range(4))
def test_seeded_random_documents_match_json_dumps(block):
    rng = random.Random(1400 + block)
    for _ in range(1000):
        doc = _container(rng, rng.randrange(1, 6))
        assert jsonout.dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, ()]},
        [[[[{}]]]],
        {1.5: 1, True: 2, None: 3, 2**65: 4, -0.0: 5, math.nan: 6, math.inf: 7},
        {"é\x00": [" ", "\ud800", "\U0001f600"]},
        [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 2**64, -(2**64)],
        "top-level é",
        42,
    ],
)
def test_edge_documents_match_json_dumps(doc):
    assert jsonout.dumps(doc) == json.dumps(doc, indent=2)


class _Str(str):
    pass


class _Float(float):
    pass


class _Level(enum.IntEnum):
    ELEVEN = 11


def test_scalar_subclasses_match_json_dumps():
    # scalars that are not exact str, int, float, bool or None still take
    # the encoder, as members and as keys of a walked container
    doc = {"nested": [[]], "s": _Str("é"), "f": _Float(2.5), "e": _Level.ELEVEN,
           _Str("k"): [_Str("x"), {}], _Level.ELEVEN: _Float(math.nan)}
    assert jsonout.dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--p", "5", "--n", "100", "--method", "all"],
        ["compare", "--p", "5", "--n", "100"],
        ["mult", "--q", "11", "--n", "3"],
        ["mult", "--q", "11", "--n", "3", "--emit-tensor", "{tensor}"],
    ],
    ids=["bound-all", "compare", "mult", "mult-tensor"],
)
def test_reply_documents_match_json_dumps(argv, monkeypatch, tmp_path, capsys):
    """Every document a reply (and an emitted tensor) hands to `dumps`."""
    docs = []
    dumps = jsonout.dumps
    monkeypatch.setattr(jsonout, "dumps", lambda doc: docs.append(doc) or dumps(doc))
    assert cli.main([a.format(tensor=tmp_path / "t.json") for a in argv]) == 0
    assert len(docs) == (2 if "--emit-tensor" in argv else 1)
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=2)
    assert capsys.readouterr().out == json.dumps(docs[-1], indent=2) + "\n"


@pytest.mark.parametrize("doc", [{(1, 2): 3}, {"a": {frozenset(): 1}}, [object()], {"a": [1, {2}]}])
def test_unserializable_documents_raise_type_error(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        jsonout.dumps(doc)
