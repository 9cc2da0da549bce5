"""The JSON writer against ``json.dumps(x, sort_keys=True, indent=2)``."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hessgkm.jsontext import Encoded, document, dumps
from hessgkm.verify import oracle_json

_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", '\\"', "\x00", "\x1f", "\n\t", "\x7f", "é", " ", "\U0001f600", "\ud800"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324])
    | _STRINGS
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_writer_matches_the_encoder(x):
    assert dumps(x) == json.dumps(x, sort_keys=True, indent=2)
    assert document(x) == oracle_json(x)
    # At depth 1, the text of x as the item of a one-item array.
    assert "[\n  " + dumps(x, depth=1) + "\n]" == json.dumps([x], sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "x", [{}, [], (), "", {"a": {}}, {"a": []}, [[], {}, [[]]], {"b": 1, "a": [True, None]}]
)
def test_writer_matches_the_encoder_on_empty_containers(x):
    assert dumps(x) == json.dumps(x, sort_keys=True, indent=2)


def test_encoded_runs_are_items_in_the_layout():
    items = [{"k": 1}, {"k": [2, 3]}, {"k": "x"}]
    texts = [dumps(v, depth=2) for v in items]
    runs = iter([[], texts[:2], [], texts[2:]])
    assert document({"a": Encoded(runs), "b": 0}) == oracle_json({"a": items, "b": 0})
    assert document({"a": Encoded([[], []])}) == oracle_json({"a": []})


@pytest.mark.parametrize("x", [{1: 2}, {"a": object()}, [b"bytes"], {"a": {1, 2}}])
def test_writer_rejects_what_is_not_a_document(x):
    with pytest.raises(TypeError):
        dumps(x)
