"""The CLI's JSON writer against ``json.dumps(value, indent=2,
sort_keys=True)``, the encoder it replaced, which stays here as the
reference: on the payload of every golden command that emits JSON, at
p = 2 and 32003, and on random payloads of the JSON subset the program
emits (dicts with str keys, lists, str, int, bool and None).  Any other
value raises TypeError."""

import json

import pytest
from hypothesis import example, given, strategies as st

from rainbowcw import cli
from rainbowcw.cli import main
from tests.test_golden import RUNS


def ref_json_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


JSON_RUNS = [
    name for name in RUNS
    if not name.startswith(("betti", "experiment", "sparse-en --export dot"))
]


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("name", JSON_RUNS)
def test_every_golden_payload_is_written_as_the_reference(name, prime, tmp_path, monkeypatch):
    seen = []
    writer = cli._json_text

    def recorded(value):
        seen.append((value, writer(value)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "_json_text", recorded)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in RUNS[name]]
    assert main([*argv, "--prime", str(prime), "-o", str(tmp_path / "out.json")]) == 0
    assert len(seen) == 1
    value, text = seen[0]
    assert text == ref_json_text(value)
    assert (tmp_path / "out.json").read_text() == text


# Strings that the escaping must get right: quotes, backslashes, control
# characters, DEL, non-ASCII (a Latin letter, the line separator U+2028 and
# a character past the basic plane, written as a surrogate pair) and lone
# surrogates of both halves.
_AWKWARD = ['"', "\\", "\x00", "\b", "\t", "\n", "\x1f", "\x7f", "\xe9", "\u2028",
            "\U0001f600", "\ud800", "\udfff", "/"]
_strings = st.text(
    st.one_of(st.characters(), st.characters(categories=["Cs"]), st.sampled_from(_AWKWARD)),
    max_size=12,
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    st.sampled_from([0, -1, 1, 2**63, -(2**63) - 1]),
    _strings,
)
payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(_strings, inner, max_size=5)),
    max_leaves=40,
)


@given(payloads)
@example({})
@example([])
@example({"b": [], "a": {}, "B": [{}], "": None, "\xe9": True, "\ud800": False})
@example([True, 1, False, 0, None, "", [[]], -(10**50)])
def test_random_payloads_are_written_as_the_reference(value):
    assert cli._json_text(value) == ref_json_text(value)


@pytest.mark.parametrize("value", [
    1.5,
    float("nan"),
    (1, 2),
    {1, 2},
    frozenset(),
    {1: "int key"},
    {"a": 1, 2: "b"},
    {("a",): 1},
    [1, [2, [0.0]]],
    {"nested": {"deeper": (3,)}},
    b"bytes",
])
def test_values_outside_the_subset_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
