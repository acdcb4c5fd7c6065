"""Parse/format round trips for every text form the program reads back:
monomials (``format_monomial`` / ``parse_monomial``), term orders and pure
complexes (``to_json`` / ``from_json`` through a JSON dump), and the ideal
files of the ``betti`` command, whose CSV rows name multidegrees in the
monomial format."""

import csv
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcw import MonomialIdeal, PureComplex
from rainbowcw.cli import main
from rainbowcw.complexes import koszul_betti
from rainbowcw.monomials import Monomial, format_monomial, parse_monomial
from rainbowcw.termorders import TermOrder

# Grid indices run past monomials.STRIDE = 16, so both the mask and the
# exponent-tuple representations occur.
_grid_var = st.tuples(st.integers(1, 20), st.integers(1, 20))
_plain_var = st.integers(1, 40)


def _monomials(var, max_exponent=5, max_size=6):
    return st.dictionaries(var, st.integers(1, max_exponent), max_size=max_size).map(Monomial)


_monomial = st.one_of(_monomials(_grid_var), _monomials(_plain_var))


@settings(max_examples=300, deadline=None)
@given(_monomial)
def test_monomial_text_round_trips(mono):
    text = format_monomial(mono)
    back = parse_monomial(text)
    assert back == mono and back.exps == mono.exps
    assert format_monomial(back) == text


@settings(max_examples=200, deadline=None)
@given(_monomial, st.randoms(use_true_random=False), st.sampled_from(["*", " * ", "  *"]))
def test_parse_ignores_factor_order_and_spacing(mono, rng, sep):
    factors = format_monomial(mono).split(" * ")
    rng.shuffle(factors)
    assert parse_monomial(" " + sep.join(factors) + " ") == mono


@st.composite
def _term_orders(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 8))
    row = st.lists(st.integers(-(10**12), 10**12), min_size=m, max_size=m)
    weights = draw(st.lists(row, min_size=n, max_size=n))
    return TermOrder(n, m, tuple(map(tuple, weights)))


@settings(max_examples=200, deadline=None)
@given(_term_orders(), st.booleans())
def test_term_order_json_round_trips(order, drop_size):
    data = json.loads(json.dumps(order.to_json()))
    if drop_size:  # n and m are optional and default to the weights' shape
        del data["n"], data["m"]
    back = TermOrder.from_json(data)
    assert back == order
    assert back.to_json() == order.to_json()


@st.composite
def _pure_complexes(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 8))
    facet = st.sets(st.integers(1, m), min_size=n, max_size=n).map(sorted)
    return PureComplex(n, m, draw(st.lists(facet, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(_pure_complexes(), st.randoms(use_true_random=False))
def test_pure_complex_json_round_trips(delta, rng):
    data = json.loads(json.dumps(delta.to_json()))
    assert PureComplex.from_json(data) == delta
    # Facet order and vertex order within a facet do not matter.
    rng.shuffle(data["facets"])
    for f in data["facets"]:
        rng.shuffle(f)
    back = PureComplex.from_json(data)
    assert back == delta and back.to_json() == delta.to_json()


_small_ideal = st.one_of(
    st.lists(_monomials(st.integers(1, 4), max_exponent=3, max_size=4), min_size=1, max_size=5),
    st.lists(
        _monomials(st.tuples(st.integers(1, 2), st.integers(1, 3)), max_exponent=1, max_size=3),
        min_size=1, max_size=5,
    ),
).filter(lambda gens: Monomial.one() not in gens)


@settings(max_examples=40, deadline=None)
@given(_small_ideal, st.sampled_from([2, 32003]))
def test_betti_ideal_file_round_trips(gens, p):
    # The generators go out in the monomial format and the Betti table comes
    # back as CSV rows whose multidegrees parse to the library's table.
    ideal = MonomialIdeal(gens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ideal.json"
        path.write_text(json.dumps([format_monomial(g) for g in gens]))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["betti", "--ideal-file", str(path), "--prime", str(p)]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("# manifest: ")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["i", "j", "alpha", "rank"]
    got = {}
    for i, j, alpha, rank in rows[1:]:
        mono = parse_monomial(alpha)
        assert mono.degree == int(j) and format_monomial(mono) == alpha
        got[(int(i), mono)] = int(rank)
    assert got == koszul_betti(ideal, p=p).entries
