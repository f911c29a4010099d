"""Algebraic laws and the wire-format parser under generated inputs."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from monokit.cli import main
from monokit.mpoly import MPoly
from monokit.quaternion import Quaternion

repeatable = settings(derandomize=True, database=None, deadline=None)

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
quaternions = st.builds(Quaternion, small_fractions, small_fractions,
                        small_fractions, small_fractions)
exponents = st.tuples(*[st.integers(0, 3)] * 3)
polys = st.dictionaries(exponents, quaternions, max_size=5).map(MPoly)


@repeatable
@given(quaternions, quaternions, quaternions)
def test_quaternion_product_is_associative_and_multiplicative(p, q, s):
    assert (p * q) * s == p * (q * s)
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


@repeatable
@given(polys, polys, polys)
def test_mpoly_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + MPoly.zero() == f and f - f == MPoly.zero()
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert f * MPoly.one() == f == MPoly.one() * f


@repeatable
@given(polys)
def test_dirac_factors_the_laplacian(f):
    assert f.dirac_bar().dirac() == f.laplacian()
    assert f.dirac().dirac_bar() == f.laplacian()
    assert f.laplacian() == sum((f.partial(i).partial(i) for i in range(3)), MPoly.zero())


@repeatable
@given(polys)
def test_wire_format_round_trip(f):
    text = f.to_json()
    assert MPoly.from_json(text) == f
    assert MPoly.from_json(text).to_json() == text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=4),
    max_leaves=12)
# near-valid documents reach the exponent and component checks
fractions_text = st.from_regex(r"-?[0-9]{1,3}/[0-9]{1,2}", fullmatch=True)
terms = st.fixed_dictionaries({
    "e": st.lists(st.integers(-1, 2) | json_values, max_size=4),
    "c": st.lists(fractions_text | json_values, max_size=5)})
documents = json_values | st.fixed_dictionaries(
    {"terms": st.lists(terms, max_size=3) | json_values})


@repeatable
@given(documents)
def test_fourier_input_exits_zero_or_two(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poly.json"
        path.write_text(json.dumps(document))
        code = main(["fourier", "--input", str(path), "--output", str(Path(tmp) / "out")])
    assert code in (0, 2)
