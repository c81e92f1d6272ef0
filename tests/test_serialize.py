"""Wire formats: bit-exact JSON round trips, schema rejection, CSV cells."""

import json

import numpy as np
import pytest

from mst.blaschke import BlaschkeProduct
from mst.dual import ComplementElement
from mst.modelspace import ModelSpace
from mst.operators import tto_matrix
from mst.rational import ComplexPoly, RationalFn
from mst.sampling import random_blaschke, random_rational
from mst.serialize import (
    SchemaError,
    blaschke_from_json,
    blaschke_to_json,
    complement_element_to_json,
    factorization_to_json,
    format_complex,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    rational_from_json,
    rational_to_json,
)
from mst.wienerhopf import wiener_hopf_factorize


def through_json(doc):
    return json.loads(json.dumps(doc))


class TestRoundTrip:
    def test_rational_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_rational(rng)
            doc = through_json(rational_to_json(f))
            g = rational_from_json(doc)
            assert np.array_equal(g.num.coeffs, f.num.coeffs)
            assert np.array_equal(g.den.coeffs, f.den.coeffs)

    def test_blaschke_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = random_blaschke(rng)
            doc = through_json(blaschke_to_json(b))
            c = blaschke_from_json(doc)
            assert c.zeros == b.zeros
            assert c.constant == b.constant

    def test_matrix_round_trip(self):
        space = ModelSpace(BlaschkeProduct((0.5, 1 / 3)))
        m = tto_matrix(space, space, RationalFn.monomial(1) + 0.25)
        doc = through_json(matrix_to_json(m))
        entries, domain, codomain = matrix_from_json(doc)
        assert np.array_equal(entries, m.entries)
        assert domain.isclose(space.inner)
        assert codomain.isclose(space.inner)

    def test_complement_element_document(self):
        theta = BlaschkeProduct((0.0, 0.0))
        e = ComplementElement(
            theta, RationalFn.monomial(2) * 1.5j, RationalFn.monomial(-1)
        )
        doc = through_json(complement_element_to_json(e))
        assert set(doc) == {"theta", "analytic", "antianalytic"}
        assert blaschke_from_json(doc["theta"]).zeros == theta.zeros
        for key in ("analytic", "antianalytic"):
            back = rational_from_json(doc[key])
            assert np.array_equal(back.num.coeffs, getattr(e, key).num.coeffs)
            assert np.array_equal(back.den.coeffs, getattr(e, key).den.coeffs)

    def test_factorization_document(self):
        fact = wiener_hopf_factorize(1, RationalFn(ComplexPoly([2.0])))
        doc = through_json(factorization_to_json(fact))
        assert doc["n"] == 1
        assert abs(complex(*doc["det"]) - 1.0) < 1e-10
        assert len(doc["g_plus_inv"]) == 2 and len(doc["g_minus_inv"]) == 2

    def test_default_constant(self):
        b = blaschke_from_json({"zeros": [[0.0, 0.0]]})
        assert b.constant == 1.0 + 0.0j


class TestSchemaRejection:
    def test_unknown_field_rational(self):
        with pytest.raises(SchemaError):
            rational_from_json({"num": [[1.0, 0.0]], "den": [[1.0, 0.0]], "foo": 1})

    def test_unknown_field_blaschke(self):
        with pytest.raises(SchemaError):
            blaschke_from_json({"zeros": [], "color": "red"})

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            rational_from_json({"num": [[1.0, 0.0]]})

    def test_bad_pair(self):
        with pytest.raises(SchemaError):
            blaschke_from_json({"zeros": [[0.0]]})
        with pytest.raises(SchemaError):
            blaschke_from_json({"zeros": [[False, False]]})

    def test_mismatched_shape(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 3, "cols": 1, "entries": [[[1.0, 0.0]]]})


class TestCsv:
    def test_cell_format(self):
        assert format_complex(1.5 + 0.25j) == "1.5+0.25i"
        assert format_complex(-2.0 - 1.0j) == "-2.0-1.0i"

    def test_matrix_csv(self):
        out = matrix_to_csv(np.array([[1.0 + 1.0j, 0.0], [0.5, -1.0j]]))
        lines = out.strip().split("\n")
        assert lines[0] == "1.0+1.0i,0.0+0.0i"
        assert lines[1] == "0.5+0.0i,0.0-1.0i"
