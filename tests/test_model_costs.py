"""Unit tests for the cost-term synthesis (Equation 1, Table 1)."""

import ast
import pathlib

import numpy as np
import pytest

from repro.model.costs import CostTerms, equation_1
from repro.model.params import CS2, MachineParams


def terms(e=10, l=4, d=2, c=3, n=5) -> CostTerms:
    return CostTerms(energy=e, distance=l, depth=d, contention=c, links=n)


class TestSynthesize:
    def test_equation_one(self):
        t = terms(e=100, l=10, d=3, c=5, n=20)
        # max(5, 100/20 + 10) + 5*3 = 15 + 15
        assert t.synthesize(CS2) == pytest.approx(30.0)

    def test_contention_dominates(self):
        t = terms(e=10, l=1, d=0, c=50, n=10)
        assert t.synthesize(CS2) == pytest.approx(50.0)

    def test_bandwidth_dominates(self):
        t = terms(e=1000, l=100, d=0, c=1, n=10)
        assert t.synthesize(CS2) == pytest.approx(200.0)

    def test_depth_term_uses_ramp_latency(self):
        t = terms(e=0.0, l=0.0, d=4, c=0.0, n=1)
        assert t.synthesize(CS2) == pytest.approx(20.0)
        assert t.synthesize(MachineParams(ramp_latency=7)) == pytest.approx(60.0)


class TestDominantTerm:
    def test_contention(self):
        assert terms(e=1, l=1, d=0, c=100, n=1).dominant_term() == "contention"

    def test_bandwidth(self):
        assert terms(e=1000, l=50, d=0, c=1, n=10).dominant_term() == "bandwidth"

    def test_depth(self):
        assert terms(e=1, l=1, d=100, c=1, n=1).dominant_term() == "depth"


class TestEquationOne:
    def test_arrays_match_scalars(self):
        # The one Equation (1): elementwise over broadcast arrays, and each
        # element equals the scalar synthesis bit for bit.
        bs = np.array([1.0, 7.0, 64.0])
        curve = equation_1(bs * 10, 4, 2, bs * 3, 5, CS2)
        for b, t in zip(bs, curve):
            assert t == terms(e=b * 10, l=4, d=2, c=b * 3, n=5).synthesize(CS2)

    def test_infinite_energy_is_infinite_time(self):
        assert equation_1(np.inf, 1, 1, 1, 1) == np.inf


class TestValidation:
    def test_rejects_zero_links(self):
        with pytest.raises(ValueError):
            CostTerms(energy=1, distance=1, depth=1, contention=1, links=0)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            CostTerms(energy=-1, distance=1, depth=1, contention=1, links=1)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            CostTerms(energy=1, distance=1, depth=-2, contention=1, links=1)


SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def test_equation_one_is_written_once():
    # Equation (1) charges (2 T_R + 1) cycles per unit of depth, so any
    # copy of it reads ``depth_cycles``.  Only ``equation_1`` may: a new
    # prediction builds CostTerms and synthesizes them instead.
    readers, definitions = set(), set()
    for path in SRC.rglob("*.py"):
        where = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "depth_cycles":
                readers.add(where)
            elif isinstance(node, ast.FunctionDef) and node.name == "depth_cycles":
                definitions.add(where)
    assert readers == {"model/costs.py"}
    assert definitions == {"model/params.py"}
