"""Symbol algebra: interning, canonical form, rendering, tree functionals."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fractree.params import Parameters
from fractree.symbols import (
    INT,
    XI,
    Symbol,
    bare_tree,
    decorate,
    degree_vector,
    diameter,
    height,
    homogeneity_of,
    integrate,
    iter_vertices,
    monomial,
    multiply,
    one,
    parse_symbol,
    product,
    render,
    to_dot,
    type_of,
    xi,
)


class TestConstruction:
    def test_unit_and_noise(self):
        assert type_of(one()) == (0, 0, ())
        assert type_of(xi()) == (1, 0, ())
        assert one() is not xi()
        assert xi().n_vertices == 2

    def test_direct_instantiation_refused(self):
        with pytest.raises(TypeError):
            Symbol()

    def test_interning(self):
        a = multiply(integrate(xi()), integrate(xi()))
        b = product([integrate(xi())] * 2)
        assert a is b
        assert parse_symbol("I(Xi)^2") is a

    def test_multiply_commutes_and_associates(self):
        x, y, z = integrate(xi()), monomial((1,)), integrate(integrate(xi()))
        assert multiply(x, y) is multiply(y, x)
        assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))
        assert multiply(x, one()) is x

    def test_integrate_annihilates_unit(self):
        assert integrate(one()) is None
        t = integrate(xi())
        assert t is not None and type_of(t) == (1, 1, ())

    def test_monomials(self):
        assert monomial((0, 0)) is one()
        m = monomial((2, 1))
        assert type_of(m) == (0, 0, (2, 1))
        assert multiply(m, m).kvec == (4, 2)

    def test_noise_edge_validation(self):
        from fractree.symbols import _make_node

        with pytest.raises(ValueError):
            _make_node((), ((XI, integrate(xi())),))
        with pytest.raises(ValueError):
            _make_node((-1,), ())

    def test_types_compose(self):
        t = multiply(integrate(multiply(integrate(xi()), integrate(xi()))), monomial((0, 1)))
        assert type_of(t) == (2, 3, (0, 1))
        assert t.n_vertices == 2 + 3 + 1


class TestHomogeneity:
    def test_small_cases(self):
        p = Parameters.white_noise(2, 2, F(3, 2))
        assert homogeneity_of(xi(), p).a == F(-7, 4)
        assert homogeneity_of(integrate(xi()), p).a == F(-1, 4)
        t = product([integrate(xi())] * 2)
        assert homogeneity_of(t, p).a == F(-1, 2) and homogeneity_of(t, p).b == -2

    def test_monomial_degree_uses_time_weight(self):
        p = Parameters.white_noise(2, 2, F(3, 2))
        assert homogeneity_of(monomial((1, 0, 0)), p).a == F(3, 2)
        assert homogeneity_of(monomial((0, 1, 1)), p).a == F(2)


def _random_symbol(rng: random.Random, depth: int = 3) -> Symbol:
    """A random well-formed symbol, biased toward small trees."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return xi()
    if roll < 0.45:
        k = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        return monomial(k) if any(k) else xi()
    factors = []
    for _ in range(rng.randint(1, 3)):
        inner = _random_symbol(rng, depth - 1)
        got = integrate(inner)
        factors.append(got)
    if rng.random() < 0.4:
        factors.append(xi())
    return product(factors)


class TestCanonicalForm:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_child_order_is_immaterial(self, seed):
        """Shuffled factor order produces the identical interned object."""
        rng = random.Random(seed)
        t = _random_symbol(rng)
        if t.children:
            kids = list(t.children)
            rng.shuffle(kids)
            from fractree.symbols import _make_node

            rebuilt = _make_node(t.decoration, kids)
            assert rebuilt is t

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_render_parse_round_trip(self, seed):
        t = _random_symbol(random.Random(seed))
        assert parse_symbol(render(t)) is t
        assert parse_symbol(render(t, d=4)) is t

    def test_render_examples(self):
        assert render(one()) == "1"
        assert render(xi()) == "Xi"
        t = parse_symbol("I(I(Xi)^2)*I(Xi)^2")
        assert render(t) == "I(Xi)^2*I(I(Xi)^2)"  # factors in canonical order
        assert render(parse_symbol("X^(1)"), d=2) == "X^(1,0,0)"

    def test_parse_rejects_garbage(self):
        for bad in ("", "I()", "I(1)", "Xi*", "X^()", "I(Xi", "2", "Xi^0"):
            with pytest.raises(ValueError):
                parse_symbol(bad)

    def test_parse_refuses_deep_nesting_with_a_message(self):
        deep = "I(" * 3000 + "Xi" + ")" * 3000
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_symbol(deep)
        chain = "I(" * 100 + "Xi" + ")" * 100
        t = parse_symbol(chain)
        assert (t.p, t.q) == (1, 100)
        assert render(t) == chain


class TestBareDecorated:
    def test_bare_strips_noise(self):
        t = parse_symbol("I(I(Xi)^2)")
        b = bare_tree(t)
        assert b.n_vertices == t.q + 1 == 4
        assert height(b) == 2 and diameter(b) == 2

    def test_bare_of_noise_is_point(self):
        b = bare_tree(xi())
        assert b.n_vertices == 1 and height(b) == 0 and diameter(b) == 0

    def test_decorate_inverts_bare(self):
        for text in ("Xi", "I(Xi)^2", "I(I(Xi)^2)*I(Xi)", "I(I(Xi)*I(I(Xi)^2))"):
            t = parse_symbol(text)
            assert decorate(bare_tree(t)) is t

    def test_decorate_refuses_decorations(self):
        with pytest.raises(ValueError):
            decorate(monomial((1,)))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_bare_height_diameter_bounds(self, seed):
        t = _random_symbol(random.Random(seed))
        b = bare_tree(t)
        assert b.n_vertices == t.q + 1
        assert height(b) <= t.q
        assert diameter(b) <= 2 * height(b)


class TestDegreeVector:
    def test_counts_and_identities(self):
        # root - inner vertex - two stripped leaves: degrees 1, 3, 1, 1
        t = parse_symbol("I(I(Xi)^2)")
        dv_bare = degree_vector(t, 2, bare=True)
        assert dv_bare == (3, 0, 1)
        assert sum(dv_bare) == t.q + 1
        assert sum((j + 1) * c for j, c in enumerate(dv_bare)) == 2 * t.q

    def test_decorated_counts(self):
        # Xi decorated: root deg 1, noise leaf deg 1
        assert degree_vector(xi(), 2) == (2, 0, 0)
        t = parse_symbol("I(Xi)^2")
        assert degree_vector(t, 2) == (2, 3, 0)
        assert sum(degree_vector(t, 2)) == t.n_vertices

    def test_root_may_use_full_degree(self):
        t = parse_symbol("I(Xi)*I(I(Xi))*I(I(I(Xi)))")  # three chains at the root
        assert degree_vector(t, 2, bare=True) == (3, 3, 1)

    def test_overdegree_raises(self):
        t = parse_symbol("I(Xi)*I(I(Xi))*I(I(I(Xi)))*I(I(I(I(Xi))))")
        with pytest.raises(ValueError):
            degree_vector(t, 2, bare=True)
        assert degree_vector(t, 3, bare=True) == (4, 6, 0, 1)


class TestIterVertices:
    def test_breadth_first_deterministic(self):
        t = parse_symbol("I(Xi)^2")
        rows = list(iter_vertices(t))
        assert [r[0] for r in rows] == list(range(t.n_vertices))
        assert rows[0][1] == -1 and rows[0][3] is t
        parents = [r[1] for r in rows[1:]]
        assert parents == sorted(parents)


class TestDot:
    def test_shape(self):
        t = parse_symbol("I(Xi)")
        src = to_dot(t, d=2, name="g")
        assert src.startswith("digraph g {")
        assert src.count("->") == t.p + t.q
        assert src.count("style=dashed") == t.p
        assert "doublecircle" in src

    def test_decoration_label(self):
        t = parse_symbol("X^(0,1,0)*I(Xi)^2")
        src = to_dot(t, d=2)
        assert 'label="(0,1,0)"' in src

    def test_boundary_element_export(self):
        """A (7,9,0) symbol yields 17 vertices and 16 edges, 7 of them noise."""
        t = parse_symbol("I(Xi)^2*I(I(Xi)^2*I(I(Xi)^3))")
        assert type_of(t) == (7, 9, ())
        src = to_dot(t, d=3)
        assert src.count("->") == 16
        assert src.count("style=dashed") == 7
        assert sum(1 for line in src.splitlines() if line.strip().startswith("v") and "->" not in line) == 17
