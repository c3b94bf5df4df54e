"""Symbol algebra: interning, canonical form, rendering, parsing, bare trees."""

import gc
import random
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import alarm
from fractree import symbols
from fractree.builder import BuildConfig, build, completeness_threshold
from fractree.params import Homogeneity, Parameters
from fractree.stats import _element
from fractree.trees import clear_bare_cache, enumerate_bare
from fractree.symbols import (
    INT,
    XI,
    Symbol,
    bare_tree,
    decorate,
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
        assert repr(a) == "<Symbol I(Xi)^2>"

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_product_builds_one_node(self, monkeypatch, k):
        pool = [integrate(xi()), monomial((0, 1)), xi(), integrate(integrate(xi())), monomial((1,))]
        factors = pool[:k]
        expected = factors[0]
        for f in factors[1:]:
            expected = multiply(expected, f)
        calls = []
        make_node = symbols._make_node

        def counted(dec, kids):
            calls.append(dec)
            return make_node(dec, kids)

        monkeypatch.setattr(symbols, "_make_node", counted)
        assert product(factors + [one()]) is expected
        assert len(calls) == 1

    def test_product_of_units(self):
        assert product([]) is one()
        assert product([one(), one()]) is one()
        assert product([one(), xi(), one()]) is xi()

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
        # input is checked where it enters, by the public constructors
        with pytest.raises(ValueError):
            monomial((-1,))
        with pytest.raises(ValueError):
            monomial((1.5,))
        with pytest.raises(TypeError):
            integrate("Xi")
        with pytest.raises(TypeError):
            product([xi(), "Xi"])

    def test_types_compose(self):
        t = multiply(integrate(multiply(integrate(xi()), integrate(xi()))), monomial((0, 1)))
        assert type_of(t) == (2, 3, (0, 1))
        assert t.n_vertices == 2 + 3 + 1


def _space_3_4():
    params = Parameters.white_noise(2, 2, F(3, 4))
    return build(params, BuildConfig(maxh=completeness_threshold(params)))


def _pool_size() -> int:
    """Entries in the intern pool once the collector has run; each must
    refer to a live symbol."""
    gc.collect()
    assert all(ref() is not None for ref in symbols._POOL.values())
    return len(symbols._POOL)


class TestInternPool:
    """The pool holds weak references: a symbol lives while something refers
    to it, and equal live symbols are one object."""

    def test_dropped_build_leaves_pool_as_it_was(self):
        before = _pool_size()
        ms = _space_3_4()
        assert all(symbols._POOL[s.enc]() is s for s in ms.generations)
        del ms
        assert _pool_size() == before

    def test_held_symbol_keeps_its_entry(self):
        ms = _space_3_4()
        held = max(ms.generations, key=lambda s: (s.n_edges, s.enc))
        text = render(held)
        del ms
        gc.collect()
        assert symbols._POOL[held.enc]() is held
        assert parse_symbol(text) is held

    def test_space_in_a_cycle_is_released(self):
        before = _pool_size()
        ms = _space_3_4()
        ms.itself = ms
        probe = weakref.ref(ms)
        del ms
        assert _pool_size() == before and probe() is None

    def test_remade_symbol_is_interned_again(self):
        text = "I(X^(0,5,7)*Xi)^2*X^(3)"  # no build makes it
        enc = parse_symbol(text).enc
        gc.collect()
        assert enc not in symbols._POOL
        a, b = parse_symbol(text), parse_symbol(text)
        assert a is b and symbols._POOL[enc]() is a

    def test_symbol_remade_while_its_cycle_is_finalized(self):
        # The collector clears the weak references into a garbage cycle
        # before it runs finalizers, so a finalizer in the cycle can remake
        # a symbol of the cycle before that symbol's own finalizer runs; the
        # remade symbol must keep its entry either way round.
        remade = {}

        class Remaker:
            def __init__(self, text):
                self.text = text
                self.cycle = [self, parse_symbol(text)]

            def __del__(self):
                remade[self.text] = parse_symbol(self.text)

        texts = [f"I(X^(0,6,{i})*Xi^3)" for i in range(1, 9)]  # no build makes them
        for text in texts:
            Remaker(text)
            gc.collect()
        assert list(remade) == texts
        for text in texts:
            assert symbols._POOL[remade[text].enc]() is remade[text]
            assert parse_symbol(text) is remade[text]


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

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_shared_render_memo(self, seeds):
        """A render memo shared by several symbols renders each as a fresh one does."""
        syms = [_random_symbol(random.Random(seed)) for seed in seeds]
        texts: dict = {}
        for t in syms:
            assert render(t, 2, memo=texts) == render(t, 2)

    def test_render_examples(self):
        assert render(one()) == "1"
        assert render(xi()) == "Xi"
        t = parse_symbol("I(I(Xi)^2)*I(Xi)^2")
        assert render(t) == "I(Xi)^2*I(I(Xi)^2)"  # factors in canonical order
        assert render(parse_symbol("X^(1)"), d=2) == "X^(1,0,0)"
        with pytest.raises(ValueError, match="does not fit dimension d=1"):
            render(parse_symbol("X^(0,0,1)"), d=1)

    def test_parse_rejects_garbage(self):
        for bad in ("", "I()", "I(1)", "Xi*", "X^()", "I(Xi", "2", "Xi^0"):
            with pytest.raises(ValueError):
                parse_symbol(bad)

    def test_whitespace_rules(self):
        assert parse_symbol(" I( Xi )^2 * X^(0,1) ") is parse_symbol("I(Xi)^2*X^(0,1)")
        assert parse_symbol("Xi ^2") is parse_symbol("Xi^2")
        for bad in ("X^( 1)", "X^(1 )", "X^(1, 0)", "X^(1 ,0)", "X ^(1)", "Xi^ 2", "I (Xi)", "X i"):
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
        # at the bound itself: 500 levels parse, 501 are refused, also
        # after a factor
        for levels, ok in ((500, True), (501, False)):
            for text in (_chain(levels), "I(Xi)*" + _chain(levels)):
                assert isinstance(_outcome(text), Symbol) is ok


_PARSE_TOKENS = ("I(", ")", "Xi", "X^(", ",", "^", "*", *"0123456789", " ", "\t", "\n")


class TestParseFuzz:
    @given(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=24).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_text_parses_to_a_fixed_point_or_raises_value_error(self, text):
        try:
            t = parse_symbol(text)
        except ValueError:
            return
        assert parse_symbol(render(t)) is t

    @given(st.integers(min_value=0, max_value=10**9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_whitespace_before_tokens_is_ignored(self, seed, data):
        text = render(_random_symbol(random.Random(seed)), d=2)
        # a token starts wherever text can break: not inside X^(...) or after ^
        cuts = [i for i in range(len(text) + 1) if _token_boundary(text, i)]
        chosen = data.draw(st.sets(st.sampled_from(cuts), max_size=4))
        spaced = "".join(" " + ch if i in chosen else ch for i, ch in enumerate(text))
        spaced += " " if len(text) in chosen else ""
        assert parse_symbol(spaced) is parse_symbol(text)


def _token_boundary(text: str, i: int) -> bool:
    """Whether a token of rendered ``text`` starts at ``i`` (or it ends there)."""
    if i in (0, len(text)):
        return True
    if text.rfind("X^(", 0, i) > text.rfind(")", 0, i):  # inside a multiindex
        return False
    if text[i] == "^":
        return text[i + 1].isdigit()  # an exponent, not the ^ of X^(
    return text[i] in "*)" or text.startswith(("I(", "Xi", "X^("), i)


def _outcome(text: str):
    """What parse_symbol makes of text: the symbol or the ValueError message."""
    try:
        return parse_symbol(text)
    except ValueError as exc:
        return str(exc)


def _chain(levels: int, core: str = "Xi") -> str:
    return "I(" * levels + core + ")" * levels


def _nesting(block: str) -> int:
    level = deepest = 0
    for ch in block:
        level += (ch == "(") - (ch == ")")
        deepest = max(deepest, level)
    return deepest


def _scanned_ends(text: str) -> dict[int, int]:
    """The reference for block ends: the index of each matched '(' mapped
    to the index just past its ')', by one scan of every parenthesis."""
    ends: dict[int, int] = {}
    opened: list[int] = []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")" and opened:
            ends[opened.pop()] = i + 1
    return ends


class TestBlockEnds:
    """The parser ends each I(...) block at its matching ')', and hostile
    texts cost it one pass."""

    @pytest.mark.parametrize("core", ["Xi", "I(Xi)^2*X^(0,1)", "X^(1,0)*Xi"])
    def test_factor_ends_are_the_scanned_ends(self, core):
        # every block of the text, read alone, is the integral the parse of
        # the whole text holds at that place
        text = _chain(40, core) + "*" + _chain(3, core)
        ends = _scanned_ends(text)
        blocks = [text[i - 1 : ends[i]] for i in sorted(ends) if text[i - 1] == "I"]
        t = parse_symbol(text)
        held = {integrate(c) for *_, tag, c in iter_vertices(t) if tag == INT}
        assert {parse_symbol(block) for block in blocks} == held
        assert _nesting(text) == 40 + _nesting(core)

    @pytest.mark.parametrize(
        "text",
        [
            "(" + "I(Xi)*" * 40_000,
            "(" + "(" * 30 + "Xi" + ")" * 30 + "*Xi" * 60_000,
            "(" + "I(Xi)*" * 20_000 + "I(" * 40 + "Xi" + ")" * 41,
            "(" + "".join("(" * (i % 31) + "Xi" + ")" * (i % 31) for i in range(5_000)),
        ],
        ids=["never-closed", "31-deep-never-closed", "too-deep-at-the-end", "sawtooth"],
    )
    def test_failed_matches_stay_fast(self, text):
        # linear: a few ms for these 100-250 KB texts
        with alarm(2.0), pytest.raises(ValueError):
            parse_symbol(text)

    @pytest.mark.parametrize("levels", [40, 450])
    @pytest.mark.parametrize("hit", [0, 20, 39])
    def test_chains_deeper_than_stored_spaces(self, levels, hit):
        core = "I(Xi)*X^(0,1)"
        before = _chain(hit, core) if hit else "Xi"
        text = before + "*" + _chain(levels, core) + "*I(X^(0,2))"
        t = parse_symbol(text)
        assert (t.p, t.q) == (2, parse_symbol(before).q + levels + 2)
        for broken in (text[:-1], text[:-1] + "*Xi", text + ")"):
            with pytest.raises(ValueError):
                parse_symbol(broken)

    def test_an_unclosed_path_is_matched_once(self):
        # 400 open blocks around 2 MB: reading the padding once per open
        # block would take seconds; each reads it once
        text = "I(Xi*" * 400 + " " * 2_000_000 + "Xi"
        with alarm(2.0), pytest.raises(ValueError, match=r"expected '\)'"):
            parse_symbol(text)


class TestSizeBound:
    @pytest.mark.parametrize(
        "text, at",
        [
            # powers, refused at the ^ before their factor list is built
            ("Xi^99999999", 2),
            ("I(Xi^100)^100^100", 9),
            ("X^(1)^99999999", 5),
            ("1^99999999", 1),
            # an integral at its ), a product at the end: one edge too many
            ("I(Xi^10000)", 10),
            ("Xi^5000*Xi^5001", 15),
            ("I(Xi^5000)*Xi^5000", 18),
        ],
    )
    def test_symbols_past_the_bound_are_refused(self, text, at):
        with pytest.raises(ValueError, match=f"position {at}: more than 10000 edges"):
            parse_symbol(text)

    def test_numbers_past_the_conversion_limit(self):
        # longer than Python's default 4,300-digit limit for int(str)
        with pytest.raises(ValueError, match="position 0: decoration entry too long"):
            parse_symbol("X^(" + "9" * 5000 + ")")
        assert parse_symbol("X^(" + "0" * 5000 + "1)") is monomial((1,))
        with pytest.raises(ValueError, match="position 2: more than 10000 edges"):
            parse_symbol("Xi^" + "7" * 5000)
        assert parse_symbol("Xi^" + "0" * 4400 + "2") is parse_symbol("Xi^0002") is parse_symbol("Xi^2")

    def test_large_symbols_still_parse(self):
        t = parse_symbol("Xi^212^12")
        assert (t.p, t.q) == (2544, 0)
        assert parse_symbol("I(Xi^9999)").n_edges == symbols._MAX_EDGES


# the custom-noise point (2, 2, 8/5) with alpha0 = -29/10 - kappa
_CUSTOM_8_5 = Parameters(N=2, d=2, rho=F(8, 5), alpha0=Homogeneity(F(-29, 10), -1))


class TestStoredTexts:
    """A load takes a stored text's symbol from the rebuilt space; the parser
    reads each such text to the same symbol."""

    @pytest.mark.parametrize(
        "params",
        [
            Parameters.white_noise(2, 2, F(3, 4)),
            Parameters.white_noise(3, 3, F(8, 5)),
            Parameters.white_noise(4, 2, F(3, 2)),
            _CUSTOM_8_5,
        ],
        ids=["2-2-3/4", "3-3-8/5", "4-2-3/2", "custom-2-2-8/5"],
    )
    def test_composed_as_parsed(self, params):
        ms = build(params, BuildConfig(maxh=completeness_threshold(params)))
        texts: dict = {}
        for s in ms.generations:
            assert parse_symbol(render(s, params.d, memo=texts)) is s


class TestBareDecorated:
    def test_bare_strips_noise(self):
        t = parse_symbol("I(I(Xi)^2)")
        b = bare_tree(t)
        assert b.n_vertices == t.q + 1 == 4
        assert _element(b, 2, {})[:2] == _element(t, 2, {})[:2] == (2, 2)  # height, diameter

    def test_bare_of_noise_is_point(self):
        b = bare_tree(xi())
        assert b.n_vertices == 1 and _element(b, 2, {})[:2] == (0, 0)

    def test_decorate_inverts_bare(self):
        for text in ("Xi", "I(Xi)^2", "I(I(Xi)^2)*I(Xi)", "I(I(Xi)*I(I(Xi)^2))"):
            t = parse_symbol(text)
            assert decorate(bare_tree(t)) is t

    def test_deep_chain_within_the_default_recursion_limit(self):
        """render, bare_tree and decorate take one frame per level, so a
        499-level chain goes through them under the default limit of 1000,
        with pytest's own frames below them."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            clear_bare_cache()  # no twin memo: decorate walks every level
            text = _chain(499)
            t = parse_symbol(text)
            assert render(t) == text
            b = bare_tree(t)
            assert (b.q, b.n_vertices) == (499, 500)
            assert decorate(b) is t
        finally:
            sys.setrecursionlimit(limit)
            clear_bare_cache()

    def test_decorate_refuses_decorations(self):
        with pytest.raises(ValueError):
            decorate(monomial((1,)))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_bare_height_diameter_bounds(self, seed):
        t = _random_symbol(random.Random(seed))
        b = bare_tree(t)
        assert b.n_vertices == t.q + 1
        # at most 4 children under an incoming edge: N = 4 admits every degree
        height, diameter = _element(b, 4, {})[:2]
        assert _element(t, 4, {})[:2] == (height, diameter)
        assert height <= t.q
        assert diameter <= 2 * height


def _decorated(b: Symbol) -> Symbol:
    """decorate by its definition: a noise at every leaf, no memo."""
    if not b.children:
        return xi()
    return product([integrate(_decorated(c)) for _, c in b.children])


@pytest.fixture()
def node_calls(monkeypatch):
    """The decorations of the nodes made through symbols._make_node."""
    calls = []
    make_node = symbols._make_node

    def counted(dec, kids):
        calls.append(dec)
        return make_node(dec, kids)

    monkeypatch.setattr(symbols, "_make_node", counted)
    return calls


class TestDecorateMemo:
    """decorate keeps each bare tree's twin until clear_bare_cache."""

    @pytest.mark.parametrize("N,top", [(2, 7), (3, 6)])
    def test_one_node_per_new_tree(self, node_calls, N, top):
        # classes in order of edges: a tree's subtrees are decorated before it
        clear_bare_cache()
        trees = [t for q in range(top + 1) for t in enumerate_bare(N, q)]
        twins = []
        for b in trees:
            del node_calls[:]
            twins.append(decorate(b))
            assert len(node_calls) == (1 if b.children else 0)
        assert len(symbols._TWINS) == len(trees) - 1  # the point is Xi, not kept
        del node_calls[:]
        assert [decorate(b) for b in trees] == twins and not node_calls
        assert twins == [_decorated(b) for b in trees]

    def test_clear_bare_cache_empties_the_memo(self, node_calls):
        b = parse_symbol("I(I(Xi)^2)*I(Xi)")
        t = decorate(bare_tree(b))
        assert t is b and symbols._TWINS
        clear_bare_cache()
        assert not symbols._TWINS
        del node_calls[:]
        assert decorate(bare_tree(b)) is b and node_calls

    def test_memo_is_bounded(self, monkeypatch):
        clear_bare_cache()
        monkeypatch.setattr(symbols, "_TWINS_MAX", 5)
        trees = [t for q in range(7) for t in enumerate_bare(2, q)]
        assert [decorate(b) for b in trees] == [_decorated(b) for b in trees]
        assert len(symbols._TWINS) == 5
        clear_bare_cache()


def _degree_vector(t, N, bare=False):
    """Counts (d_1, ..., d_{N+1}) of vertices by undirected degree."""
    return _element(t, N, {})[2 if bare else 3][1:]


class TestDegreeVector:
    def test_counts_and_identities(self):
        # root - inner vertex - two stripped leaves: degrees 1, 3, 1, 1
        t = parse_symbol("I(I(Xi)^2)")
        dv_bare = _degree_vector(t, 2, bare=True)
        assert dv_bare == (3, 0, 1)
        assert sum(dv_bare) == t.q + 1
        assert sum((j + 1) * c for j, c in enumerate(dv_bare)) == 2 * t.q

    def test_decorated_counts(self):
        # Xi decorated: root deg 1, noise leaf deg 1
        assert _degree_vector(xi(), 2) == (2, 0, 0)
        t = parse_symbol("I(Xi)^2")
        assert _degree_vector(t, 2) == (2, 3, 0)
        assert sum(_degree_vector(t, 2)) == t.n_vertices

    def test_root_may_use_full_degree(self):
        t = parse_symbol("I(Xi)*I(I(Xi))*I(I(I(Xi)))")  # three chains at the root
        assert _degree_vector(t, 2, bare=True) == (3, 3, 1)

    def test_overdegree_raises(self):
        t = parse_symbol("I(Xi)*I(I(Xi))*I(I(I(Xi)))*I(I(I(I(Xi))))")
        with pytest.raises(ValueError):
            _degree_vector(t, 2, bare=True)
        assert _degree_vector(t, 3, bare=True) == (4, 6, 0, 1)


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
