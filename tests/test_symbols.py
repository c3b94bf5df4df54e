"""Symbol algebra: interning, canonical form, rendering, parsing, bare trees."""

import gc
import random
import re
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import alarm
from fractree import symbols
from fractree.builder import BuildConfig, build, completeness_threshold
from fractree.params import Parameters
from fractree.stats import _element
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


def _outcome(text: str, memo=None):
    """What parse_symbol makes of text: the symbol or the ValueError message."""
    try:
        return parse_symbol(text, memo=memo)
    except ValueError as exc:
        return str(exc)


def _same(got, want) -> bool:
    """The identical interned symbol, or the same error message."""
    return got is want if isinstance(want, Symbol) else got == want


def _blocks(t: Symbol, d: int) -> list[str]:
    """The text of every I(...) block in render(t, d)."""
    return sorted({"I(%s)" % render(c, d) for *_, tag, c in iter_vertices(t) if tag == INT})


class TestParseMemo:
    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=4),
        st.lists(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=16).map("".join), max_size=3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_memo_changes_no_outcome(self, seeds, noise, data):
        # fill the memo from rendered symbols and from token strings, which
        # may record blocks before they fail
        syms = [_random_symbol(random.Random(seed)) for seed in seeds]
        seen = [render(t, d=2) for t in syms]
        memo: dict = {}
        for other in seen + noise:
            _outcome(other, memo)
        # texts that reuse those blocks among stray tokens, and the texts
        # themselves with one piece deleted or inserted
        blocks = sorted({b for t in syms for b in _blocks(t, 2)})
        pieces = st.sampled_from(_PARSE_TOKENS + tuple(blocks))
        base = data.draw(st.sampled_from(seen))
        cut = data.draw(st.integers(min_value=0, max_value=len(base)))
        text = data.draw(
            st.one_of(
                st.lists(pieces, max_size=12).map("".join),
                st.just(base),
                st.integers(min_value=1, max_value=3).map(lambda n: base[:cut] + base[cut + n:]),
                pieces.map(lambda piece: base[:cut] + piece + base[cut:]),
            )
        )
        assert _same(_outcome(text, memo), _outcome(text))
        # a shared render memo renders every symbol as a fresh one does
        texts: dict = {}
        for t, text in zip(syms, seen):
            assert render(t, 2, memo=texts) == text

    def test_memo_holds_every_closed_block(self):
        memo: dict = {}
        t = parse_symbol("I(I(Xi)^2)*I(Xi)*X^(0,1)", memo=memo)
        assert set(memo) == {"I(I(Xi)^2)", "I(Xi)"}
        assert memo["I(Xi)"] is integrate(xi())
        assert parse_symbol("I(I(Xi)^2)", memo=memo) is memo["I(I(Xi)^2)"]
        assert t is parse_symbol("I(I(Xi)^2)*I(Xi)*X^(0,1)")

    def test_memo_keeps_the_depth_bound(self):
        memo: dict = {}
        chain = "I(" * 31 + "Xi" + ")" * 31  # within the block pattern's depth
        parse_symbol(chain, memo=memo)
        assert chain in memo
        deep = "I(" * 3000 + "Xi" + ")" * 3000  # holds chain as its inner 31 levels
        with pytest.raises(ValueError, match="nested too deeply") as fresh:
            parse_symbol(deep)
        with pytest.raises(ValueError, match="nested too deeply") as memoised:
            parse_symbol(deep, memo=memo)
        assert str(memoised.value) == str(fresh.value)
        # at the bound itself: 500 levels parse, 501 are refused, memo or
        # not, also after a factor the memo steps over
        for extra, ok in ((469, True), (470, False)):
            text = "I(" * extra + chain + ")" * extra
            want = _outcome(text)
            assert isinstance(want, Symbol) is ok
            assert _same(_outcome(text, memo), want)
            after = chain + "*" + text
            assert _same(_outcome(after, memo), _outcome(after))

    def test_memo_keys_stay_linear_in_the_text(self):
        # padding inside a chain: one key per level would hold a copy of the
        # padding for each level.  At 31 levels the memo is on, and without
        # the budget its keys would hold 621,550 characters.
        for levels in (400, 31):
            text = "I(" * levels + " " * 20_000 + "Xi" + ")" * levels
            memo: dict = {}
            t = parse_symbol(text, memo=memo)
            assert (t.p, t.q) == (1, levels)
            assert sum(map(len, memo)) <= 4 * len(text)


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
    """Block ends come from one pattern match up to symbols._BLOCK_DEPTH
    levels; from the first block it cannot match, the memo is off."""

    @pytest.mark.parametrize("core", ["Xi", "I(Xi)^2*X^(0,1)", "X^(1,0)*Xi"])
    def test_pattern_ends_are_the_scanned_ends(self, core):
        text = _chain(symbols._BLOCK_DEPTH + 8, core) + "*" + _chain(3, core)
        ends = _scanned_ends(text)
        for i in (i for i, ch in enumerate(text) if ch == "("):
            got = symbols._block_pattern().match(text, i)
            shallow = _nesting(text[i:ends[i]]) <= symbols._BLOCK_DEPTH
            assert (got.end() if got else None) == (ends[i] if shallow else None)
        assert symbols._block_pattern().match("I(I(Xi)", 1) is None  # never closed

    def test_pattern_runs_on_python_3_10(self):
        # re takes possessive quantifiers and atomic groups only from 3.11
        source = symbols._block_pattern().pattern
        assert not re.search(r"[*+?}]\+|\(\?>", source)

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
        # linear: about 20 ms for these 100-250 KB texts.  A pattern that
        # backtracks into every way of splitting them would run for hours;
        # the alarm interrupts the match and fails the test instead.
        with alarm(2.0):
            assert symbols._block_pattern().match(text) is None

    @pytest.mark.parametrize("levels", [40, 450])
    @pytest.mark.parametrize("hit", [0, 20, 39])
    def test_chains_past_the_pattern_depth(self, levels, hit):
        core = "I(Xi)*X^(0,1)"
        before = _chain(hit, core) if hit else "Xi"  # hit 39 nests past the pattern too
        text = before + "*" + _chain(levels, core) + "*I(X^(0,2))"
        memo: dict = {}
        t = parse_symbol(text, memo=memo)
        assert t is parse_symbol(text) and (t.p, t.q) == (2, parse_symbol(before).q + levels + 2)
        # the memo holds the blocks closed before the first unmatched one:
        # what a parse of before alone records, at the same key budget
        alone: dict = {}
        parse_symbol(before.ljust(len(text)), memo=alone)
        assert memo == alone and bool(memo) is (0 < hit < symbols._BLOCK_DEPTH)
        for broken in (text[:-1], text[:-1] + "*Xi", text + ")"):
            assert _same(_outcome(broken, memo), _outcome(broken))

    def test_memo_stops_past_the_pattern_depth(self):
        # a 32-level chain is the deepest block the pattern follows
        for levels, on in ((symbols._BLOCK_DEPTH, True), (symbols._BLOCK_DEPTH + 1, False)):
            text = _chain(levels)
            memo: dict = {}
            assert parse_symbol(text, memo=memo) is parse_symbol(text)
            # the outer levels, as far as the key budget reaches, or none
            assert set(memo) <= {_chain(n) for n in range(1, levels + 1)}
            assert text in memo if on else not memo
            # a wrong entry is read only while the memo is on
            wrong = {_chain(levels - 1): xi()}
            assert (parse_symbol(text, memo=wrong) is parse_symbol(text)) is not on

    def test_texts_with_more_open_parentheses_than_the_bound_use_the_memo(self):
        text = "*".join(["I(Xi)"] * (symbols._MAX_DEPTH + 1))
        memo: dict = {}
        t = parse_symbol(text, memo=memo)
        assert t is parse_symbol(text) and (t.p, t.q) == (symbols._MAX_DEPTH + 1,) * 2
        assert set(memo) == {"I(Xi)"}

    def test_an_unclosed_path_is_matched_once(self):
        # 400 open blocks around 2 MB: matching each of them would read the
        # padding 400 times, about 3.5 s; the first failed match stops it
        text = "I(Xi*" * 400 + " " * 2_000_000 + "Xi"
        with alarm(2.0), pytest.raises(ValueError, match=r"expected '\)'"):
            parse_symbol(text, memo={})


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
