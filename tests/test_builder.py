"""Fixed-point construction: exact small sectors, frozen counts, persistence."""

import hashlib
import json
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fractree.builder
from conftest import alarm
from fractree import symbols
from fractree.builder import (
    BuildConfig,
    ModelSpace,
    build,
    c_F,
    completeness_threshold,
    from_json_dict,
    generation_of,
    h0_F,
    h_F,
    json_text,
    load_json,
    negative_sector,
    save_json,
    space_json_text,
    to_json_dict,
)
from fractree.params import Homogeneity, Parameters, SubcriticalityError
from fractree.symbols import parse_symbol, render
from fractree.trees import ExplosionError, count_regular


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BuildConfig(maxh=F(-1))
        with pytest.raises(ValueError):
            BuildConfig(maxh=F(1), iter=0)
        with pytest.raises(ValueError):
            BuildConfig(maxh=F(1), cap=0)
        assert BuildConfig(maxh="11/20").maxh == F(11, 20)

    def test_default_iterates_until_converged(self):
        # a fixed round budget used to stop this build at c_F 877, uncertified
        params = Parameters.white_noise(2, 2, F(3, 4))
        ms = build(params, BuildConfig(maxh=completeness_threshold(params)))
        assert ms.config.iter is None
        assert ms.complete and c_F(ms) == 932

    def test_threshold_values(self):
        assert completeness_threshold(Parameters.white_noise(2, 2, F(3, 2))) == F(1, 4)
        assert completeness_threshold(Parameters.white_noise(2, 2, 1)) == F(1, 2)
        assert completeness_threshold(Parameters.white_noise(3, 3, F(17, 10))) == F(13, 10)
        # integrated noise already positive: nothing to protect
        assert completeness_threshold(Parameters.white_noise(1, 1, 2)) == 0

    def test_refuses_supercritical(self):
        params = Parameters.white_noise(2, 2, F(2, 3))
        with pytest.raises(SubcriticalityError):
            build(params, BuildConfig(maxh=F(1)))


class TestSmallestSector:
    """At (2, 2, 3/2) the whole space is four symbols; pin all of it."""

    def test_exact_contents(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        assert ms.converged and ms.complete and not ms.aborted
        gens = {parse_symbol(s): g for s, g in
                {"1": 0, "Xi": 0, "I(Xi)": 0, "I(Xi)^2": 1}.items()}
        assert ms.generations == gens

    def test_exact_sector_and_order(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        expect = [
            (parse_symbol("Xi"), Homogeneity(F(-7, 4), -1)),
            (parse_symbol("I(Xi)^2"), Homogeneity(F(-1, 2), -2)),
            (parse_symbol("I(Xi)"), Homogeneity(F(-1, 4), -1)),
        ]
        assert negative_sector(ms) == expect
        assert (c_F(ms), h_F(ms), h0_F(ms)) == (3, 3, 3)

    def test_index_set(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        assert ms.index_set() == [
            Homogeneity(F(-7, 4), -1),
            Homogeneity(F(-1, 2), -2),
            Homogeneity(F(-1, 4), -1),
            Homogeneity(F(0), 0),
        ]


GRID_COUNTS = {
    # (N, d, rho): (h0_F, h_F, c_F, total stored); products are stored up
    # to max(maxh - rho, 0), monomials and integrals up to maxh.
    (2, 2, F(1)): (6, 6, 8, 11),
    (2, 2, F(9, 10)): (7, 7, 11, 16),
    (2, 2, F(17, 20)): (9, 9, 21, 30),
    (2, 2, F(4, 5)): (12, 12, 64, 92),
    (2, 2, F(3, 4)): (18, 18, 932, 1354),
    (3, 3, F(21, 11)): (7, 8, 12, 19),
    (3, 3, F(19, 10)): (7, 8, 12, 19),
    (3, 3, F(9, 5)): (10, 11, 24, 35),
    (3, 3, F(17, 10)): (12, 13, 44, 64),
    (2, 3, F(3, 2)): (6, 6, 8, 11),
    (2, 3, F(13, 10)): (7, 7, 11, 16),
    (3, 2, F(3, 2)): (4, 4, 4, 5),
    (3, 2, F(13, 10)): (6, 6, 7, 10),
}


class TestFrozenGrid:
    @pytest.mark.parametrize("point", sorted(GRID_COUNTS, key=str))
    def test_counts(self, spaces, point):
        ms = spaces(*point)
        assert ms.complete
        assert (h0_F(ms), h_F(ms), c_F(ms), len(ms)) == GRID_COUNTS[point]

    def test_type_pairs(self, spaces):
        ms = spaces(2, 2, F(9, 10))
        pairs = sorted({(s.p, s.q) for s, _ in negative_sector(ms)})
        assert pairs == [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4), (4, 6), (5, 8)]

    def test_decorated_negative_splits_hF(self, spaces):
        """On the (3, 3) grid one decorated symbol separates h_F from h0_F."""
        ms = spaces(3, 3, F(21, 11))
        sector = {s for s, _ in negative_sector(ms)}
        t = parse_symbol("X^(0,1)*I(Xi)^2")
        assert t in sector and t.kvec == (0, 1)
        assert h_F(ms) == h0_F(ms) + 1


class TestIterationLadder:
    """Product rounds after the seeded generation 0, at (3, 3, 17/10), maxh 2."""

    @pytest.mark.parametrize(
        "iters,cf", [(1, 8), (2, 18), (3, 35), (4, 43), (5, 44), (6, 44)]
    )
    def test_partial_rounds(self, spaces, iters, cf):
        ms = spaces(3, 3, F(17, 10), maxh=F(2), iters=iters)
        assert c_F(ms) == cf
        # Round 6 adds only products whose integrals lie above maxh, so with
        # products stored up to maxh - rho the build closes in that round.
        closed = iters >= 6
        assert ms.converged is closed and ms.complete is closed

    def test_convergence_round(self, spaces):
        ms = spaces(3, 3, F(17, 10), maxh=F(2), iters=7)
        assert c_F(ms) == 44
        assert ms.converged and ms.complete

    def test_generation_tags_monotone(self, spaces):
        ms = spaces(3, 3, F(17, 10), maxh=F(2), iters=7)
        assert set(ms.generations.values()) <= set(range(8))
        small = spaces(3, 3, F(17, 10), maxh=F(2), iters=4)
        for sym, gen in small.generations.items():
            assert ms.generations[sym] == gen


def _space_digest(ms) -> str:
    return hashlib.sha256(json_text(to_json_dict(ms)).encode()).hexdigest()


_CUSTOM = Parameters(N=2, d=2, rho=F(2), alpha0=Homogeneity(F(-7, 2), -1))

# SHA-256 of the whole stored space (every symbol, its generation tag and the
# converged/complete flags) along iteration ladders, as built when W and U
# were kept as sets next to the generation tags.  At (2, 1, 1/2) monomial
# splits repeat products within each round (X*X and X^2).
LADDER_DIGESTS = {
    (2, 1, F(1, 2), 3, 1): "f87c58b64167b555ee94c574cf133c5e14d3f458cad9f7bcb547d4daddc4a245",
    (2, 1, F(1, 2), 3, 2): "90038c48ae859e129e9544bde76514702f278fc4609e8356b980bb6e1133665b",
    (2, 1, F(1, 2), 3, 3): "4dd52df1b0b7f15575e00be429809937c88bb7182c61005eabf5877b4e47be77",
    (2, 2, F(3, 2), 4, 1): "bec1025d955d06106db33d52bf509c33b68e7497e8c528087717cb3de292345b",
    (2, 2, F(3, 2), 4, 2): "d18abcdd359be2c9f91daf290fc13dbb5a50adbec738071b84b01de01c2119ed",
    (2, 2, F(3, 2), 4, 3): "53d9d247b98476bc7abe5dafa8e931c257e1f36f524ad88c740436e97d58ba8d",
    (2, 2, F(3, 2), 4, 4): "fefc2382a278deca4d026cffc76bd77b7d246556c1b6776085aa2c634adf069a",
    (3, 3, F(17, 10), 2, 1): "750924c0b6e26c07a0b9be61aca7a247b5d328cb41617ee24811c065f586fdef",
    (3, 3, F(17, 10), 2, 2): "0050a1f4147a4409818910512c6b0a9f930e6fe54dcc18041a38a95828f170e7",
    (3, 3, F(17, 10), 2, 3): "7e103c373a3f9bfacfc3f20b041f798ba6639a1be4b194a8a6ea85dbd4a2587d",
    (3, 3, F(17, 10), 2, 4): "547e03d5ad790cb4395224d75f8bfa477fb9e6eac1b265cd511ec2ef78fe7ed0",
    (3, 3, F(17, 10), 2, 5): "be660e2cd8a07be865f1cb72dcb269427bbe51d843c762b5e3f05088279279e8",
    (3, 3, F(17, 10), 2, 6): "225555905f42a2b4cbf67ec8b3274b090183f7ca8c41ab747552a22895748ba8",
    (3, 3, F(17, 10), 2, 7): "4c8b1407f55ce4eebc0483285f36a59a996a3c04b6af1df66f1eed6b03825571",
}


class TestLadderPins:
    """The whole stored space, not only its sector, pinned round by round."""

    @pytest.mark.parametrize("point", sorted(LADDER_DIGESTS, key=str), ids=str)
    def test_ladder_digest(self, spaces, point):
        N, d, rho, maxh, iters = point
        assert _space_digest(spaces(N, d, rho, maxh=maxh, iters=iters)) == LADDER_DIGESTS[point]

    def test_cap_partial_digest(self):
        params = Parameters.white_noise(2, 2, F(3, 4))
        with pytest.raises(ExplosionError) as exc:
            build(params, BuildConfig(maxh=F(5, 8), iter=64, cap=50))
        assert _space_digest(exc.value.partial) == (
            "69ade1143a1ff83f9fccaaf31619709a2a0a62da0ba5b30d079baced31ade951"
        )

    def test_custom_noise_digest(self):
        ms = build(_CUSTOM, BuildConfig(maxh=completeness_threshold(_CUSTOM)))
        assert ms.complete and len(ms) == 102
        assert _space_digest(ms) == (
            "9d1d3966ec79b91d4893d70aeb0c62b2287cb1400c672912a55a9fb012c5203e"
        )

    @pytest.mark.parametrize(
        "point,stored,calls",
        [
            ((2, 2, F(3, 2), F(4), None), 100, 51),
            ((3, 1, F(1), F(3), None), 180, 102),
            ((3, 3, F(17, 10), F(2), None), 222, 106),
            # Products repeat within each round here; a round that stored a
            # repeat twice would feed it to the next round's tuples twice.
            # The closing check of a spent budget makes no product, so these
            # are the calls that three rounds and no check make.
            ((2, 1, F(1, 2), F(3), 3), 1858, 988),
        ],
        ids=str,
    )
    def test_product_calls(self, monkeypatch, point, stored, calls):
        """One product per tuple walked, and every stored symbol counted."""
        N, d, rho, maxh, iters = point
        made = []
        real = fractree.builder.product

        def counted(factors):
            made.append(1)
            return real(factors)

        monkeypatch.setattr(fractree.builder, "product", counted)
        ms = build(Parameters.white_noise(N, d, rho), BuildConfig(maxh=maxh, iter=iters))
        assert ms.converged is (iters is None)
        assert (len(ms), len(made)) == (stored, calls)


class TestSliceStructure:
    def test_per_q_slices(self, spaces):
        ms = spaces(2, 2, F(3, 4))
        slices = {}
        for s, _ in negative_sector(ms):
            slices[s.q] = slices.get(s.q, 0) + 1
        assert max(slices) == 22
        for q in range(0, 23, 2):
            assert slices.get(q, 0) == count_regular(2, q + 1)
        odd = {q: c for q, c in slices.items() if q % 2}
        assert odd == {1: 1, 3: 2, 5: 4, 7: 9, 9: 20, 11: 46}

    def test_integrated_monomials_appear(self, spaces):
        ms = spaces(2, 2, F(3, 2), maxh=F(3), iters=8)
        assert parse_symbol("I(X^(0,1,0))") in ms.generations
        assert parse_symbol("I(X^(1,0,0))") in ms.generations


def _sector_lines(ms) -> str:
    """The negative sector as "symbol<TAB>homogeneity<TAB>generation" lines."""
    d = ms.params.d
    return "\n".join(
        f"{render(s, d)}\t{h}\t{ms.generations[s]}" for s, h in negative_sector(ms)
    )


class TestPrunedWalk:
    """Products are stored up to max(maxh - rho, 0) only; the sector must not notice."""

    def test_sector_digest_unchanged(self, spaces):
        """Digest of the (2, 2, 3/4) sector as built when products were kept up to maxh."""
        text = _sector_lines(spaces(2, 2, F(3, 4)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0239125b5c35dd07e0d35add285a564c8c731112cca88f5b4a0403d59da3e7c2"
        )

    def test_deep_point_73_100(self, spaces):
        ms = spaces(2, 2, F(73, 100))
        assert ms.complete
        assert (c_F(ms), h_F(ms)) == (9050, 22)

    def test_deep_point_18_25(self):
        params = Parameters.white_noise(2, 2, F(18, 25))
        ms = build(params, BuildConfig(maxh=completeness_threshold(params), iter=64))
        assert ms.complete
        slices = Counter(s.q for s, _ in negative_sector(ms))
        for q in range(0, max(slices) + 1, 2):
            assert slices[q] == count_regular(2, q + 1)
        assert (c_F(ms), h_F(ms)) == (101427, 27)

    @pytest.mark.parametrize(
        "point", [(2, 2, F(4, 5)), (3, 3, F(17, 10)), (2, 3, F(13, 10)), (3, 2, F(13, 10))]
    )
    def test_sector_stable_above_threshold(self, spaces, point):
        at = spaces(*point)
        above = spaces(*point, maxh=completeness_threshold(at.params) + 1)
        assert at.complete and above.complete
        assert _sector_lines(above) == _sector_lines(at)


def _compositions_reference(total, parts):
    """The recursive enumeration the builder used to seed with: the order
    reference for its partial-sum enumeration."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_reference(total - first, parts - 1):
            yield (first,) + rest


class TestSeeding:
    @pytest.mark.parametrize("parts", range(1, 6))
    def test_compositions_in_reference_order(self, parts):
        for total in range(9):
            got = list(fractree.builder._compositions(total, parts))
            assert got == list(_compositions_reference(total, parts))

    def test_compositions_of_a_thousand_parts(self):
        got = list(fractree.builder._compositions(1, 1000))
        assert got == [(0,) * i + (1,) + (0,) * (999 - i) for i in range(999, -1, -1)]


class TestExplosion:
    def test_cap_attaches_partial(self):
        params = Parameters.white_noise(2, 2, F(3, 4))
        with pytest.raises(ExplosionError) as exc:
            build(params, BuildConfig(maxh=F(5, 8), iter=64, cap=50))
        partial = exc.value.partial
        assert partial.aborted and not partial.complete
        assert len(partial) == 50
        assert c_F(partial) <= 50  # sector extraction still works

    def test_cap_bounds_seeding(self):
        # Seeds are admitted as they are made: under maxh 10**6 there are
        # about 10**17 monomials, and the cap stops seeding at the 1,000th
        # symbol.
        params = Parameters.white_noise(2, 2, F(1))
        with alarm(2.0), pytest.raises(ExplosionError) as exc:
            build(params, BuildConfig(maxh=F(10**6), cap=1000))
        partial = exc.value.partial
        assert len(partial) == 1000 and set(partial.generations.values()) == {0}

    @pytest.mark.parametrize(
        "cap,digest",
        [
            # among the 286 monomials: the noise and the first 99, lexicographic in k
            (100, "73b9a8178bbd949dfa738548fc0d4d8ea838082038b72d4ae54fa69b3aab5fda"),
            # the noise and every monomial, but not the integrated noise
            (287, "60bb504048b7b18c736ec79e56cc902744d1c7662f7349f1fc7bf09ea39c57b6"),
        ],
    )
    def test_cap_inside_seeding_digest(self, cap, digest):
        # pinned from the build that made every seed before admitting any
        params = Parameters.white_noise(2, 2, F(1))
        with pytest.raises(ExplosionError, match="at iteration 0") as exc:
            build(params, BuildConfig(maxh=F(10), cap=cap))
        assert _space_digest(exc.value.partial) == digest


class TestDeterminism:
    def test_rebuild_identical(self):
        params = Parameters.white_noise(3, 3, F(9, 5))
        cfg = BuildConfig(maxh=completeness_threshold(params), iter=64)
        a, b = build(params, cfg), build(params, cfg)
        assert a.generations == b.generations


class TestPersistence:
    def test_round_trip_is_exact(self, spaces, tmp_path):
        ms = spaces(3, 3, F(21, 11))
        data = to_json_dict(ms)
        ms2 = from_json_dict(data)
        assert to_json_dict(ms2) == data
        assert ms2.generations == ms.generations

        path = tmp_path / "space.json"
        save_json(ms, str(path))
        first = path.read_bytes()
        ms3 = load_json(str(path))
        save_json(ms3, str(path))
        assert path.read_bytes() == first

    def test_saved_bytes_pinned(self, spaces, tmp_path):
        """SHA-256 of the (2, 2, 3/4) file as written before the render memo."""
        path = tmp_path / "space.json"
        save_json(spaces(2, 2, F(3, 4)), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f5c693ec71d578a2e558107735adc5109995e54233c668a1a0ab358c911cec51"
        )

    def test_json_pinned_3_3_8_5(self, spaces):
        """SHA-256 of the (3, 3, 8/5) document as written before the trusted
        node constructor and identity hashing of symbols."""
        text = json.dumps(to_json_dict(spaces(3, 3, F(8, 5))), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "aeda1b6046c52129c7a805ae3441391f41883241061dae60276f919055de3ab8"
        )

    def test_load_builds_at_most_two_nodes_per_record(self, spaces, monkeypatch):
        # every I(...) block a record shares with an earlier one is looked
        # up, not rebuilt: 1,778 nodes for 1,354 records (30,481 unshared)
        data = to_json_dict(spaces(2, 2, F(3, 4)))
        calls = []
        make_node = symbols._make_node

        def counted(dec, kids):
            calls.append(dec)
            return make_node(dec, kids)

        monkeypatch.setattr(symbols, "_make_node", counted)
        assert len(from_json_dict(data)) == len(data["symbols"]) == 1354
        assert len(calls) <= 2 * 1354

    @pytest.fixture()
    def render_calls(self, monkeypatch):
        calls = []
        real = symbols.render

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(symbols, "render", counted)
        monkeypatch.setattr(fractree.builder, "render", counted)
        return calls

    def test_dump_makes_at_most_three_render_calls_per_record(self, spaces, render_calls):
        # 3,609 calls for 1,354 records, counting the recursion; 20,396 unshared
        data = to_json_dict(spaces(2, 2, F(3, 4)))
        assert len(data["symbols"]) == 1354
        assert len(render_calls) <= 3 * 1354

    def test_text_makes_at_most_three_render_calls_per_record(self, spaces, render_calls):
        space_json_text(spaces(2, 2, F(3, 4)))
        assert len(render_calls) <= 3 * 1354

    def test_unset_iter_round_trips_as_null(self):
        params = Parameters.white_noise(2, 2, F(1))
        data = to_json_dict(build(params, BuildConfig(maxh=completeness_threshold(params))))
        assert data["config"]["iter"] is None
        assert from_json_dict(json.loads(json.dumps(data))).config.iter is None

    def test_schema_fields(self, spaces):
        data = to_json_dict(spaces(2, 2, F(1)))
        assert data["parameters"] == {
            "N": 2, "d": 2, "rho": "1/1", "alpha0": {"a": "-3/2", "b": -1},
        }
        assert data["complete"] is True and data["aborted"] is False
        rec = data["symbols"][0]
        assert set(rec) == {"symbol", "p", "q", "k", "a", "b", "generation"}
        assert all(isinstance(r["k"], list) and len(r["k"]) == 3 for r in data["symbols"])

    def test_tampering_detected(self, spaces):
        ms = spaces(2, 2, F(1))
        good = to_json_dict(ms)

        bad = json.loads(json.dumps(good))
        bad["symbols"][0]["a"] = "1/1"
        with pytest.raises(ValueError):
            from_json_dict(bad)

        bad = json.loads(json.dumps(good))
        bad["symbols"].append(dict(bad["symbols"][0]))
        with pytest.raises(ValueError):
            from_json_dict(bad)

        bad = json.loads(json.dumps(good))
        bad["complete"] = False
        with pytest.raises(ValueError):
            from_json_dict(bad)

        bad = json.loads(json.dumps(good))
        bad["symbols"][0]["p"] = 9
        with pytest.raises(ValueError):
            from_json_dict(bad)



def _stdlib_text(ms) -> str:
    """The reference for space_json_text: the standard library's indented dump."""
    return json.dumps(to_json_dict(ms), indent=2, sort_keys=True) + "\n"


class TestSpaceJsonText:
    """The stored-space writer has the standard library's bytes."""

    @pytest.mark.parametrize("point", sorted(GRID_COUNTS, key=str))
    def test_grid(self, spaces, point):
        ms = spaces(*point)
        assert space_json_text(ms) == _stdlib_text(ms)

    def test_custom_noise(self):
        ms = build(_CUSTOM, BuildConfig(maxh=completeness_threshold(_CUSTOM)))
        assert len(ms) > 1
        assert space_json_text(ms) == _stdlib_text(ms)

    def test_truncated_build(self, spaces):
        ms = spaces(3, 3, F(17, 10), maxh=F(2), iters=3)
        doc = to_json_dict(ms)
        assert doc["config"]["iter"] == 3 and doc["converged"] is False
        assert space_json_text(ms) == _stdlib_text(ms)

    def test_partial_space(self):
        params = Parameters.white_noise(2, 2, F(3, 4))
        with pytest.raises(ExplosionError) as exc:
            build(params, BuildConfig(maxh=F(5, 8), iter=64, cap=50))
        ms = exc.value.partial
        assert to_json_dict(ms)["aborted"] is True
        assert space_json_text(ms) == _stdlib_text(ms)

    def test_no_symbols(self):
        params = Parameters.white_noise(2, 2, F(1))
        ms = ModelSpace(params, BuildConfig(maxh=F(1, 2)), False, False, {})
        text = space_json_text(ms)
        assert json.loads(text)["symbols"] == []
        assert text == _stdlib_text(ms)

    def test_save_json_writes_it(self, spaces, tmp_path):
        ms = spaces(2, 2, F(4, 5))
        path = tmp_path / "space.json"
        save_json(ms, str(path))
        assert path.read_text(encoding="utf-8") == space_json_text(ms)

def _drop(doc: dict, path: tuple) -> dict:
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return doc


REQUIRED_FIELDS = {
    "parameters": ("parameters",),
    "parameters.N": ("parameters", "N"),
    "parameters.d": ("parameters", "d"),
    "parameters.rho": ("parameters", "rho"),
    "parameters.alpha0": ("parameters", "alpha0"),
    "parameters.alpha0.a": ("parameters", "alpha0", "a"),
    "parameters.alpha0.b": ("parameters", "alpha0", "b"),
    "config": ("config",),
    "config.maxh": ("config", "maxh"),
    "config.iter": ("config", "iter"),
    "config.cap": ("config", "cap"),
    "converged": ("converged",),
    "complete": ("complete",),
    "aborted": ("aborted",),
    "symbols": ("symbols",),
    **{
        f"symbols[2].{key}": ("symbols", 2, key)
        for key in ("symbol", "p", "q", "k", "a", "b", "generation")
    },
}


class TestMalformedJson:
    @pytest.mark.parametrize("name", sorted(REQUIRED_FIELDS))
    def test_missing_field(self, spaces, name):
        bad = _drop(to_json_dict(spaces(2, 2, F(1))), REQUIRED_FIELDS[name])
        with pytest.raises(ValueError, match=re.escape(f"missing field {name!r}")):
            from_json_dict(bad)

    @pytest.mark.parametrize(
        "path,value,name",
        [
            (("parameters", "N"), "2", "parameters.N"),
            (("parameters", "d"), True, "parameters.d"),
            (("parameters", "rho"), "1/0", "parameters.rho"),
            (("config", "maxh"), 1, "config.maxh"),
            (("complete",), 1, "complete"),
            (("symbols",), {}, "symbols"),
            (("symbols", 0), "Xi", "symbols[0]"),
            (("symbols", 1, "generation"), "0", "symbols[1].generation"),
            (("config", "iter"), "8", "config.iter"),
            (("symbols", 1, "generation"), -7, "symbols[1].generation"),
            (("symbols", 0, "k"), [0.0, False, 0], "symbols[0].k"),
            (("symbols", 0, "k"), [0, 0, "0"], "symbols[0].k"),
            # refused before Fraction computes a power of ten with 10^9 digits
            (("parameters", "rho"), "1e-999999999", "parameters.rho"),
            (("parameters", "alpha0", "a"), "1e-999999999", "parameters.alpha0.a"),
            (("config", "maxh"), "1e-999999999", "config.maxh"),
        ],
    )
    def test_mistyped_field(self, spaces, path, value, name):
        bad = to_json_dict(spaces(2, 2, F(1)))
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with alarm(10), pytest.raises(ValueError, match=re.escape(repr(name))):
            from_json_dict(bad)

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            from_json_dict([])


class TestGenerationOf:
    """Generation tags are a function of the symbol, and a load checks them."""

    @pytest.mark.parametrize(
        "point",
        [(N, d, rho, None, 64) for N, d, rho in sorted(GRID_COUNTS, key=str)]
        + sorted(LADDER_DIGESTS, key=str),
        ids=str,
    )
    def test_tags_of_built_spaces(self, spaces, point):
        N, d, rho, maxh, iters = point
        ms = spaces(N, d, rho, maxh=maxh, iters=iters)
        memo: dict = {}
        assert {s: generation_of(s, memo) for s in ms.generations} == ms.generations

    def test_tags_under_custom_noise(self):
        ms = build(_CUSTOM, BuildConfig(maxh=completeness_threshold(_CUSTOM)))
        memo: dict = {}
        assert {s: generation_of(s, memo) for s in ms.generations} == ms.generations

    @pytest.mark.parametrize(
        "text,generation",
        [("1", 0), ("Xi", 0), ("X^(0,1)", 0), ("I(Xi)", 0), ("I(I(Xi))", 1),
         ("I(X^(0,1))", 1), ("I(Xi)^2", 1), ("X^(0,1)*I(Xi)", 1), ("I(I(Xi)^2)", 1),
         ("I(Xi)*I(I(Xi)^2)", 2), ("I(I(I(Xi)))", 2)],
    )
    def test_rounds_by_hand(self, text, generation):
        assert generation_of(parse_symbol(text), {}) == generation

    @pytest.mark.parametrize("shift", [-1, 1, 99])
    def test_tampered_generation_refused(self, spaces, shift):
        doc = to_json_dict(spaces(2, 2, F(3, 4)))
        i = next(i for i, rec in enumerate(doc["symbols"]) if rec["generation"] >= 1)
        rec = doc["symbols"][i]
        rec["generation"] += shift
        with pytest.raises(ValueError, match=re.escape(f"'symbols[{i}].generation'")) as exc:
            from_json_dict(doc)
        assert str(exc.value).startswith("inconsistent symbol record")
        assert repr(rec["symbol"]) in str(exc.value)


# pieces a tampered record may gain: whole tokens, as render writes them
_JSON_TOKENS = ("I(", ")", "Xi", "*", "^2", "1", "X^(0,1,0)")


def _load_outcome(doc: dict):
    """What from_json_dict makes of doc: the space's own JSON, or the message."""
    try:
        return to_json_dict(from_json_dict(doc))
    except ValueError as exc:
        return str(exc)


class TestJsonFuzz:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_parse_memo_changes_no_load_outcome(self, spaces, data):
        doc = to_json_dict(spaces(2, 2, F(1)))
        recs = doc["symbols"]
        rec = recs[data.draw(st.integers(0, len(recs) - 1), label="record")]
        text = rec["symbol"]
        how = data.draw(st.sampled_from(["swap", "insert", "delete", "p", "q", "k"]), label="how")
        if how == "swap":
            other = recs[data.draw(st.integers(0, len(recs) - 1), label="other")]
            rec["symbol"], other["symbol"] = other["symbol"], text
        elif how == "insert":
            at = data.draw(st.integers(0, len(text)), label="at")
            rec["symbol"] = text[:at] + data.draw(st.sampled_from(_JSON_TOKENS)) + text[at:]
        elif how == "delete":
            tokens = [m.span(m.lastindex) for m in symbols._TOKEN.finditer(text)]
            start, end = data.draw(st.sampled_from(tokens), label="token")
            rec["symbol"] = text[:start] + text[end:]
        elif how == "k":
            at = data.draw(st.integers(0, len(rec["k"]) - 1), label="at")
            rec["k"][at] += data.draw(st.sampled_from([-1, 1, 2]))
        else:
            rec[how] += data.draw(st.sampled_from([-1, 1, 2]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fractree.builder, "parse_symbol", lambda text, memo=None: parse_symbol(text))
            fresh = _load_outcome(doc)
        assert _load_outcome(doc) == fresh
