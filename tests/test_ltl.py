import hashlib
import itertools
import json
import random
import time

import pytest

from demon import analysis as an
from demon import engine as en
from demon import expr as ex
from demon import ltl as lt
from demon.automaton import spec_to_dict, validate, verdict_equivalent
from demon.errors import IncompleteEvent, NoAtomicPropositions, ParseError
from demon.store import Memory

from helpers import centralized_as_decentralized, enumerate_full_traces

T, B = ex.TOP, ex.BOTTOM
OWNER = {"a0": "c0", "a1": "c0", "b0": "c1", "b1": "c1"}


def pmem(**kv):
    return Memory({ex.plain(k): v for k, v in kv.items()})


class TestParser:
    def test_precedence(self):
        phi = lt.parse_ltl("a && b U c || d")
        assert phi == lt.LOr(
            lt.Until(lt.LAnd(lt.Prop("a"), lt.Prop("b")), lt.Prop("c")), lt.Prop("d")
        )

    def test_unary(self):
        assert lt.parse_ltl("G F a") == lt.Globally(lt.Finally(lt.Prop("a")))
        assert lt.parse_ltl("! X a") == lt.LNot(lt.Next(lt.Prop("a")))

    def test_roundtrip(self):
        for text in ["F (a || b)", "G (a && !b)", "a U (b || c)", "(a U b) U c",
                     "X (a && (b U c))", "!a || F b"]:
            phi = lt.parse_ltl(text)
            assert lt.parse_ltl(lt.ltl_text(phi)) == phi

    def test_errors(self):
        for bad in ["", "a U", "F", "a &&", "(a"]:
            with pytest.raises(ParseError):
                lt.parse_ltl(bad)

    def test_shares_the_expression_lexer(self):
        for bad in ["a $ b", "a & b", "a | b", "1a", "a -> b"]:
            with pytest.raises(ParseError):
                lt.parse_ltl(bad)
            with pytest.raises(ParseError):
                ex.parse_expr(bad)


class TestCanonicalSimplification:
    # More than ex.DNF_ATOMS distinct leaves, so the Boolean level is folded
    # rather than rebuilt from its truth table.  It holds a repeated leaf, the
    # constants, double negations, a leaf that simplifies to a constant
    # (F true, G false) and one that simplifies to a Boolean level (false U ...).
    FOLDED = (
        "F a0 && F a0 || G a1 && true || !!X a2 || F a3 && false || a4 U a5 || F a6 && G a7"
        " || !F a8 || X a9 || G (a10 || a11) || F a12 || a13 || !!a14 || !(false || !G a15)"
        " || (false U (b0 || !b1)) && F true || G false"
    )

    def test_folded_boolean_level_pinned(self):
        out = lt.simplify_ltl(lt.parse_ltl(self.FOLDED))
        assert lt.ltl_text(out) == (
            "F a0 && F a0 || G a1 || X a2 || a4 U a5 || F a6 && G a7 || !F a8 || X a9"
            " || G (a10 || a11) || F a12 || a13 || a14 || G a15 || b0 || !b1"
        )

    @pytest.mark.parametrize("k", [8, 12])
    def test_nested_temporal_leaves_simplified_once(self, k, monkeypatch):
        # F (a0 || F (a1 || ... F a(k-1))): every leaf is simplified once, so
        # the work is linear in the nesting depth.
        phi = lt.Finally(lt.Prop(f"a{k - 1}"))
        for i in reversed(range(k - 1)):
            phi = lt.Finally(lt.LOr(lt.Prop(f"a{i}"), phi))
        real = lt.simplify_ltl
        calls = []
        monkeypatch.setattr(lt, "simplify_ltl", lambda p: calls.append(p) or real(p))
        lt.simplify_ltl(phi)
        assert len(calls) <= 3 * k, len(calls)


# SHA-256 of the JSON of spec_to_dict(synthesize(phi)), one formula per
# random_formula shape and one that nests a Next and an Until.  A state's name
# is its formula text, so any change to the canonical form shows here.
SYNTHESIZED_SHA256 = {
    "F (a4 || a1 || a3)": "03fd1b4e7ead5b0fd8152ea16a7217217c5e07a605f9daa6a8c4a4efcde3cf03",
    "F (a2 && a5 && a1)": "3dfb41e09758ff126bda5050e75a474c00a3f7aadc12b5fba98a7a3ad1e0be66",
    "F a1 && F a3 && F a4": "646e48da1c3bc8908dbf3bc52e7a0b4ea55a0084f0f5abe8a545fec7ce3e95e8",
    "(a5 || a0) U a2": "a8875af3fa0129054f45cdc7bd751959c7a88c284bf957f28ade76e6f7dd9553",
    "X (a0 U (a1 && X a2))": "f4fd98b813c797ff0efd52e9b0d1d4d3a209a21bafacca6d7656670749367559",
}


class TestSynthesizedSpecsPinned:
    @pytest.mark.parametrize("text", sorted(SYNTHESIZED_SHA256))
    def test_spec_pinned(self, text):
        d = spec_to_dict(lt.synthesize(lt.parse_ltl(text)))
        digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
        assert digest == SYNTHESIZED_SHA256[text]

    def test_single_successor_label_is_true(self):
        d = spec_to_dict(lt.synthesize(lt.parse_ltl("X F a0")))
        assert d == {
            "initial": "X F a0",
            "states": ["X F a0", "F a0", "true"],
            "transitions": [
                {"from": "X F a0", "label": "true", "to": "F a0"},
                {"from": "F a0", "label": "!a0", "to": "F a0"},
                {"from": "F a0", "label": "a0", "to": "true"},
                {"from": "true", "label": "true", "to": "true"},
            ],
            "verdicts": {"X F a0": "unknown", "F a0": "unknown", "true": "top"},
        }


class TestProgress:
    def test_disjunct_satisfied(self):
        phi = lt.parse_ltl("F (a || b)")
        assert lt.progress(phi, pmem(a=T, b=B)) == lt.LTRUE

    def test_obligation_unchanged(self):
        phi = lt.parse_ltl("F (a || b)")
        assert lt.progress(phi, pmem(a=B, b=B)) == lt.simplify_ltl(phi)

    def test_invariant_maintained(self):
        phi = lt.parse_ltl("G a")
        assert lt.progress(phi, pmem(a=T)) == phi
        assert lt.progress(phi, pmem(a=B)) == lt.LFALSE

    def test_next(self):
        phi = lt.parse_ltl("X a")
        assert lt.progress(phi, pmem(a=B)) == lt.Prop("a")

    def test_until(self):
        phi = lt.parse_ltl("a U b")
        assert lt.progress(phi, pmem(a=T, b=B)) == lt.simplify_ltl(phi)
        assert lt.progress(phi, pmem(a=B, b=T)) == lt.LTRUE
        assert lt.progress(phi, pmem(a=B, b=B)) == lt.LFALSE

    def test_incomplete_memory_rejected(self):
        with pytest.raises(IncompleteEvent):
            lt.progress(lt.parse_ltl("a && b"), pmem(a=T))


class TestSynthesize:
    def test_fig1_shape(self):
        aut = lt.synthesize(lt.parse_ltl("F (a || b)"))
        assert len(aut.states) == 2
        assert validate(aut).ok
        verdicts = sorted(v.value for v in aut.verdicts.values())
        assert verdicts == ["top", "unknown"]

    def test_fig1_verdict_equivalent(self, fig1):
        aut = lt.synthesize(lt.parse_ltl("F (a || b)"))
        d1 = centralized_as_decentralized(aut)
        d2 = centralized_as_decentralized(fig1)
        traces = enumerate_full_traces({"a": "sys", "b": "sys"}, ("sys",), 4)
        assert verdict_equivalent(d1, d2, traces) is None

    def test_fig2_verdict_equivalent(self, fig2):
        aut = lt.synthesize(lt.parse_ltl("F (a && b)"))
        d1 = centralized_as_decentralized(aut)
        d2 = centralized_as_decentralized(fig2)
        traces = enumerate_full_traces({"a": "sys", "b": "sys"}, ("sys",), 4)
        assert verdict_equivalent(d1, d2, traces) is None

    def test_gfa_not_monitorable(self):
        aut = lt.synthesize(lt.parse_ltl("G F a"))
        assert all(not v.is_final for v in aut.verdicts.values())
        assert not an.ca_monitorable(aut)[0]

    def test_always_valid(self):
        rng = random.Random(53)
        for _ in range(40):
            phi = _random_formula(rng, ["a", "b", "c"], depth=3)
            aut = lt.synthesize(phi)
            assert validate(aut).ok

    @pytest.mark.parametrize("text", sorted(SYNTHESIZED_SHA256))
    def test_equal_formulas_share_one_automaton(self, text):
        # Synthesis is cached by the formula's value: a formula parsed again
        # from its own text gives the same automaton, equal to a fresh one.
        phi = lt.parse_ltl(text)
        again = lt.parse_ltl(lt.ltl_text(phi))
        assert again == phi and again is not phi
        aut = lt.synthesize(phi)
        assert lt.synthesize(again) is aut
        fresh = lt.synthesize.__wrapped__(phi)
        assert fresh is not aut and fresh == aut
        assert spec_to_dict(fresh) == spec_to_dict(aut)

    def test_state_cap(self):
        deep = lt.parse_ltl("a U (b U (c U (d U (e U f))))")
        with pytest.raises(lt.StateCapExceeded):
            lt.synthesize(deep, state_cap=2)

    def test_progression_matches_run(self):
        # Progression reaching a constant must land the automaton in the
        # matching final state, and conversely, on every prefix.
        rng = random.Random(71)
        for _ in range(30):
            phi = _random_formula(rng, ["a", "b"], depth=3)
            aut = lt.synthesize(phi)
            for bits in itertools.product((T, B), repeat=4):
                current = lt.simplify_ltl(phi)
                q = aut.initial
                for i in range(0, 4, 2):
                    m = pmem(a=bits[i], b=bits[i + 1])
                    current = lt.progress(current, m)
                    from demon.store import Event

                    q = run_one(aut, q, bits[i], bits[i + 1])
                    assert (current == lt.LTRUE) == (aut.verdicts[q] is T)
                    assert (current == lt.LFALSE) == (aut.verdicts[q] is B)

    def test_wide_boolean_level_folded_quickly(self):
        # Twelve distinct temporal leaves, more than ex.DNF_ATOMS: the Boolean
        # level is folded, not covered (a 12-leaf cover took seconds), and the
        # automaton still agrees with progression on every prefix.
        phi = lt.parse_ltl(
            "X a && F b || G a && X b || (a U b) && F a || !G b && X X a"
            " || (b U a) && X X b || F (a && b) && G (a || b)"
        )
        start = time.perf_counter()
        lt.simplify_ltl(phi)
        assert time.perf_counter() - start < 0.5
        aut = lt.synthesize(phi)
        rng = random.Random(12)
        for _ in range(40):
            current = lt.simplify_ltl(phi)
            q = aut.initial
            for _ in range(6):
                va, vb = rng.choice((T, B)), rng.choice((T, B))
                current = lt.progress(current, pmem(a=va, b=vb))
                q = run_one(aut, q, va, vb)
                assert (current == lt.LTRUE) == (aut.verdicts[q] is T)
                assert (current == lt.LFALSE) == (aut.verdicts[q] is B)


def run_one(aut, q, va, vb):
    from demon.automaton import step
    from demon.store import Event

    return step(aut, q, Event.of(("a", va), ("b", vb)))


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return lt.Prop(rng.choice(names))
    kind = rng.choice(["not", "and", "or", "X", "F", "G", "U"])
    if kind == "not":
        return lt.LNot(_random_formula(rng, names, depth - 1))
    if kind == "X":
        return lt.Next(_random_formula(rng, names, depth - 1))
    if kind == "F":
        return lt.Finally(_random_formula(rng, names, depth - 1))
    if kind == "G":
        return lt.Globally(_random_formula(rng, names, depth - 1))
    left = _random_formula(rng, names, depth - 1)
    right = _random_formula(rng, names, depth - 1)
    if kind == "and":
        return lt.LAnd(left, right)
    if kind == "or":
        return lt.LOr(left, right)
    return lt.Until(left, right)


class TestScoreChooseSplit:
    def test_score_counts_occurrences(self):
        phi = lt.parse_ltl("a0 && a0 && b0")
        assert lt.score(phi, "c0", OWNER) == 2
        assert lt.score(phi, "c1", OWNER) == 1
        assert lt.score(lt.LTRUE, "c0", OWNER) == 0

    def test_choose_majority(self):
        assert lt.choose(lt.parse_ltl("a0 && a0 && b0"), OWNER) == "c0"

    def test_choose_tie_lexicographic(self):
        assert lt.choose(lt.parse_ltl("a0 || b0"), OWNER) == "c0"
        assert lt.choose(lt.parse_ltl("b0 || a0"), OWNER) == "c0"

    def test_choose_single(self):
        assert lt.choose(lt.parse_ltl("F b0"), OWNER) == "c1"

    def test_choose_requires_props(self):
        with pytest.raises(NoAtomicPropositions):
            lt.choose(lt.LTRUE, OWNER)

    def test_split_both_local(self):
        l, r = lt.parse_ltl("a0"), lt.parse_ltl("a1")
        assert lt.split(l, r, "c0", OWNER) == ("c0", "c0")

    def test_split_left_foreign(self):
        l, r = lt.parse_ltl("b0"), lt.parse_ltl("a0")
        assert lt.split(l, r, "c0", OWNER) == ("c1", "c0")

    def test_split_both_foreign_left_stronger_on_base(self):
        # Left scores higher on the base component, so the right side moves.
        l = lt.parse_ltl("b0 && b1 && a0")  # choose c1, score on c0 = 1
        r = lt.parse_ltl("b0 && b1")  # choose c1, score on c0 = 0
        assert lt.split(l, r, "c0", OWNER) == ("c0", "c1")


def _deps(tree):
    """Monitor dependency edges (referrer, referenced) of the assembled tree."""
    dspec = en.assemble_choreography(tree, ("c0", "c1"), OWNER)
    return set(an.mdg(dspec).edges)


class TestNetChor:
    def test_simple_split(self):
        tree = lt.net_chor(lt.parse_ltl("F (a0 || b0)"), OWNER)
        assert tree.root.id == 0 and tree.root.component == "c0"
        assert len(tree.extras) == 1 and tree.extras[0].component == "c1"
        assert _deps(tree) == {("m0", "m1")}
        assert lt.MonPlaceholder(1) in _leaves(tree.root.formula)

    def test_single_component_no_split(self):
        tree = lt.net_chor(lt.parse_ltl("F (a0 && a1)"), OWNER)
        assert tree.extras == () and _deps(tree) == set()

    def test_two_sided_split(self):
        tree = lt.net_chor(lt.parse_ltl("(a0 && a1) || (b0 && b1)"), OWNER)
        assert len(tree.extras) == 1 and len(_deps(tree)) == 1

    def test_edge_count_equals_splits(self):
        rng = random.Random(61)
        for _ in range(40):
            phi = _random_formula(rng, list(OWNER), depth=3)
            if not lt.prop_occurrences(phi):
                continue
            tree = lt.net_chor(phi, OWNER)
            placeholders = [
                (f"m{m.id}", f"m{p.ref}") for m in tree.all_monitors()
                for p in _leaves(m.formula) if isinstance(p, lt.MonPlaceholder)
            ]
            # every delegated subformula leaves exactly one placeholder behind
            assert sorted(ref for _, ref in placeholders) == sorted(
                f"m{m.id}" for m in tree.extras)
            assert _deps(tree) == set(placeholders)

    def test_monitor_formulas_are_local(self):
        rng = random.Random(67)
        for _ in range(40):
            phi = _random_formula(rng, list(OWNER), depth=3)
            if not lt.prop_occurrences(phi):
                continue
            tree = lt.net_chor(phi, OWNER)
            for m in tree.all_monitors():
                for name in lt.prop_occurrences(m.formula):
                    assert OWNER[name] == m.component

    def test_requires_props(self):
        with pytest.raises(NoAtomicPropositions):
            lt.net_chor(lt.LTRUE, OWNER)


def _leaves(phi):
    out = []

    def go(n):
        if isinstance(n, (lt.Prop, lt.MonPlaceholder)):
            out.append(n)
        elif isinstance(n, (lt.LNot, lt.Next, lt.Finally, lt.Globally)):
            go(n.operand)
        elif isinstance(n, (lt.LAnd, lt.LOr, lt.Until)):
            go(n.left)
            go(n.right)

    go(phi)
    return out
