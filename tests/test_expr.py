import importlib
import itertools
import pkgutil
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import demon
from demon import ehe as eh
from demon import expr as ex
from demon.automaton import make_spec
from demon.errors import ParseError
from demon.store import Memory

from conftest import random_expr, random_memory
from helpers import reference_simplify

A, B, C = ex.Var(ex.plain("a")), ex.Var(ex.plain("b")), ex.Var(ex.plain("c"))


def mem(**kv):
    return Memory({ex.plain(k): v for k, v in kv.items()})


def const_leaves(e):
    return ex.bottom_up(e, {}, lambda _: 0, lambda _: 1, lambda n: n, lambda _, l, r: l + r)


class TestEncode:
    def test_timestamp(self):
        e = ex.Or(A, B)
        enc = ex.encode(e, 1)
        assert enc == ex.Or(ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b")))

    def test_timestamp_negated(self):
        assert ex.encode(ex.Not(B), 2) == ex.Not(ex.Var(ex.timed(2, "b")))

    def test_monitor_reference(self):
        e = ex.And(ex.Var(ex.plain("m1")), A)
        enc = ex.encode(e, 3, {"m1"})
        assert enc == ex.And(ex.Var(ex.monref(3, "m1")), ex.Var(ex.timed(3, "a")))

    def test_distinct_rounds_share_no_atoms(self):
        e = ex.Or(A, ex.Not(B))
        a1 = set(ex.atoms_of(ex.encode(e, 1)))
        a2 = set(ex.atoms_of(ex.encode(e, 2)))
        assert not a1 & a2

    def test_stamped_atom_rejected(self):
        for atom in (ex.timed(1, "a"), ex.monref(1, "m1")):
            with pytest.raises(ValueError, match="plain atoms"):
                ex.encode(ex.And(ex.Var(atom), A), 2, {"m1"})


class TestRewrite:
    def test_partial_memory_keeps_unknown_atom(self):
        e = ex.And(ex.Or(A, ex.And(B, C)), C)
        r = ex.rewrite_fold(e, mem(a=ex.BOTTOM))
        assert r == ex.And(ex.And(B, C), C)
        assert r.right is C

    def test_empty_memory_is_identity(self):
        e = ex.And(ex.Or(A, B), C)
        assert ex.rewrite_fold(e, Memory()) is e

    def test_negated_atom(self):
        assert ex.rewrite_fold(ex.Not(A), mem(a=ex.TOP)) is ex.FALSE

    def test_unknown_verdict_not_substituted(self):
        assert ex.rewrite_fold(A, mem(a=ex.UNKNOWN)) is A

    def test_idempotent(self):
        rng = random.Random(7)
        atoms = [ex.plain(n) for n in "abcd"]
        for _ in range(200):
            e = random_expr(rng, atoms)
            m = random_memory(rng, atoms)
            once = ex.rewrite_fold(e, m)
            assert ex.rewrite_fold(once, m) == once


class TestSimplify:
    def test_tautology(self):
        assert ex.simplify(ex.Or(B, ex.Not(B))) == ex.TRUE

    def test_fold_constants(self):
        e = ex.And(ex.Or(ex.TRUE, ex.FALSE), C)
        assert ex.simplify(e) == C

    def test_contradiction(self):
        assert ex.simplify(ex.And(A, ex.Not(A))) == ex.FALSE

    def test_no_constant_leaves(self):
        rng = random.Random(13)
        atoms = [ex.plain(n) for n in "abc"]
        for _ in range(300):
            s = ex.simplify(ex.fold(random_expr(rng, atoms)))
            if s not in (ex.TRUE, ex.FALSE):
                assert const_leaves(s) == 0

    def test_preserves_function(self):
        rng = random.Random(29)
        atoms = [ex.plain(n) for n in "abcd"]
        for _ in range(300):
            e = random_expr(rng, atoms)
            assert ex.equivalent(e, ex.simplify(e))


class TestEval:
    def test_unresolved(self):
        e = ex.And(ex.Or(A, B), C)
        assert ex.eval_expr(e, mem(a=ex.TOP, b=ex.BOTTOM)) is ex.UNKNOWN

    def test_timed(self):
        e = ex.Or(ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b")))
        m = Memory({ex.timed(1, "a"): ex.TOP, ex.timed(1, "b"): ex.BOTTOM})
        assert ex.eval_expr(e, m) is ex.TOP

    def test_constant(self):
        assert ex.eval_expr(ex.TRUE, Memory()) is ex.TOP

    def test_soundness_under_extensions(self):
        # A final eval verdict must agree with every total extension.
        rng = random.Random(3)
        atoms = [ex.plain(n) for n in "abc"]
        checked = 0
        for _ in range(300):
            e = random_expr(rng, atoms)
            m = random_memory(rng, atoms, density=0.5)
            v = ex.eval_expr(e, m)
            if v is ex.UNKNOWN:
                continue
            checked += 1
            free = [a for a in ex.atoms_of(e) if m.get(a) is None]
            import itertools

            for bits in itertools.product((ex.TOP, ex.BOTTOM), repeat=len(free)):
                full = Memory({**dict(m.items()), **dict(zip(free, bits))})
                assert ex.eval_expr(e, full) is v
        assert checked > 20


class TestAtomsDep:
    def test_atoms_sorted_dedup(self):
        e = ex.And(A, ex.Or(A, B))
        assert ex.atoms_of(e) == [ex.plain("a"), ex.plain("b")]

    def test_constants_have_no_atoms(self):
        assert ex.atoms_of(ex.TRUE) == []

    def test_timed_atoms(self):
        e = ex.Or(ex.Var(ex.timed(1, "a")), ex.Var(ex.timed(1, "b")))
        assert ex.atoms_of(e) == [ex.timed(1, "a"), ex.timed(1, "b")]

    def test_dep_with_monitor_context(self):
        e = ex.And(ex.Var(ex.plain("m1")), ex.Var(ex.plain("a0")))
        assert ex.dep(e, {"m1"}) == {"m1"}

    def test_dep_plain_only(self):
        assert ex.dep(ex.Or(A, B)) == set()

    def test_dep_union(self):
        e = ex.Or(ex.Not(ex.Var(ex.plain("m1"))),
                  ex.And(ex.Var(ex.plain("m2")), ex.Var(ex.plain("m1"))))
        assert ex.dep(e, {"m1", "m2"}) == {"m1", "m2"}

    def test_dep_monref_needs_no_context(self):
        assert ex.dep(ex.Var(ex.monref(2, "m7"))) == {"m7"}


class TestEquivalent:
    def test_commutativity(self):
        assert ex.equivalent(ex.Or(A, B), ex.Or(B, A))

    def test_absorption(self):
        assert ex.equivalent(A, ex.And(A, ex.Or(A, B)))

    def test_complement(self):
        assert not ex.equivalent(A, ex.Not(A))

    def test_any_width(self):
        for n in (17, 40):
            xs = [ex.Var(ex.plain(f"x{i}")) for i in range(n)]
            wide = ex.conj_all(xs)
            assert ex.equivalent(wide, ex.conj_all(reversed(xs)))
            assert ex.equivalent(ex.Not(wide), ex.disj_all(ex.Not(x) for x in xs))
            assert not ex.equivalent(wide, ex.conj_all(xs[1:]))


class TestParser:
    def test_precedence(self):
        e = ex.parse_expr("!a && b || c")
        assert e == ex.Or(ex.And(ex.Not(A), B), C)

    def test_parens(self):
        assert ex.parse_expr("!(a || b)") == ex.Not(ex.Or(A, B))

    def test_roundtrip(self):
        # parse . text is the identity on rendered text (structure may
        # re-associate) and preserves the Boolean function
        rng = random.Random(11)
        atoms = [ex.plain(n) for n in "abc"]
        for _ in range(200):
            e = random_expr(rng, atoms)
            back = ex.parse_expr(ex.to_text(e))
            assert ex.to_text(back) == ex.to_text(e)
            assert ex.equivalent(back, e)

    @pytest.mark.parametrize("bad", ["", "a &&", "a || || b", "(a", "a b", "1x"])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            ex.parse_expr(bad)


@st.composite
def exprs(draw, names="abcd"):
    atoms = [ex.plain(n) for n in names]
    node = draw(
        st.recursive(
            st.sampled_from([ex.Var(a) for a in atoms] + [ex.TRUE, ex.FALSE]),
            lambda kids: st.one_of(
                kids.map(ex.Not),
                st.tuples(kids, kids).map(lambda lr: ex.And(*lr)),
                st.tuples(kids, kids).map(lambda lr: ex.Or(*lr)),
            ),
            max_leaves=12,
        )
    )
    return node


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_simplify_equivalence_property(e):
    assert ex.equivalent(e, ex.simplify(e))


@given(exprs("abcdefgh"), exprs("abcdefgh"))
@settings(max_examples=150, deadline=None)
def test_bdd_decisions_match_truth_tables(e1, e2):
    atoms = ex.atoms_of(ex.And(e1, e2))
    t1, t2 = ex.truth_table(e1, atoms), ex.truth_table(e2, atoms)
    full = (1 << (1 << len(atoms))) - 1
    assert ex.decide_constant(e1) is {full: ex.TOP, 0: ex.BOTTOM}.get(t1)
    assert ex.equivalent(e1, e2) == (t1 == t2)


@given(exprs(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_rewrite_idempotence_property(e, seed):
    m = random_memory(random.Random(seed), [ex.plain(n) for n in "abcd"])
    once = ex.rewrite_fold(e, m)
    assert ex.rewrite_fold(once, m) == once


def test_exact_threshold_boundary():
    def wide(n):
        return ex.conj_all(ex.Var(ex.plain(f"x{i}")) for i in range(n))

    assert ex.equivalent(wide(16), wide(16))
    assert ex.simplify(ex.Or(wide(16), ex.Not(wide(16)))) is ex.TRUE
    # Above EXACT_ATOMS simplify only folds; the decisions stay exact.
    w = wide(17)
    assert ex.equivalent(w, w)
    assert isinstance(ex.simplify(ex.Or(w, ex.Not(w))), ex.Or)
    assert ex.decide_constant(ex.Or(w, ex.Not(w))) is ex.TOP


def test_wide_parity_tautology_decided():
    xs = [ex.Var(ex.plain(f"x{i}")) for i in range(20)]
    parity = xs[0]
    for x in xs[1:]:
        parity = ex.Or(ex.And(parity, ex.Not(x)), ex.And(ex.Not(parity), x))
    assert ex.eval_expr(ex.Or(parity, ex.Not(parity)), Memory()) is ex.TOP
    assert ex.eval_expr(ex.And(parity, ex.Not(parity)), Memory()) is ex.BOTTOM
    assert ex.eval_expr(parity, Memory()) is ex.UNKNOWN


def test_decision_deeper_than_recursion_limit():
    w = ex.conj_all(ex.Var(ex.plain(f"x{i}")) for i in range(1500))
    assert ex.decide_constant(ex.Or(w, ex.Not(w))) is ex.TOP


@pytest.mark.parametrize("name", ["x{}", "x{:04d}"])
def test_decision_on_long_chain_is_fast(name):
    # A left-nested conjunction whose newest atom is last in variable order
    # (zero-padded names) once cost a copy of the diagram per atom: seconds.
    w = ex.conj_all(ex.Var(ex.plain(name.format(i))) for i in range(1500))
    start = time.perf_counter()
    assert ex.decide_constant(ex.Or(w, ex.Not(w))) is ex.TOP
    assert ex.decide_constant(ex.And(w, ex.Not(w))) is ex.BOTTOM
    assert ex.decide_constant(w) is None
    assert time.perf_counter() - start < 1.0


def test_deep_expressions_do_not_overflow():
    # chains far deeper than the interpreter recursion limit
    deep = ex.Var(ex.plain("x0"))
    for i in range(1, 5000):
        deep = ex.Or(ex.And(deep, ex.Var(ex.plain(f"x{i % 40}"))), ex.Var(ex.plain("y")))
    assert ex.tree_size(deep) == (9999, 9998)
    assert ex.rewrite_fold(deep, Memory()) is deep
    m = mem(y=ex.TOP)
    assert ex.eval_expr(deep, m) is ex.TOP  # y short-circuits every level
    folded = ex.fold(deep)
    assert ex.eval_expr(folded, m) is ex.TOP
    text = ex.to_text(deep)
    assert text.startswith("(" * 4998 + "x0 && x1 || y) && x2 || y)")
    assert text.endswith(") && x39 || y")
    assert len(text) == len("x0") + sum(len(f"( && x{i % 40} || y)") for i in range(1, 5000)) - 2
    spec = make_spec(["q"], "q", [("q", "true", "q")], {"q": "unknown"})
    assert eh.dump(eh.EHE(spec, {0: {"q": deep}})) == f"t\tq\te\n0\tq\t{text}"


def cover_cases():
    """Every non-constant table at k <= 3, and seeded random ones at k = 4..8."""
    for k in range(1, 4):
        for table in range(1, (1 << (1 << k)) - 1):
            yield table, k
    rng = random.Random(77)
    for k in range(4, 9):
        full = (1 << (1 << k)) - 1
        for _ in range(10):
            table = rng.randrange(1, full)
            yield table, k


def test_qm_cover_cache_matches_uncached_cover():
    for table, k in cover_cases():
        atoms = [ex.plain(f"x{i}") for i in range(k)]
        terms = ex.qm_cover(table, k)
        assert terms == ex.qm_cover.__wrapped__(table, k), (table, k)
        assert ex.qm_cover(table, k) is terms
        assert isinstance(terms, tuple) and all(isinstance(t, tuple) for t in terms)
        dnf = ex._dnf_from_cover(terms, atoms)
        assert ex._cover_size(terms) == ex.tree_size(dnf), (table, k)
        assert ex.truth_table(dnf, atoms) == table


def test_truth_table_columns_cached_per_atom_count():
    atoms = [ex.plain(f"x{i}") for i in range(3)]
    assert ex._columns(3) is ex._columns(3)
    assert [ex.truth_table(ex.Var(a), atoms) for a in atoms] == [0b10101010, 0b11001100,
                                                                  0b11110000]


def test_atoms_of_on_deep_chain():
    deep = ex.Var(ex.plain("x0"))
    for i in range(1, 10_000):
        deep = ex.And(deep, ex.Var(ex.plain(f"x{i % 40}")))
    exact = set(ex.atoms_of(deep))
    assert len(exact) == 40
    assert ex.atom_set(deep) == exact
    narrow = ex.Var(ex.plain("x0"))
    for i in range(1, 10_000):
        narrow = ex.And(narrow, ex.Var(ex.plain(f"x{i % 8}")))
    for bound in (ex.DNF_ATOMS, ex.EXACT_ATOMS):
        assert ex.simplify(deep, bound) is deep
        assert ex.simplify(narrow, bound) == reference_simplify(narrow, bound)


@st.composite
def dags(draw):
    """Expressions over 1-24 atoms of all three kinds, grown one node at a
    time over the latest node.  A binary node takes as its other child the
    next unused atom or any earlier node, so subtrees are shared and the atom
    count reaches past ``EXACT_ATOMS``.  About half are built with the
    folding constructors; the others with the raw ones, plus inner
    constants, double negations and connectives over one child object."""
    n = draw(st.integers(1, 24))
    kinds = (lambda i: ex.timed(i % 3, f"p{i}"), lambda i: ex.monref(i % 2, f"m{i}"),
             lambda i: ex.plain(f"a{i}"))
    unused = [ex.Var(kinds[draw(st.integers(0, 2))](i)) for i in range(n)]
    pool = [unused.pop()]
    raw = draw(st.booleans())
    make = {"and": ex.And, "or": ex.Or, "not": ex.Not} if raw else \
        {"and": ex.conj, "or": ex.disj, "not": ex.neg}
    ops = ["and", "or", "not"] + (["const", "notnot", "same"] if raw else [])
    for _ in range(draw(st.integers(0, 3 * n + 4))):
        x = pool[-1]
        op = draw(st.sampled_from(ops))
        if op in ("and", "or"):
            fresh = unused and draw(st.integers(0, 3)) > 0
            y = unused.pop() if fresh else pool[draw(st.integers(0, len(pool) - 1))]
            node = make[op](x, y)
        elif op == "not":
            node = make[op](x)
        elif op == "const":
            node = draw(st.sampled_from([ex.And, ex.Or]))(x, draw(st.sampled_from([ex.TRUE, ex.FALSE])))
        elif op == "notnot":
            node = ex.Not(ex.Not(x))
        else:
            node = ex.And(x, x) if draw(st.booleans()) else ex.Or(x, x)
        pool.append(node)
    return pool[-1]


@given(st.one_of(dags(), exprs(), exprs("abcdefgh")))
@settings(max_examples=400, deadline=None)
def test_simplify_matches_four_walk_reference(e):
    f = ex.fold(e)
    for bound in (ex.DNF_ATOMS, ex.EXACT_ATOMS):
        expected = reference_simplify(f, bound)
        got = ex.simplify(f, bound)
        assert got == expected
        assert (got is f) == (expected is f)
    assert ex.simplify(f) == got


def test_folded_small_input_is_walked_once(monkeypatch):
    a, b, c, d = (ex.Var(ex.timed(1, n)) for n in "abcd")
    rebuilt = ex.Or(ex.And(a, b), ex.And(ex.And(a, b), c))
    kept = ex.And(ex.Or(a, b), ex.Or(c, d))  # its sum of products is larger
    octet = ex.conj_all(ex.Var(ex.plain(f"x{i}")) for i in range(8))
    cases = [rebuilt, kept, ex.Or(b, ex.Not(b)), ex.And(ex.Not(c), c), octet]
    expected = [reference_simplify(e) for e in cases]
    for name in ("fold", "atoms_of", "truth_table", "tree_size"):
        monkeypatch.setattr(ex, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    assert [ex.simplify(e) for e in cases] == expected
    assert expected[0] == ex.And(a, b) and expected[1] is kept
    assert expected[2:4] == [ex.TRUE, ex.FALSE]


def test_folded_input_of_any_width_skips_reference_walks(monkeypatch):
    def wide(n):
        return ex.conj_all(ex.Var(ex.timed(i % 3, f"x{i}")) for i in range(n))

    cases = []
    for n in (8, 12, 16, 17, 30):  # up to DNF_ATOMS, up to EXACT_ATOMS, above
        w = wide(n)
        cases += [ex.disj(w, ex.neg(w)), ex.conj(w, ex.neg(w)), ex.disj(w.left, ex.neg(w.right))]
    assert all(ex.fold(e) is e for e in cases)
    expected = [reference_simplify(e) for e in cases]
    for name in ("fold", "atoms_of", "truth_table"):
        monkeypatch.setattr(ex, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    got = [ex.simplify(e) for e in cases]
    assert got == expected
    assert [g is e for g, e in zip(got, cases)] == [x is e for x, e in zip(expected, cases)]
    assert got[3:9] == [ex.TRUE, ex.FALSE, cases[5], ex.TRUE, ex.FALSE, cases[8]]
    assert got[9:] == cases[9:]  # above EXACT_ATOMS: returned as given


def test_variable_sort_matches_truth_table_over_every_order():
    rng = random.Random(5)
    pool = [ex.monref(1, "m"), ex.timed(2, "a"), ex.plain("z"), ex.timed(1, "b"), ex.plain("c")]
    for k in range(1, 6):
        atoms = pool[:k]
        ordered = sorted(atoms, key=ex.Atom.sort_key)
        for e in [random_expr(rng, atoms, depth=5) for _ in range(4)]:
            want = ex.truth_table(e, ordered)
            for order in itertools.permutations(atoms):
                got = ex._sort_variables(ex.truth_table(e, list(order)), list(order))
                assert got == (want, ordered), (k, order)


def test_every_module_cache_is_bounded():
    # A cache that outlives a run must not grow with the runs a process makes.
    sizes = {}
    for info in pkgutil.iter_modules(demon.__path__):
        module = importlib.import_module(f"demon.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert {"expr.plain", "expr.timed", "expr.monref", "expr.qm_cover",
            "ltl.synthesize"} <= set(sizes)
    assert all(size is not None for size in sizes.values()), sizes


def test_evicted_atoms_come_back_equal():
    # Atoms compare by value, so an atom made again after its cache entry
    # is gone is interchangeable with the one made before.
    before = ex.timed(7, "a"), ex.monref(7, "m1"), ex.plain("a")
    for cached in (ex.timed, ex.monref, ex.plain):
        cached.cache_clear()
    after = ex.timed(7, "a"), ex.monref(7, "m1"), ex.plain("a")
    assert after == before and all(x is not y for x, y in zip(after, before))
    assert {ex.Var(x) for x in before} == {ex.Var(x) for x in after}
    assert ex.eval_expr(ex.Var(after[0]), {before[0]: ex.TOP}) is ex.TOP
