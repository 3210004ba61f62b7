import dataclasses
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
from demon.errors import ParseError, SpecificationError
from demon.store import Memory

from conftest import random_expr, random_memory
from helpers import dump, fresh_copy, reference_simplify, tree_size

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


@pytest.mark.parametrize("atom, key, text", [
    (ex.plain("a0"), (0, 0, "a0"), "a0"),
    (ex.timed(3, "a0"), (1, 3, "a0"), "<3,a0>"),
    (ex.monref(2, "m1"), (2, 2, "m1"), "<2,&m1>"),
])
def test_atom_contract(atom, key, text):
    # The hash is the one a frozen dataclass of the same fields gives, so set
    # and dict orders, and every digest, stay as they were.
    assert hash(atom) == hash((atom.kind, atom.t, atom.name))
    assert atom.sort_key() == key and str(atom) == text
    assert repr(atom) == f"Atom(kind={atom.kind!r}, t={atom.t!r}, name={atom.name!r})"
    assert atom == ex.Atom(atom.kind, atom.t, atom.name)
    for field, value in (("t", 9), ("name", "z"), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(atom, field, value)
    assert atom.t == key[1] and atom.name == key[2]


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

    @pytest.mark.parametrize("nest", [lambda n: "(" * n + "a" + ")" * n,
                                      lambda n: "!" * n + "a",
                                      lambda n: "!(" * (n // 2) + "a" + ")" * (n // 2)],
                             ids=["parentheses", "negations", "both"])
    def test_nesting_bound(self, nest):
        assert ex.atoms_of(ex.parse_expr(nest(ex.MAX_NESTING))) == [ex.plain("a")]
        with pytest.raises(SpecificationError, match=f"more than {ex.MAX_NESTING} levels"):
            ex.parse_expr(nest(ex.MAX_NESTING + 2) + " || b")
        with pytest.raises(SpecificationError, match=f"more than {ex.MAX_NESTING} levels"):
            ex.parse_expr("b && (" + nest(ex.MAX_NESTING) + ")")


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
    # Conditions this small are decided by their tables, so the diagram is
    # checked on its own as well.
    atoms = ex.atoms_of(ex.And(e1, e2))
    t1, t2 = ex.truth_table(e1, atoms), ex.truth_table(e2, atoms)
    full = (1 << (1 << len(atoms))) - 1
    assert ex.decide_constant(e1) is {full: ex.TOP, 0: ex.BOTTOM}.get(t1)
    assert ex.equivalent(e1, e2) == (t1 == t2)
    root = ex._Bdd(e1).root
    assert (root == 1, root == 0) == (t1 == full, t1 == 0)
    xor = ex.Or(ex.And(e1, ex.Not(e2)), ex.And(ex.Not(e1), e2))
    assert (ex._Bdd(xor).root == 0) == (t1 == t2)


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
    # Chains nested either way and a balanced tree build in near-linear time.
    xs = [ex.Var(ex.plain(name.format(i))) for i in range(1500)]
    right = xs[-1]
    for x in reversed(xs[:-1]):
        right = ex.And(x, right)
    level = xs[:1024]
    while len(level) > 1:
        level = [ex.And(l, r) for l, r in zip(level[::2], level[1::2])]
    for w in (ex.conj_all(xs), right, level[0]):
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
    assert tree_size(deep) == (9999, 9998)
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
    assert dump(eh.EHE(spec, {0: {"q": deep}})) == f"t\tq\te\n0\tq\t{text}"


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
        assert ex._cover_size(terms) == tree_size(dnf), (table, k)
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
    for name in ("fold", "atoms_of", "truth_table"):
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


def _fold_fixpoint(rng, k):
    """A fold fixpoint over exactly ``k`` atoms: each atom is one leaf, and
    random folding constructors join the leaves, sometimes with an earlier
    node again, so subtrees are shared."""
    nodes = [ex.Var(ex.timed(i % 3, f"p{i}")) for i in range(k)]
    built = []
    while len(nodes) > 1:
        rng.shuffle(nodes)
        x, y = nodes.pop(), nodes.pop()
        node = rng.choice((ex.conj, ex.disj))(ex.neg(x) if rng.random() < 0.3 else x, y)
        if built and rng.random() < 0.2:
            node = rng.choice((ex.conj, ex.disj))(node, rng.choice(built))
        built.append(node)
        nodes.append(node)
    return ex.neg(nodes[0]) if rng.random() < 0.3 else nodes[0]


@pytest.mark.parametrize("lo, hi", [(1, ex.DNF_ATOMS), (ex.DNF_ATOMS + 1, ex.EXACT_ATOMS),
                                    (ex.EXACT_ATOMS + 1, 30)])
def test_recorded_facts_keep_every_simplify_result(lo, hi):
    # simplify records on a node that it has more than DNF_ATOMS atoms (wide)
    # or that it is its own result at the full bound (settled), and answers
    # later calls from those facts.  Every call must give what the four-walk
    # reference gives on a fact-free copy, and the facts must not show in the
    # node's value.
    rng = random.Random(lo)
    for _ in range(40):
        e = _fold_fixpoint(rng, rng.randint(lo, hi))
        assert ex.fold(e) is e
        bounds = [ex.DNF_ATOMS, ex.EXACT_ATOMS, rng.randint(1, ex.DNF_ATOMS - 1),
                  rng.randint(ex.DNF_ATOMS + 1, ex.EXACT_ATOMS - 1)]
        rng.shuffle(bounds)
        for bound in bounds * 2:  # the second pass reads what the first recorded
            copy = fresh_copy(e)
            assert not (copy.wide or copy.settled)
            expected = reference_simplify(copy, bound)
            got = ex.simplify(e, bound)
            assert got == expected
            assert (got is e) == (expected is copy)
            # simplify's own result, a rebuilt sum of products included, is
            # its own result again: the very object, not a fresh copy
            again = ex.simplify(got, bound)
            assert again is got and again == reference_simplify(fresh_copy(got), bound)
        copy = fresh_copy(e)
        assert e.wide == (len(ex.atom_set(e)) > ex.DNF_ATOMS)
        assert e.settled == (not ex._is_literal(e) and reference_simplify(copy) is copy)
        assert e == copy and hash(e) == hash(copy) and repr(e) == repr(copy)
        assert dataclasses.fields(e) == dataclasses.fields(copy)


def test_recorded_fact_answers_without_a_walk(monkeypatch):
    # Once recorded, a fact decides the calls it covers with no walk and no
    # atom count: settled nodes under every bound, wide ones under bounds up
    # to DNF_ATOMS.
    def chain(n):
        return ex.conj_all(ex.Var(ex.plain(f"x{i}")) for i in range(n))

    a, b, c, d = (ex.Var(ex.plain(n)) for n in "abcd")
    kept = ex.And(ex.Or(a, b), ex.Or(c, d))  # its sum of products is larger
    settled = [kept, chain(12), chain(20)]
    tautology = ex.Or(chain(12), ex.Not(chain(12)))  # decided only at 9-16 atoms
    assert [ex.simplify(e) for e in settled] == settled
    assert ex.simplify(tautology, ex.DNF_ATOMS) is tautology
    assert ex.simplify(tautology, 11) is tautology  # 12 atoms, over the bound: no fact
    assert all(e.settled for e in settled)
    assert tautology.wide and not tautology.settled
    for name in ("_walk", "atom_set"):
        monkeypatch.setattr(ex, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    for bound in range(1, ex.EXACT_ATOMS + 1):
        assert all(ex.simplify(e, bound) is e for e in settled)
    for bound in range(1, ex.DNF_ATOMS + 1):
        assert ex.simplify(tautology, bound) is tautology


def _unsampled_minterm(k, row):
    """A conjunction of one literal for each of ``k`` > ``SAMPLED_ATOMS``
    atoms that no sampled row satisfies: the exact literals hold at sampled
    row ``row`` only, and the first sampled one fails there."""
    lits = []
    for i in range(k):
        x = ex.Var(ex.plain(f"x{i:02d}"))
        holds = bool(ex._SAMPLED_COLUMNS[i] >> row & 1) == (i < ex.SAMPLED_ATOMS)
        lits.append(x if holds else ex.Not(x))
    return ex.conj_all(lits)


@pytest.mark.parametrize("k", [10, 12, ex.EXACT_ATOMS])
def test_sparse_wide_function_is_walked_again_exactly(k, monkeypatch):
    # The sampled rows of these functions all read one value, although the
    # functions are not constant: simplify must walk them again over exact
    # columns and give what the exact reference gives.  A tautology or a
    # contradiction reads constant on every row, so it takes the same path.
    one = _unsampled_minterm(k, (1 << ex.SAMPLED_ATOMS) - 1)
    open_cases = [one, ex.neg(one), ex.disj(one, _unsampled_minterm(k, 0))]
    constant_cases = [ex.disj(one, ex.neg(one)), ex.conj(one, ex.neg(one))]
    real_walk = ex._walk
    for e in open_cases + constant_cases:
        assert ex.fold(e) is e
        assert real_walk(e, k)[1] in (0, ex._SAMPLED_FULL)
    walks = []
    monkeypatch.setattr(ex, "_walk", lambda e, *args: walks.append(args) or real_walk(e, *args))
    for e in open_cases:
        copy = fresh_copy(e)
        expected = reference_simplify(copy)
        got = ex.simplify(e)
        assert got == expected and (got is e) == (expected is copy)
        assert got is e and e.settled
    assert [ex.simplify(e) for e in constant_cases] == [ex.TRUE, ex.FALSE]
    assert walks == [(ex.EXACT_ATOMS,), (k, k)] * 5


@pytest.mark.parametrize("n", [ex.DNF_ATOMS + 2, ex.EXACT_ATOMS, ex.EXACT_ATOMS + 1])
def test_wide_open_node_takes_one_walk(n, monkeypatch):
    # A node past SAMPLED_ATOMS atoms whose sampled rows hold both values is
    # open: the first call at the full bound settles it after one walk, with
    # no atom count; so is a node past EXACT_ATOMS atoms.
    e = ex.disj(ex.Var(ex.plain("x00")),
                ex.conj_all(ex.Var(ex.plain(f"x{i:02d}")) for i in range(1, n)))
    real_walk = ex._walk
    walks = []
    monkeypatch.setattr(ex, "_walk", lambda *args: walks.append(args) or real_walk(*args))
    monkeypatch.setattr(ex, "atom_set", lambda *args: pytest.fail("atom_set called"))
    assert ex.simplify(e) is e
    assert walks == [(e, ex.EXACT_ATOMS)]
    assert e.wide and e.settled


def _random_over(rng, atoms):
    """A random condition in which every atom of ``atoms`` occurs, some of
    them twice, under random connectives and negations."""
    parts = [ex.Var(a) if rng.random() < 0.7 else ex.Not(ex.Var(a))
             for a in atoms + rng.sample(atoms, len(atoms) // 2)]
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        left, right = parts[i], parts.pop(i + 1)
        node = ex.And(left, right) if rng.random() < 0.5 else ex.Or(left, right)
        parts[i] = ex.Not(node) if rng.random() < 0.2 else node
    return parts[0]


def _table_decision(e):
    """What ``decide_constant(e)`` must return, from the full truth table."""
    atoms = ex.atoms_of(e)
    table = ex.truth_table(e, atoms)
    return {(1 << (1 << len(atoms))) - 1: ex.TOP, 0: ex.BOTTOM}.get(table)


@pytest.mark.parametrize("k", [1, 2, 4, 9, 10, 12, 16, 17, 20])
def test_decide_constant_agrees_with_bdd(k, monkeypatch):
    # Up to EXACT_ATOMS atoms the walk decides, over exact columns when the
    # sampled rows past SAMPLED_ATOMS read constant; only past EXACT_ATOMS is
    # a diagram built.  Each condition is simplified first: a node past
    # EXACT_ATOMS is then marked settled without being decided, which must
    # not read as open.
    rng = random.Random(k)
    atoms = [ex.plain(f"x{i:02d}") for i in range(k)]
    builds = []

    class CountedBdd(ex._Bdd):
        def __init__(self, e):
            builds.append(e)
            super().__init__(e)

    decided = set()
    for _ in range(12):
        w = _random_over(rng, atoms)
        for e in (w, ex.Or(w, ex.Not(w)), ex.And(w, ex.Not(w))):
            expected = _table_decision(e)
            ex.simplify(e)
            with monkeypatch.context() as patch:
                patch.setattr(ex, "_Bdd", CountedBdd)
                assert ex.decide_constant(e) is expected
            assert builds == ([e] if k > ex.EXACT_ATOMS else [])
            builds.clear()
            decided.add(expected)
    assert decided == {ex.TOP, ex.BOTTOM, None}


def test_single_row_conditions_stay_open():
    # Each differs from a constant on one assignment of 12 atoms, the one
    # that sets every atom, and no sampled row sets them all.
    xs = [ex.Var(ex.plain(f"x{i:02d}")) for i in range(12)]
    for e in (ex.disj_all(map(ex.Not, xs)), ex.conj_all(xs)):
        assert ex._walk(e, ex.EXACT_ATOMS)[1] in (0, ex._SAMPLED_FULL)
        assert ex.decide_constant(e) is None is _table_decision(e)
        assert ex.eval_expr(e, Memory()) is ex.UNKNOWN


def test_rewrite_fold_contracts():
    a, b = ex.plain("a"), ex.plain("b")
    va, vb = ex.Var(a), ex.Var(b)
    assert ex.rewrite_fold(va, {a: ex.TOP}) is ex.TRUE
    assert ex.rewrite_fold(va, {a: ex.BOTTOM}) is ex.FALSE
    assert ex.rewrite_fold(va, {a: ex.UNKNOWN}) is va
    assert ex.rewrite_fold(va, {b: ex.TOP}) is va
    e = ex.Or(ex.And(va, ex.Not(vb)), ex.Not(va))
    for m in ({}, {a: ex.UNKNOWN}, {b: ex.UNKNOWN}, {ex.plain("c"): ex.TOP}):
        assert ex.rewrite_fold(e, m) is e
    assert ex.rewrite_fold(e, {a: ex.TOP}) is e.left.right
    assert ex.rewrite_fold(e, {a: ex.BOTTOM}) is ex.TRUE
    assert ex.rewrite_fold(e, {a: ex.TOP, b: ex.TOP}) is ex.FALSE


@dataclasses.dataclass(frozen=True)
class _Implies(ex.Expr):
    """A node class the walks do not know, shaped like a binary one."""

    left: ex.Expr
    right: ex.Expr


@pytest.mark.parametrize("walk", [
    lambda e: ex.rewrite_fold(e, {}),
    lambda e: ex.bottom_up(e, {}, id, id, id, lambda node, l, r: l),
    lambda e: ex.encode(e, 1),
    ex.atom_set,
    ex.simplify,
    ex.decide_constant,
    ex._Bdd,
], ids=["rewrite_fold", "bottom_up", "encode", "atom_set", "simplify", "decide_constant", "_Bdd"])
def test_walks_reject_unknown_node_classes(walk):
    a = ex.Var(ex.plain("a"))
    for e in (_Implies(a, a), ex.And(a, ex.Not(_Implies(a, ex.TRUE)))):
        with pytest.raises(TypeError, match="not an expression node"):
            walk(e)
