import random

from demon import ehe as eh
from demon import expr as ex
from demon import metrics as mt
from demon.engine import Message
from demon.store import Memory
from helpers import reference_summarize


class TestSizes:
    def test_empty_memory(self):
        assert mt.size_of(Memory()) == 0

    def test_timed_entry(self):
        m = Memory({ex.timed(1, "a"): ex.TOP})
        assert mt.size_of(m) == 4 + 1 + 1  # round + one char + verdict

    def test_plain_atom_has_no_round(self):
        assert mt.atom_size(ex.plain("ab")) == 2

    def test_expr_size_counts_tree(self):
        e = ex.And(ex.Var(ex.timed(1, "a")), ex.Not(ex.Var(ex.timed(2, "b"))))
        # two timed atoms (5 each) + two operator bytes
        assert mt.expr_size(e) == 12

    def test_kill_size_is_id_only(self):
        msg = Message("kill", sender="m10", receiver="m0")
        assert mt.size_of(msg) == 3

    def test_verdict_size(self):
        verdict = {ex.monref(2, "m1"): ex.TOP}
        msg = Message("verdict", sender="m1", receiver="m0", payload=verdict)
        assert mt.size_of(msg) == 2 + 4 + 1
        assert mt.size_of(verdict) == mt.size_of(msg)

    def test_ehe_size(self, fig1):
        p = eh.init(fig1)
        # key: round int (4) + "q0" (2); value: one constant byte
        assert mt.size_of(p) == 7

    def test_memory_size_mixes_atom_kinds(self):
        m = {ex.plain("ab"): ex.TOP, ex.timed(3, "c"): ex.BOTTOM,
             ex.monref(2, "m10"): ex.TOP, ex.timed(12, "long_name"): ex.TOP}
        expected = sum(mt.atom_size(a) + mt.VERDICT_BYTES for a in m)
        assert expected == (2 + 1) + (4 + 1 + 1) + (4 + 3 + 1) + (4 + 9 + 1)
        assert mt.memory_size(m) == expected
        assert mt.size_of(m) == expected

    def test_message_kinds_built_either_way(self, fig1):
        mem = {ex.timed(1, "a"): ex.TOP, ex.timed(1, "b"): ex.BOTTOM}
        verdict = {ex.monref(4, "m2"): ex.BOTTOM}
        p = eh.mov(eh.init(fig1), 2)
        cases = [("mem", mem, mt.memory_size(mem)),
                 ("verdict", verdict, mt.memory_size(verdict)),
                 ("ehe", p, mt.ehe_size(p)),
                 ("kill", None, len("m2") * mt.CHAR_BYTES)]
        for kind, payload, size in cases:
            positional = Message(kind, "m2", "m0", payload)
            keyword = Message(kind=kind, sender="m2", receiver="m0", payload=payload)
            assert mt.size_of(positional) == mt.size_of(keyword) == size
            assert positional == keyword

    def test_equal_fields_compare_equal(self):
        payload = {ex.timed(1, "a"): ex.TOP}
        assert Message("mem", "f_B", "m0", payload) == Message("mem", "f_B", "m0", dict(payload))
        assert Message("kill", "m0", "m1") == Message("kill", "m0", "m1", None)
        assert Message("kill", "m0", "m1") != Message("kill", "m0", "m2")


def record_with(simp, components=("A", "B"), run_length=1):
    rec = mt.MetricsRecord(components=tuple(components))
    rec.run_length = run_length
    for (t, comp), n in simp.items():
        rec.steps.append(mt.Step(t, f"mon_{comp}", comp, simplifications=n))
    return rec


class TestConvergence:
    def test_balanced_round_contributes_zero(self):
        rec = record_with({(1, "A"): 2, (1, "B"): 2})
        assert mt.summarize(rec).convergence_simplifications == 0.0

    def test_hand_value(self):
        rec = record_with({(1, "A"): 3, (1, "B"): 1})
        assert abs(mt.summarize(rec).convergence_simplifications - 0.125) < 1e-12

    def test_all_on_one_component(self):
        for ncomp in (2, 3, 5):
            comps = tuple(f"c{i}" for i in range(ncomp))
            rec = record_with({(1, "c0"): 7}, components=comps)
            expected = (1 - 1 / ncomp) ** 2 + (ncomp - 1) * (1 / ncomp) ** 2
            assert abs(mt.summarize(rec).convergence_simplifications - expected) < 1e-12

    def test_idle_round_contributes_zero(self):
        rec = record_with({(1, "A"): 3, (1, "B"): 1}, run_length=2)
        assert abs(mt.summarize(rec).convergence_simplifications - 0.125 / 2) < 1e-12


class TestSummarize:
    def test_empty_run(self):
        rec = mt.MetricsRecord(components=("A",))
        rec.run_length = 1
        s = mt.summarize(rec)
        assert s.average_delay == 0.0 and s.messages_per_round == 0.0

    def test_critical_takes_per_round_max(self):
        rec = mt.MetricsRecord(components=("A", "B"))
        rec.run_length = 2
        rec.steps = [
            mt.Step(1, "x", "A", simplifications=5),
            mt.Step(1, "y", "B", simplifications=2),
            mt.Step(2, "y", "B", simplifications=3),
        ]
        s = mt.summarize(rec)
        assert s.critical_simplifications == (5 + 3) / 2
        assert s.max_simplifications == 5

    def test_delay_average(self):
        rec = mt.MetricsRecord(components=("A",))
        rec.run_length = 4
        rec.steps = [mt.Step(1, "m", "A", delays=(0,)), mt.Step(2, "m", "A", delays=(1, 1, 0))]
        assert mt.summarize(rec).average_delay == 0.5

    def test_message_normalization(self):
        rec = mt.MetricsRecord(components=("A",))
        rec.run_length = 2
        rec.steps = [mt.Step(1, "m", "A", sent=(("mem", 10),)),
                     mt.Step(2, "m", "A", sent=(("mem", 14),))]
        s = mt.summarize(rec)
        assert s.messages_per_round == 1.0
        assert s.data_per_round == 12.0
        assert s.data_per_message == 12.0


def random_record(rng: random.Random) -> mt.MetricsRecord:
    """A record of seeded steps: idle ones, ones with only delays, only
    sends, only simplifications or only evaluations, and mixed ones, with
    several monitors on one component and rounds whose work sums to 0."""
    components = tuple(f"c{i}" for i in range(rng.randint(1, 4)))
    rec = mt.MetricsRecord(components=components)
    rec.run_length = rng.choice((0, 1, rng.randint(2, 12)))
    monitors = [(f"m{i}", rng.choice(components)) for i in range(rng.randint(1, 6))]
    for t in range(1, max(rec.run_length, 1) + 1):
        idle_round = rng.random() < 0.2  # only delays and sends: no work at all
        for name, comp in monitors:
            step = mt.Step(t, name, comp)
            shape = rng.choice(("idle", "delays", "sent", "simp", "evals", "mixed"))
            if shape in ("delays", "mixed"):
                step.delays = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 3)))
            if shape in ("sent", "mixed"):
                step.sent = tuple((rng.choice(("mem", "ehe", "verdict", "kill")),
                                   rng.randint(1, 40)) for _ in range(rng.randint(1, 3)))
            if shape in ("simp", "mixed") and not idle_round:
                step.simplifications = rng.randint(1, 9)
            if shape in ("evals", "mixed") and not idle_round:
                step.evaluations = rng.randint(1, 30)
            rec.steps.append(step)
    return rec


def test_summarize_matches_reference_fold_exactly():
    rng = random.Random(20261021)
    lengths = set()
    for _ in range(400):
        rec = random_record(rng)
        lengths.add(rec.run_length)
        assert mt.summarize(rec) == reference_summarize(rec)
    assert {0, 1} <= lengths
