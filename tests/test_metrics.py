from demon import ehe as eh
from demon import expr as ex
from demon import metrics as mt
from demon.engine import Message
from demon.store import Memory


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
