import json
import random

import pytest

from demon import expr as ex
from demon.automaton import (
    DecentralizedSpec,
    DecentralizedTrace,
    Specification,
    decentralized_run,
    dspec_from_dict,
    make_spec,
    normalize,
    reconstruct_global,
    run,
    spec_from_dict,
    step,
    validate,
)
from demon.errors import (
    ConflictingObservation,
    RoundBudgetExceeded,
    SpecificationError,
)
from demon.store import Event

from conftest import random_spec, random_trace
from helpers import (
    centralized_as_decentralized,
    dspec_to_dict,
    enumerate_full_traces,
    load_spec,
    spec_to_dict,
    verdict_equivalent,
)

T, B = ex.TOP, ex.BOTTOM


class TestValidate:
    def test_fig1_valid(self, fig1):
        assert validate(fig1).ok

    def test_cosatisfiable_labels(self):
        a = make_spec(
            ["q0", "q1"],
            "q0",
            [("q0", "a", "q1"), ("q0", "a && b", "q0"), ("q1", "true", "q1")],
            {"q0": "unknown", "q1": "top"},
        )
        report = validate(a)
        assert report.determinism and report.determinism[0][0] == "q0"

    def test_incomplete_state(self):
        a = make_spec(["q0"], "q0", [("q0", "a", "q0")], {"q0": "unknown"})
        assert validate(a).completeness == ["q0"]


class TestNormalize:
    def test_parallel_edges_disjoined(self):
        a = make_spec(
            ["q0", "q1"],
            "q0",
            [("q0", "a", "q1"), ("q0", "b", "q1"), ("q0", "!a && !b", "q0"),
             ("q1", "true", "q1")],
            {"q0": "unknown", "q1": "top"},
        )
        n = normalize(a)
        labels = {(t.src, t.dst): t.label for t in n.transitions}
        assert len(n.transitions) == 3
        assert ex.equivalent(labels[("q0", "q1")], ex.parse_expr("a || b"))

    def test_fixed_point(self, fig1):
        once = normalize(fig1)
        assert normalize(once) == once

    def test_self_loops_collapse(self):
        a = make_spec(
            ["q0"], "q0", [("q0", "a", "q0"), ("q0", "!a", "q0")], {"q0": "unknown"}
        )
        n = normalize(a)
        assert len(n.transitions) == 1
        assert ex.equivalent(n.transitions[0].label, ex.TRUE)


class TestStepRun:
    def test_fig1_step(self, fig1):
        assert step(fig1, "q0", Event.of(("a", T), ("b", B))) == "q1"

    def test_empty_event_stays(self, fig1):
        assert step(fig1, "q0", Event()) == "q0"

    def test_fig1_negative_step(self, fig1):
        assert step(fig1, "q0", Event.of(("a", B), ("b", B))) == "q0"

    def test_stuck_stays(self, fig1):
        assert step(fig1, "q0", Event.of(("a", B))) == "q0"  # partial event satisfies no label

    def test_empty_trace(self, fig1):
        assert run(fig1, []) == "q0"

    def test_run_single_event(self, fig1, fig2):
        evt = Event.of(("a", T), ("b", B))
        assert run(fig1, [evt]) == "q1"
        assert run(fig2, [evt]) == "q0"


class TestReconstruct:
    def test_example_trace(self, ex7_trace):
        glob = reconstruct_global(ex7_trace)
        assert glob[0] == Event.of(("a", T), ("b", T))
        assert glob[1] == Event.of(("a", T), ("b", B))

    def test_empty(self):
        assert reconstruct_global(DecentralizedTrace((), 0, {})) == []

    def test_single_component(self):
        tr = DecentralizedTrace(("A",), 1, {(1, "A"): Event.of(("a", T))})
        assert reconstruct_global(tr) == [Event.of(("a", T))]

    def test_ownership_violation(self):
        with pytest.raises(ConflictingObservation):
            DecentralizedTrace(
                ("A", "B"),
                1,
                {(1, "A"): Event.of(("a", T)), (1, "B"): Event.of(("a", T))},
            )


class TestDecentralizedRun:
    def test_fig4_example(self, fig4, fig4_trace):
        assert decentralized_run(fig4, fig4_trace) is T

    def test_empty_trace_gives_initial_verdict(self, fig4):
        tr = DecentralizedTrace(("c0", "c1"), 0, {})
        assert decentralized_run(fig4, tr) is ex.UNKNOWN

    def test_single_monitor_special_case(self):
        rng = random.Random(17)
        for _ in range(200):
            spec, aps = random_spec(rng, max_states=5, max_aps=3)
            tr = random_trace(rng, aps, 1, rng.randint(0, 12))
            d = centralized_as_decentralized(spec, component="c0")
            expected = spec.verdicts[run(spec, reconstruct_global(tr))]
            assert decentralized_run(d, tr) is expected

    def test_cyclic_references_detected(self):
        ma = make_spec(
            ["q0", "q1"], "q0",
            [("q0", "mb", "q1"), ("q0", "!mb", "q0"), ("q1", "true", "q1")],
            {"q0": "unknown", "q1": "top"},
        )
        mb = make_spec(
            ["q0", "q1"], "q0",
            [("q0", "ma", "q1"), ("q0", "!ma", "q0"), ("q1", "true", "q1")],
            {"q0": "unknown", "q1": "bottom"},
        )
        d = DecentralizedSpec(
            ("ma", "mb"),
            {"ma": ma, "mb": mb},
            ("c0",),
            {"ma": "c0", "mb": "c0"},
            "ma",
            {},
        )
        tr = DecentralizedTrace(("c0",), 1, {(1, "c0"): Event.of(("x", T))})
        with pytest.raises(RoundBudgetExceeded):
            decentralized_run(d, tr)

    def test_verdict_equivalence_helper(self, fig1, fig2):
        d1 = centralized_as_decentralized(fig1)
        d2 = centralized_as_decentralized(fig2)
        traces = list(
            enumerate_full_traces({"a": "sys", "b": "sys"}, ("sys",), 2)
        )
        assert verdict_equivalent(d1, d1, traces) is None
        witness = verdict_equivalent(d1, d2, traces)
        assert witness is not None
        assert decentralized_run(d1, witness) is not decentralized_run(d2, witness)


class TestDecentralizedSpecValidation:
    def test_foreign_proposition_rejected(self, fig4):
        bad_m0 = make_spec(
            ["q0", "q1"], "q0",
            [("q0", "b0", "q1"), ("q0", "!b0", "q0"), ("q1", "true", "q1")],
            {"q0": "unknown", "q1": "top"},
        )
        with pytest.raises(SpecificationError):
            DecentralizedSpec(
                ("m0",), {"m0": bad_m0}, ("c0", "c1"), {"m0": "c0"}, "m0",
                {"b0": "c1"},
            )

    def test_name_collision_rejected(self, fig4):
        with pytest.raises(SpecificationError):
            DecentralizedSpec(
                fig4.monitor_labels,
                dict(fig4.monitors),
                fig4.components,
                dict(fig4.attach),
                fig4.root,
                {"m1": "c1", "a0": "c0", "b0": "c1"},  # "m1" also a proposition
            )

    def test_self_reference_rejected(self):
        loop = make_spec(
            ["q0", "q1"], "q0",
            [("q0", "m0", "q1"), ("q0", "!m0", "q0"), ("q1", "true", "q1")],
            {"q0": "unknown", "q1": "top"},
        )
        with pytest.raises(SpecificationError):
            DecentralizedSpec(
                ("m0",), {"m0": loop}, ("c0",), {"m0": "c0"}, "m0", {}
            )


class TestJson:
    def test_spec_roundtrip(self, fig1):
        again = spec_from_dict(spec_to_dict(fig1))
        assert again == fig1

    def test_dspec_roundtrip(self, fig4):
        again = dspec_from_dict(dspec_to_dict(fig4))
        assert again.root == fig4.root
        assert again.monitors["m1"] == fig4.monitors["m1"]

    def test_load_dispatches_on_shape(self, fig1, fig4, tmp_path):
        p1 = tmp_path / "spec.json"
        p1.write_text(json.dumps(spec_to_dict(fig1)))
        assert isinstance(load_spec(str(p1)), Specification)
        p2 = tmp_path / "dspec.json"
        p2.write_text(json.dumps(dspec_to_dict(fig4)))
        assert isinstance(load_spec(str(p2)), DecentralizedSpec)

    def test_malformed_rejected(self):
        with pytest.raises(SpecificationError):
            spec_from_dict({"states": ["q0"]})


def test_validate_any_width():
    def one_state(*edges):
        return make_spec(["q0"], "q0", [("q0", e, "q0") for e in edges], {"q0": "unknown"})

    for n_atoms in (16, 17, 40):
        labels = " && ".join(f"x{i}" for i in range(n_atoms))
        assert validate(one_state(labels, f"!({labels})")).ok
        overlapping = validate(one_state(labels, f"!({labels}) || x0"))
        assert [q for q, _, _ in overlapping.determinism] == ["q0"]
        assert overlapping.completeness == []
        incomplete = validate(one_state(labels, f"!({labels}) && x0"))
        assert incomplete.determinism == [] and incomplete.completeness == ["q0"]
