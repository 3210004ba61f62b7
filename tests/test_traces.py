import json
import random
import re

import pytest

from demon import expr as ex
from demon import traces as tg
from demon.automaton import DecentralizedTrace, reconstruct_global
from demon.errors import ConflictingObservation, DemonError, InvalidParameters, ParseError
from demon.store import Event

from conftest import ROOT
from helpers import reference_owner


class TestConfig:
    def test_rejects_bad_lengths(self):
        with pytest.raises(InvalidParameters):
            tg.TraceGenConfig(components=0)
        with pytest.raises(InvalidParameters):
            tg.TraceGenConfig(components=2, length=-1)

    def test_rejects_bad_distribution_params(self):
        with pytest.raises(InvalidParameters):
            tg.Normal(sigma2=0)
        with pytest.raises(InvalidParameters):
            tg.Binomial(p=1.5)
        with pytest.raises(InvalidParameters):
            tg.Beta(alpha=0, beta=1)


class TestGenerate:
    def test_zero_length(self):
        tr = tg.generate(tg.TraceGenConfig(components=2, length=0, seed=1))
        assert tr.length == 0 and tr.events == {}

    def test_deterministic(self):
        cfg = tg.TraceGenConfig(components=3, length=20, seed=42)
        assert tg.generate(cfg).events == tg.generate(cfg).events

    def test_different_seeds_differ(self):
        a = tg.generate(tg.TraceGenConfig(components=3, length=20, seed=1))
        b = tg.generate(tg.TraceGenConfig(components=3, length=20, seed=2))
        assert a.events != b.events

    def test_observation_counts(self):
        cfg = tg.TraceGenConfig(components=3, aps_per_component=2, length=15, seed=5)
        tr = tg.generate(cfg)
        for evt in reconstruct_global(tr):
            assert len(evt.observations) == 6

    def test_ownership_matches_layout(self):
        cfg = tg.TraceGenConfig(components=2, aps_per_component=2, length=4, seed=9)
        assert tg.generate(cfg).observed_owner() == tg.ap_owner_for(cfg)

    def test_beta_5_1_skews_true(self):
        rng = random.Random(0)
        dist = tg.Beta(alpha=5, beta=1)
        draws = [tg.draw_observation(dist, rng) for _ in range(10_000)]
        assert sum(v is ex.TOP for v in draws) / len(draws) > 0.9

    def test_binomial_rate(self):
        rng = random.Random(0)
        dist = tg.Binomial()
        draws = [tg.draw_observation(dist, rng) for _ in range(10_000)]
        assert abs(sum(v is ex.TOP for v in draws) / len(draws) - 0.3) < 0.02


class TestRoundTrip:
    def test_roundtrip(self, tmp_path, ex7_trace):
        path = tmp_path / "t.csv"
        tg.store(ex7_trace, str(path))
        again = tg.load(str(path))
        assert again == ex7_trace

    def test_generated_roundtrip(self, tmp_path):
        tr = tg.generate(tg.TraceGenConfig(components=2, length=10, seed=3))
        path = tmp_path / "g.csv"
        tg.store(tr, str(path))
        assert tg.load(str(path)) == tr

    def test_silent_component_and_trailing_rounds_roundtrip(self, tmp_path):
        tr = DecentralizedTrace(("c0", "c1"), 5, {(1, "c0"): Event.of(("a0", ex.TOP))})
        path = tmp_path / "sparse.csv"
        tg.store(tr, str(path))
        assert tg.load(str(path)) == tr
        # without the metadata line, only what the rows show is recoverable
        body = path.read_text().split("\n", 1)[1]
        path.write_text(body)
        assert tg.load(str(path)) == DecentralizedTrace(("c0",), 1, tr.events)
        path.write_text("# {\"components\": [\"c0\"]}\n" + body)
        with pytest.raises(ParseError):
            tg.load(str(path))

    # Each was accepted before; the comments say how a run then read it.
    @pytest.mark.parametrize("components, length, named", [
        ("c0c1", 3, "'c0c1'"),  # read as the characters c, 0, c, 1
        (["c0"], -3, "-3"),  # ran 2 rounds
        (["c0"], True, "True"),  # ran as length 1
        (["c0", "c0", "c1"], 3, "['c0', 'c0', 'c1']"),  # counted 3 components
    ])
    def test_malformed_metadata_named(self, tmp_path, components, length, named):
        path = tmp_path / "meta.csv"
        meta = json.dumps({"components": components, "length": length})
        path.write_text(f"# {meta}\nt,component,ap,value\n")
        with pytest.raises(DemonError, match=re.escape(named)):
            tg.load(str(path))

    def test_bad_verdict_token(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,component,ap,value\n1,A,a,maybe\n")
        with pytest.raises(ParseError) as err:
            tg.load(str(path))
        assert err.value.line == 2

    def test_ownership_violation(self, tmp_path):
        path = tmp_path / "own.csv"
        path.write_text("t,component,ap,value\n1,A,a,1\n2,B,a,0\n")
        with pytest.raises(ConflictingObservation):
            tg.load(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("1,A,a,1\n")
        with pytest.raises(ParseError):
            tg.load(str(path))


def _sparse_trace(rng):
    """A trace in which each component observes a random part of its own
    propositions, in random rounds: first observations come in no fixed
    order of components or names."""
    comps = tuple(f"c{i}" for i in range(rng.randint(1, 4)))
    owner = {f"p{i}": rng.choice(comps) for i in range(rng.randint(1, 6))}
    length = rng.randint(0, 8)
    events = {}
    for t in range(1, length + 1):
        for comp in comps:
            obs = frozenset((ap, rng.choice((ex.TOP, ex.BOTTOM)))
                            for ap, c in owner.items() if c == comp and rng.random() < 0.4)
            if obs:
                events[(t, comp)] = Event(obs)
    return DecentralizedTrace(comps, length, events)


def test_observed_owner_matches_reference_scan(fig4_trace, ex7_trace):
    # One scan per trace, kept on the frozen trace: each call returns a fresh
    # copy, in the reference's order, that callers may change freely.
    rng = random.Random(2404)
    traces = [fig4_trace, ex7_trace]
    # the trace fixtures only: an experiment run in place writes its results
    # table next to its config, and that table is no trace
    experiment = ROOT / "fixtures" / "experiment"
    listed = json.loads((experiment / "config.json").read_text())["traces"]
    paths = sorted((ROOT / "fixtures").glob("*.csv")) + [experiment / name for name in listed]
    traces += [tg.load(str(path)) for path in paths]
    traces += [tg.generate(tg.TraceGenConfig(components=n, length=10, seed=n)) for n in (1, 3, 5)]
    traces += [_sparse_trace(rng) for _ in range(200)]
    for tr in traces:
        expected = list(reference_owner(tr).items())
        first = tr.observed_owner()
        assert list(first.items()) == expected
        first["unseen"] = "elsewhere"
        second = tr.observed_owner()
        assert second is not first and list(second.items()) == expected
