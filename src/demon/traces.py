"""Synthetic decentralized-trace generation and CSV round-tripping.

Components are named c0, c1, ...; each owns ``aps_per_component``
consecutive propositions a0, a1, ....  Observation values are drawn per
(round, component, proposition) from the configured distribution, so a
fixed seed reproduces the trace exactly.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass

from .automaton import DecentralizedTrace
from .errors import InvalidParameters, ParseError
from .expr import BOTTOM, TOP, Verdict
from .store import Event


@dataclass(frozen=True)
class Normal:
    mu: float = 0.5
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma2 <= 0:
            raise InvalidParameters("normal variance must be positive")


@dataclass(frozen=True)
class Binomial:
    n: int = 100
    p: float = 0.3

    def __post_init__(self) -> None:
        if self.n < 1 or not 0.0 <= self.p <= 1.0:
            raise InvalidParameters("binomial requires n >= 1 and p in [0, 1]")


@dataclass(frozen=True)
class Beta:
    alpha: float = 2.0
    beta: float = 5.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParameters("beta shape parameters must be positive")


# A union of classes, not ``typing.Union``: typing caches its unions for the
# life of the process, and the cache would keep this module alive after the
# package is imported again.
Distribution = Normal | Binomial | Beta


@dataclass(frozen=True)
class TraceGenConfig:
    components: int
    aps_per_component: int = 2
    length: int = 60
    distribution: Distribution = Normal()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.components < 1:
            raise InvalidParameters("need at least one component")
        if self.aps_per_component < 1:
            raise InvalidParameters("need at least one proposition per component")
        if self.length < 0:
            raise InvalidParameters("trace length must be >= 0")


def component_names(cfg: TraceGenConfig) -> list[str]:
    return [f"c{i}" for i in range(cfg.components)]


def ap_owner_for(cfg: TraceGenConfig) -> dict[str, str]:
    out = {}
    for i in range(cfg.components * cfg.aps_per_component):
        out[f"a{i}"] = f"c{i // cfg.aps_per_component}"
    return out


def _draw_normal(dist: Normal, rng: random.Random) -> float:
    u1 = rng.random()
    u2 = rng.random()
    while u1 <= 0.0:
        u1 = rng.random()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return dist.mu + math.sqrt(dist.sigma2) * z


def _draw_beta(dist: Beta, rng: random.Random) -> float:
    # Johnk's rejection method.
    while True:
        x = rng.random() ** (1.0 / dist.alpha)
        y = rng.random() ** (1.0 / dist.beta)
        if x + y <= 1.0 and (x + y) > 0.0:
            return x / (x + y)


def draw_observation(dist: Distribution, rng: random.Random) -> Verdict:
    """One observation value; continuous draws are true above 0.5, binomial
    is true with probability p."""
    if isinstance(dist, Normal):
        return TOP if _draw_normal(dist, rng) > 0.5 else BOTTOM
    if isinstance(dist, Beta):
        return TOP if _draw_beta(dist, rng) > 0.5 else BOTTOM
    assert isinstance(dist, Binomial)
    return TOP if rng.random() < dist.p else BOTTOM


def generate(cfg: TraceGenConfig) -> DecentralizedTrace:
    rng = random.Random(cfg.seed)
    comps = component_names(cfg)
    owner = ap_owner_for(cfg)
    by_comp: dict[str, list[str]] = {c: [] for c in comps}
    for ap in sorted(owner, key=lambda a: int(a[1:])):
        by_comp[owner[ap]].append(ap)
    events: dict[tuple[int, str], Event] = {}
    for t in range(1, cfg.length + 1):
        for comp in comps:
            obs = frozenset(
                (ap, draw_observation(cfg.distribution, rng)) for ap in by_comp[comp]
            )
            events[(t, comp)] = Event(obs)
    return DecentralizedTrace(tuple(comps), cfg.length, events)


def store(tr: DecentralizedTrace, path: str) -> None:
    """Write ``tr`` as CSV, led by a ``#`` line holding its component list and
    length as JSON, so silent components and trailing empty rounds survive."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        meta = {"components": list(tr.components), "length": tr.length}
        fh.write(f"# {json.dumps(meta)}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "component", "ap", "value"])
        for (t, comp) in sorted(tr.events):
            for ap, verdict in sorted(tr.events[(t, comp)].observations):
                writer.writerow([t, comp, ap, "1" if verdict is TOP else "0"])


def _declared_shape(text: str) -> tuple[tuple[str, ...], int]:
    """Component list and length from the JSON of a leading ``#`` line."""
    try:
        meta = json.loads(text)
        components, length = meta["components"], meta["length"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad trace metadata line: {exc}", 1) from None
    if not (isinstance(components, list) and all(isinstance(c, str) for c in components)):
        raise ParseError(f"trace metadata 'components' must be a list of names, "
                         f"got {components!r}", 1)
    if isinstance(length, bool) or not isinstance(length, int):
        raise ParseError(f"trace metadata 'length' must be an integer, got {length!r}", 1)
    return tuple(components), length


def load(path: str) -> DecentralizedTrace:
    """Read a trace CSV.  Without a leading ``#`` line, the components are
    those that report and the length is the last reported round."""
    events: dict[tuple[int, str], set[tuple[str, Verdict]]] = {}
    components: set[str] = set()
    length = 0
    declared = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            declared = _declared_shape(first[1:])
            header_line = 2
        else:
            fh.seek(0)
            header_line = 1
        for lineno, row in enumerate(csv.reader(fh), start=header_line):
            if lineno == header_line:
                if row != ["t", "component", "ap", "value"]:
                    raise ParseError("expected header t,component,ap,value", lineno)
                continue
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", lineno)
            t_text, comp, ap, value = row
            try:
                t = int(t_text)
            except ValueError:
                raise ParseError(f"bad round number {t_text!r}", lineno) from None
            if t < 1:
                raise ParseError(f"round numbers start at 1, got {t}", lineno)
            if value not in ("0", "1"):
                raise ParseError(f"bad verdict token {value!r}", lineno)
            components.add(comp)
            length = max(length, t)
            events.setdefault((t, comp), set()).add(
                (ap, TOP if value == "1" else BOTTOM)
            )
    if declared is not None:
        declared_components, length = declared
    else:
        declared_components = tuple(sorted(components))
    return DecentralizedTrace(
        declared_components,
        length,
        {key: Event(frozenset(obs)) for key, obs in events.items()},
    )
