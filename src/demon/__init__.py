"""Monitoring of decentralized specifications: execution-history encodings,
replicated memories, specification semantics, decision procedures, and a
round-based simulator for the classic algorithm families."""

from .expr import (
    Atom,
    Expr,
    Verdict,
    TOP,
    BOTTOM,
    UNKNOWN,
    encode,
    eval_expr,
    equivalent,
    parse_expr,
    simplify,
    to_text,
)
from .store import Event, Memory, mem_from_event, memory_merge, merge_with
from .automaton import (
    DecentralizedSpec,
    DecentralizedTrace,
    Specification,
    decentralized_run,
    make_spec,
    normalize,
    reconstruct_global,
    run,
    step,
    validate,
)
from .ehe import EHE, drop_resolved, inc, init, merge, mov, sreach
from .analysis import (
    Graph,
    ca_monitorable,
    compatible,
    compute_reach,
    decentralized_monitorable,
    has_cycle,
    mdg,
    mds,
    verify_compatible,
)
from .ltl import Ltl, net_chor, parse_ltl, progress, synthesize
from .engine import SimConfig, SimRun, simulate
from .metrics import MetricsRecord, size_of, summarize
from .traces import TraceGenConfig, generate

__all__ = [name for name in dir() if not name.startswith("_")]
