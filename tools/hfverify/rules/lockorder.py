"""Lock acquisition-order extraction and checking (DESIGN.md §10).

Walks every function body tracking which `MutexLock` scopes are live, and
builds the observed lock-nesting graph:

  * acquiring B while A is held        → edge A → B
  * calling f() while A is held        → edge A → every lock f acquires
                                         transitively (fixpoint over the
                                         call graph, confident edges only)

Mutex identity is normalized to `Class::field`: the lock expression's final
field name is looked up in the enclosing class (and its bases), then in any
class with a Mutex-typed field of that name.

The check then enforces §10's rules mechanically: every observed edge must
be in the sanctioned table (`allowlist.SANCTIONED_LOCK_EDGES` — today
empty), everything else is a leaf, and the
graph must be acyclic. The sanctioned table itself is cross-checked against
the DESIGN.md §10 capability table ("before `x_`"/"after `y_`" cells) so
code, tool, and document cannot drift apart silently.

`// hfverify: allow-lockorder(reason)` on the inner acquisition (or the
call made while holding) waives an edge.
"""

import os
import re
from typing import Dict, List, Optional, Set, Tuple

from ..callgraph import CallGraph
from ..model import Function, Program, Violation

Edge = Tuple[str, str]  # (outer mutex id, inner mutex id)


def _mutex_identity(program: Program, fn: Function,
                    expr_tokens: Tuple[str, ...], mutex_type_ids) -> str:
    ids = [t for t in expr_tokens if re.match(r"[A-Za-z_]\w*$", t)]
    if not ids:
        return "?"
    field = ids[-1]
    if fn.cls is not None:
        for cls in program.base_chain(fn.cls):
            info = program.classes.get(cls)
            if info and field in info.fields:
                return f"{cls}::{field}"
    owners = sorted(
        name for name, info in program.classes.items()
        if field in info.fields and
        info.fields[field].type_ids & set(mutex_type_ids))
    if owners:
        return f"{owners[0]}::{field}"
    return f"?::{field}"


def _direct_lock_ids(program: Program, fn: Function,
                     mutex_type_ids) -> Set[str]:
    return {_mutex_identity(program, fn, acq.expr_tokens, mutex_type_ids)
            for acq in fn.locks}


def _transitive_locks(program: Program, graph: CallGraph,
                      mutex_type_ids) -> Dict[str, Set[str]]:
    """qname -> every mutex id the function may acquire, transitively."""
    acquired: Dict[str, Set[str]] = {
        fn.qname: _direct_lock_ids(program, fn, mutex_type_ids)
        for fn in program.functions.values() if fn.has_definition}
    changed = True
    while changed:
        changed = False
        for qname, locks in acquired.items():
            fn = program.functions[qname]
            for edge in graph.out_edges(fn):
                if not edge.confident:
                    continue
                # A waived call site (e.g. a thread-entry lambda whose body
                # runs on the spawned thread) contributes nothing to the
                # caller's acquired set either.
                if program.waiver_for("lockorder", fn.file, edge.call.line):
                    continue
                callee_locks = acquired.get(edge.callee.qname)
                if callee_locks and not callee_locks <= locks:
                    locks |= callee_locks
                    changed = True
    return acquired


def observed_edges(program: Program, mutex_type_ids=None
                   ) -> List[Tuple[Edge, str, int, str]]:
    """[(edge, file, line, via)] — every nesting the tree exhibits."""
    from ..allowlist import MUTEX_TYPE_IDS
    mutex_type_ids = mutex_type_ids or MUTEX_TYPE_IDS
    graph = CallGraph(program)
    trans = _transitive_locks(program, graph, mutex_type_ids)
    out: List[Tuple[Edge, str, int, str]] = []
    for fn in program.functions.values():
        if not fn.has_definition or not fn.locks:
            continue
        # Reconstruct lock lifetimes: a lock dies when the brace depth drops
        # below its declaration depth.
        events: List[Tuple[int, str, object]] = []
        for acq in fn.locks:
            events.append((acq.token_index, "acq", acq))
        depth = 0
        for i, tok in enumerate(fn.body_tokens):
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                events.append((i, "close", depth))
        calls_by_index = {c.token_index: c for c in fn.calls}
        for c in fn.calls:
            events.append((c.token_index, "call", c))
        events.sort(key=lambda e: (e[0], e[1] != "close"))
        held: List = []  # acquisitions, in order
        for _idx, kind, payload in events:
            if kind == "close":
                held = [a for a in held if a.depth <= payload]
            elif kind == "acq":
                inner = _mutex_identity(program, fn, payload.expr_tokens,
                                        mutex_type_ids)
                for outer_acq in held:
                    outer = _mutex_identity(program, fn,
                                            outer_acq.expr_tokens,
                                            mutex_type_ids)
                    out.append(((outer, inner), fn.file, payload.line,
                                fn.qname))
                held.append(payload)
            else:  # call while holding
                if not held:
                    continue
                # A waived call (thread-entry lambda, deferred closure) does
                # not actually run under the held lock: no edge at all.
                if program.waiver_for("lockorder", fn.file, payload.line):
                    continue
                for callee_set in _resolved_locksets(graph, trans, fn,
                                                     payload):
                    for inner in callee_set:
                        for outer_acq in held:
                            outer = _mutex_identity(
                                program, fn, outer_acq.expr_tokens,
                                mutex_type_ids)
                            out.append(((outer, inner), fn.file,
                                        payload.line,
                                        f"{fn.qname} -> {payload.name}()"))
    return out


def _resolved_locksets(graph: CallGraph, trans: Dict[str, Set[str]],
                       fn: Function, call) -> List[Set[str]]:
    out = []
    for edge in graph.out_edges(fn):
        if edge.call is call and edge.confident:
            locks = trans.get(edge.callee.qname)
            if locks:
                out.append(locks)
    return out


def parse_design_order_table(design_text: str) -> Set[Edge]:
    """Sanctioned pairs from the DESIGN.md §10 capability table."""
    pairs: Set[Edge] = set()
    for line in design_text.splitlines():
        if not line.strip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 2:
            continue
        m_subject = re.match(r"`([\w:]+)`", cells[0])
        if not m_subject:
            continue
        subject = m_subject.group(1)
        owner = subject.rsplit("::", 1)[0] if "::" in subject else ""
        order_cell = cells[-1]
        for m in re.finditer(r"before\s+`(\w+)`", order_cell):
            pairs.add((subject, f"{owner}::{m.group(1)}"))
        for m in re.finditer(r"after\s+`(\w+)`", order_cell):
            pairs.add((f"{owner}::{m.group(1)}", subject))
    return pairs


def _find_cycles(edges: Set[Edge]) -> List[List[str]]:
    graph: Dict[str, Set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    cycles: List[List[str]] = []
    state: Dict[str, int] = {}
    stack: List[str] = []

    def dfs(node: str) -> None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt, 0) == 1:
                cycles.append(stack[stack.index(nxt):] + [nxt])
            elif state.get(nxt, 0) == 0:
                dfs(nxt)
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            dfs(node)
    return cycles


def check(program: Program, sanctioned: Optional[Set[Edge]] = None,
          design_path: Optional[str] = None) -> List[Violation]:
    from ..allowlist import SANCTIONED_LOCK_EDGES
    if sanctioned is None:
        sanctioned = SANCTIONED_LOCK_EDGES
    violations: List[Violation] = []
    seen: Set[Tuple] = set()
    kept: Set[Edge] = set(sanctioned)
    for edge, file, line, via in observed_edges(program):
        if edge in sanctioned or edge[0] == edge[1]:
            # Same-identity "edges" come from distinct instances of the same
            # per-object mutex class (e.g. two WorkerQueue::mu during a
            # steal); cycle detection would misread them, and §10 already
            # forbids holding one while taking another via the leaf rule on
            # different identities.
            kept.add(edge)
            if edge[0] == edge[1] and edge not in sanctioned and \
                    not program.waiver_for("lockorder", file, line):
                violations.append(Violation(
                    "lockorder", file, line,
                    f"same mutex identity {edge[0]} acquired while held "
                    f"(via {via}) — self-deadlock unless the instances are "
                    f"provably distinct; waive with allow-lockorder if so"))
            continue
        if program.waiver_for("lockorder", file, line):
            kept.add(edge)
            continue
        key = (edge, file, line)
        if key in seen:
            continue
        seen.add(key)
        kept.add(edge)
        violations.append(Violation(
            "lockorder", file, line,
            f"unsanctioned lock nesting {edge[0]} -> {edge[1]} (via {via}); "
            f"DESIGN.md §10 sanctions only "
            f"{sorted(f'{a} -> {b}' for a, b in sanctioned)}"))

    for cycle in _find_cycles({e for e in kept if e[0] != e[1]}):
        violations.append(Violation(
            "lockorder", design_path or "(graph)", 0,
            "lock-order cycle: " + " -> ".join(cycle)))

    if design_path and os.path.isfile(design_path):
        with open(design_path, encoding="utf-8") as f:
            doc_pairs = parse_design_order_table(f.read())
        if doc_pairs != set(sanctioned):
            only_doc = sorted(f"{a} -> {b}" for a, b in
                              doc_pairs - set(sanctioned))
            only_tool = sorted(f"{a} -> {b}" for a, b in
                               set(sanctioned) - doc_pairs)
            violations.append(Violation(
                "lockorder", design_path, 0,
                f"DESIGN.md §10 order table drifted from the sanctioned "
                f"set: doc-only={only_doc} tool-only={only_tool}"))

    violations.sort(key=lambda v: (v.file, v.line))
    return violations
