"""Full-universe transition systems and the analyses built on them.

The transition system of a program has one node per universe state, arbitrary
initial states included, because stabilization properties quantify over the
whole universe rather than a reachable fragment. On top of the raw graph this
module provides SCC condensation (bottom components are the finite-state
stand-in for eventual behavior), terminal detection, cycle search restricted
to arbitrary node and edge sets, reproducible simulation runs, and the
mapping of computations and whole systems to specification sequences and
graphs with stuttering eliminated.
"""
from __future__ import annotations

import random
from array import array
from collections import defaultdict, deque
from itertools import accumulate, chain, compress, islice, repeat
from math import isqrt
from operator import sub
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from . import kernel
from .kernel import ModelError, Program, Signature, State

POLICIES = ("uniform-random", "round-robin")


class TransitionSystem:
    """The labeled transition graph over a program's full state universe.

    Nodes are state ids, the canonical mixed-radix encoding; no State is
    stored. `state(i)` decodes id i, and `states` iterates every State in
    id order, decoding as it goes. Edges are stored as flat CSR arrays: the
    out-edges of node i are the indices k in `offsets[i]:offsets[i + 1]`,
    `targets[k]` is the target id, and `actions[k]` is an action id, an
    index into `program.action_order`. Each node's edges follow canonical
    action order. `edges(i)` decodes them to `(position, action name,
    target id)` triples. Distinct actions with the same source and target
    keep separate edges; self-loops are retained.
    """

    __slots__ = ("program", "offsets", "targets", "actions")

    def __init__(self, program: Program, offsets, targets, actions):
        self.program = program
        self.offsets = offsets
        self.targets = targets
        self.actions = actions

    @property
    def size(self) -> int:
        return len(self.offsets) - 1

    def state(self, i: int) -> State:
        return self.program.signature.state_at(i)

    @property
    def states(self) -> Iterator[State]:
        return self.program.signature.states()

    def label(self, k: int) -> tuple[int, str]:
        """The (position, action name) of edge k."""
        return self.program.action_order[self.actions[k]]

    def edges(self, i: int) -> Iterator[tuple[int, str, int]]:
        """The out-edges of node i as (position, action name, target id)
        triples, in canonical action order."""
        order = self.program.action_order
        for k in range(self.offsets[i], self.offsets[i + 1]):
            pos, name = order[self.actions[k]]
            yield pos, name, self.targets[k]

    def edge_count(self) -> int:
        return len(self.targets)

    def __repr__(self):
        return "TransitionSystem(%r, %d states, %d edges)" % (
            self.program.name, self.size, self.edge_count())


def build_transition_system(program: Program,
                            cap: Optional[int] = None) -> TransitionSystem:
    """Materialize the complete transition graph, one node per universe
    state. Refuses universes above the size cap.

    Edges come from the program's window tables (kernel.compile_windows):
    each position contributes the row its window code selects."""
    kernel.check_cap(program.signature.size, cap=cap)
    tables = [(t.low_weight, t.span, t.rows)
              for t in kernel.compile_windows(program)]
    offsets = array("q", [0])
    targets: list[int] = []
    actions: list[int] = []
    for sid in range(program.signature.size):
        for low_weight, span, rows in tables:
            for action, delta in rows[sid // low_weight % span]:
                targets.append(sid + delta)
                actions.append(action)
        offsets.append(len(targets))
    return TransitionSystem(program, offsets, array("q", targets),
                            array("i", actions))


# --------------------------------------------------------------------------
# Strongly connected components.

class Condensation:
    """SCC condensation of a transition system.

    Components are emitted in reverse topological order (every edge of the
    component DAG points from a higher component id to a lower one), so
    bottom components cluster at the low ids. A singleton component is
    trivial when its state has no self-loop.
    """

    __slots__ = ("components", "comp_of", "comp_edges", "trivial", "bottoms")

    def __init__(self, components, comp_of, comp_edges, trivial, bottoms):
        self.components = components
        self.comp_of = comp_of
        self.comp_edges = comp_edges
        self.trivial = trivial
        self.bottoms = bottoms

    def __repr__(self):
        return "Condensation(%d components, %d bottom)" % (
            len(self.components), len(self.bottoms))


def condense(ts: TransitionSystem) -> Condensation:
    """Tarjan's algorithm, iterative to survive deep universes."""
    n = ts.size
    offsets, targets = ts.offsets, ts.targets
    UNSEEN = -1
    index = [UNSEEN] * n
    low = [0] * n
    on_stack = bytearray(n)
    scc_stack: list[int] = []
    comp_of = [0] * n
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != UNSEEN:
            continue
        index[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack[root] = 1
        # Each frame holds an iterator over its node's remaining targets.
        work = [(root, iter(targets[offsets[root]:offsets[root + 1]]))]
        while work:
            v, out = work[-1]
            for w in out:
                if index[w] == UNSEEN:
                    index[w] = low[w] = counter
                    counter += 1
                    scc_stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(targets[offsets[w]:offsets[w + 1]])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = scc_stack.pop()
                        on_stack[w] = 0
                        comp_of[w] = len(components)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(comp)))
    comp_edges = [set() for _ in components]
    has_loop = [False] * len(components)
    for s in range(n):
        c = comp_of[s]
        for t in targets[offsets[s]:offsets[s + 1]]:
            if comp_of[t] == c:
                has_loop[c] = True
            else:
                comp_edges[c].add(comp_of[t])
    trivial = tuple(
        len(comp) == 1 and not has_loop[c]
        for c, comp in enumerate(components))
    bottoms = tuple(c for c, out in enumerate(comp_edges) if not out)
    return Condensation(
        tuple(components), tuple(comp_of),
        tuple(tuple(sorted(e)) for e in comp_edges), trivial, bottoms)


def terminals(ts: TransitionSystem) -> list[State]:
    """States with no enabled action, in canonical order."""
    offsets = ts.offsets
    return [ts.state(i) for i in range(ts.size)
            if offsets[i] == offsets[i + 1]]


# --------------------------------------------------------------------------
# Cycle search.

def _bitset(nodes: Iterable[int], size: int) -> int:
    """The nodes as an int, node v at bit size - 1 - v (text in id order)."""
    text = bytearray(b"0") * size
    for v in nodes:
        text[v] = 49  # b"1"
    return int(text, 2) if size else 0


class EdgeGroups:
    """The edges of a CSR graph grouped once for many cycle questions: edge
    k from v is in group (targets[k] - v, keys[k]), every key True when keys
    is None, and each group is the bitset of its edges' targets."""

    __slots__ = ("size", "groups")

    def __init__(self, offsets, targets, keys=None):
        self.size = size = len(offsets) - 1
        # edge k's source: how many nodes after node 0 start their edges by k
        starts = array("i", bytes(4 * (len(targets) + 1)))
        for at in islice(offsets, 1, None):
            starts[at] += 1
        codes = zip(map(sub, targets, accumulate(starts)),
                    repeat(True) if keys is None else keys)
        members = defaultdict(lambda: array("i"))
        deque(map(array.append, map(members.__getitem__, codes), targets), 0)
        self.groups = {g: _bitset(members.pop(g), size) for g in list(members)}

    def has_cycle(self, nodes: Iterable[int], keep: Callable = bool) -> bool:
        """Whether the subgraph on the nodes and the edges whose key passes
        keep has a cycle: iff a node survives rounds of alive &= OR over d of
        shift(alive, d) & targets_d. After ceil(sqrt(|nodes|)) rounds, which
        cap a deep DAG's bit work at O(|nodes|^1.5), a Kahn peel finishes."""
        kept = {}  # per delta, the targets of the kept edges
        for (d, key), bits in self.groups.items():
            if keep(key):
                kept[d] = kept.get(d, 0) | bits
        alive = _bitset(nodes, self.size)
        for _ in range(isqrt(max(alive.bit_count(), 1) - 1) + 1):
            reached = 0
            for d, bits in kept.items():
                reached |= (alive >> d if d >= 0 else alive << -d) & bits
            if reached & alive == alive:
                return bool(alive)
            alive &= reached
        return self._peel(alive, kept)

    def _peel(self, alive: int, kept: dict) -> bool:
        """has_cycle on the bitsets alive and kept, by a linear Kahn peel."""
        digits = "0%db" % self.size  # per delta, sources of edges within
        rows = [(d, format(alive & ((bits & alive) << d if d >= 0 else (
            bits & alive) >> -d), digits)) for d, bits in kept.items()]
        indegree = [0] * self.size
        for d, row in rows:
            for v in compress(range(self.size), map("1".__eq__, row)):
                indegree[v + d] += 1
        ready = [v for v in compress(range(self.size), map(
            "1".__eq__, format(alive, digits))) if not indegree[v]]
        while ready:
            v = ready.pop()
            for d, row in rows:
                if row[v] == "1":
                    indegree[v + d] -= 1
                    if not indegree[v + d]:
                        ready.append(v + d)
        return any(indegree)  # the nodes left on or after a cycle


@dataclass(frozen=True)
class Cycle:
    """A concrete cycle: labels[i] takes states[i] to states[(i+1) % k],
    so it replays through the kernel."""

    states: tuple[State, ...]
    labels: tuple[tuple[int, str], ...]


def find_cycle(ts: TransitionSystem, nodes: Iterable[int],
               edge_ok=None) -> Optional[Cycle]:
    """First cycle in the subgraph on the given node ids and the edges k
    with a true edge_ok[k] (all when None), or None. EdgeGroups.has_cycle
    decides first; the depth-first search that builds the cycle runs only
    when there is one. Self-loops count as cycles of length one."""
    nodes = list(nodes)
    offsets, targets, actions = ts.offsets, ts.targets, ts.actions
    if not nodes or not EdgeGroups(
            offsets, targets, edge_ok).has_cycle(nodes):
        return None
    keep = set(nodes)
    order = ts.program.action_order

    def out_edges(v):
        for k in range(offsets[v], offsets[v + 1]):
            t = targets[k]
            if t in keep and (edge_ok is None or edge_ok[k]):
                pos, name = order[actions[k]]
                yield pos, name, t

    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(keep, WHITE)
    in_label: dict[int, tuple[int, str]] = {}
    for start in sorted(keep):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        # Each frame holds a generator over its node's remaining edges.
        path = [(start, out_edges(start))]
        while path:
            v, out = path[-1]
            for pos, name, w in out:
                if color[w] == GRAY:
                    at = next(k for k, (u, _) in enumerate(path) if u == w)
                    ids = [u for u, _ in path[at:]]
                    labels = [in_label[u] for u in ids[1:]] + [(pos, name)]
                    return Cycle(
                        tuple(map(ts.state, ids)), tuple(labels))
                if color[w] == WHITE:
                    color[w] = GRAY
                    in_label[w] = (pos, name)
                    path.append((w, out_edges(w)))
                    break
            else:
                color[v] = BLACK
                path.pop()
    return None


# --------------------------------------------------------------------------
# Simulation.

@dataclass(frozen=True)
class Computation:
    """A simulated run. labels[i] takes states[i] to states[i+1]. When the
    run revisits a state, the repeat occurrence is kept as the final state
    and lasso_start gives the index of its first occurrence: the suffix
    states[lasso_start:] is a cycle the daemon may repeat forever."""

    program: Program
    states: tuple[State, ...]
    labels: tuple[tuple[int, str], ...]
    lasso_start: Optional[int]
    hit_terminal: bool

    @property
    def maximal(self) -> bool:
        """True when the run is a complete computation: it either ended in
        a terminal state or closed a lasso (an infinite computation)."""
        return self.hit_terminal or self.lasso_start is not None

    def __len__(self):
        return len(self.states)


def run(program: Program, start: State, steps: int, seed: int = 0,
        policy: str = "uniform-random") -> Computation:
    """Simulate the central daemon for at most `steps` transitions.

    uniform-random draws among the enabled actions with a seeded generator;
    round-robin keeps a rotating pointer over the canonical action list and
    fires the first enabled action at or after it. Stops early at a terminal
    state or when a state repeats (the run is then a lasso and already shows
    everything an extension could).
    """
    if start.sig != program.signature:
        raise ModelError("start state does not belong to program %r"
                         % program.name)
    if steps < 0:
        raise ModelError("steps must be nonnegative")
    if policy not in POLICIES:
        raise ModelError("unknown policy %r; choose from %s"
                         % (policy, ", ".join(POLICIES)))
    rng = random.Random(seed)
    order = program.action_order
    pointer = 0
    states = [start]
    labels: list[tuple[int, str]] = []
    seen = {start.values: 0}
    lasso_start = None
    hit_terminal = False
    current = start
    while len(labels) < steps:
        enabled = kernel.enabled_actions(program, current)
        if not enabled:
            hit_terminal = True
            break
        if policy == "uniform-random":
            pos, name = rng.choice(enabled)
        else:
            enabled_set = set(enabled)
            for k in range(len(order)):
                cand = order[(pointer + k) % len(order)]
                if cand in enabled_set:
                    pos, name = cand
                    pointer = (pointer + k + 1) % len(order)
                    break
        current = kernel.apply(program, current, pos, name)
        states.append(current)
        labels.append((pos, name))
        if current.values in seen:
            lasso_start = seen[current.values]
            break
        seen[current.values] = len(states) - 1
    return Computation(program, tuple(states), tuple(labels),
                       lasso_start, hit_terminal)


# --------------------------------------------------------------------------
# Specification images.

@dataclass(frozen=True)
class SpecSequence:
    """A computation's image: mapped states with stuttering eliminated.
    stutter_divergent marks an infinite computation whose image is eventually
    constant, i.e. one that stops making visible progress."""

    states: tuple[State, ...]
    stutter_divergent: bool

    def __len__(self):
        return len(self.states)


def image(comp: Computation, mapping) -> SpecSequence:
    """Map a computation to specification states and collapse consecutive
    repeats. The lasso suffix diverges when its image is a single state."""
    bound = mapping.bind(comp.program)
    mapped = [bound(s) for s in comp.states]
    seq = [mapped[0]]
    for m in mapped[1:]:
        if m != seq[-1]:
            seq.append(m)
    divergent = False
    if comp.lasso_start is not None:
        tail = mapped[comp.lasso_start:]
        divergent = all(m == tail[0] for m in tail)
    return SpecSequence(tuple(seq), divergent)


@dataclass(frozen=True)
class InducedSpecification:
    """The image of a whole transition system: every specification state
    with a preimage, and every non-stutter image of a program edge. The
    program ideally stabilizes, by construction, to the specification this
    graph denotes."""

    signature: Signature
    nodes: frozenset
    edges: frozenset


def induced_specification(program: Program, mapping,
                          cap: Optional[int] = None) -> InducedSpecification:
    ts = build_transition_system(program, cap)
    bound = mapping.bind(program)
    ids = bound.ids(ts)
    # a source id repeats once per out-edge
    pairs = set(zip(chain.from_iterable(map(
        repeat, ids, map(sub, ts.offsets[1:], ts.offsets))),
        map(ids.__getitem__, ts.targets)))
    image = {m: bound.signature.state_at(m) for m in set(ids)}
    edges = frozenset((image[m], image[n]) for m, n in pairs if m != n)
    return InducedSpecification(bound.signature, frozenset(image.values()),
                                edges)


# --------------------------------------------------------------------------
# DOT export.

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(ts: TransitionSystem,
           color_pred: Optional[Callable[[State], bool]] = None,
           name: str = "ts") -> str:
    """Graphviz source for the transition system. Nodes are labeled with
    canonical state text; edges with `position:action`. States satisfying
    color_pred are filled."""
    out = ["digraph %s {" % name, "  rankdir=LR;",
           '  node [shape=box, fontname="monospace"];']
    for i, s in enumerate(ts.states):
        attrs = ['label="%s"' % _dot_escape(s.text())]
        if color_pred is not None and color_pred(s):
            attrs.append('style=filled, fillcolor=lightblue')
        out.append("  s%d [%s];" % (i, ", ".join(attrs)))
    for i in range(ts.size):
        for pos, action, t in ts.edges(i):
            out.append('  s%d -> s%d [label="%d:%s"];' % (i, t, pos, action))
    out.append("}")
    return "\n".join(out) + "\n"


def condensation_to_dot(ts: TransitionSystem, cond: Condensation,
                        name: str = "condensation") -> str:
    """Graphviz source for the SCC DAG. Bottom components get a double
    border; labels show the component size and one sample state."""
    out = ["digraph %s {" % name, "  rankdir=LR;",
           '  node [shape=box, fontname="monospace"];']
    bottoms = set(cond.bottoms)
    for c, comp in enumerate(cond.components):
        sample = ts.state(comp[0]).text()
        label = "%d state%s\\n%s" % (
            len(comp), "" if len(comp) == 1 else "s", _dot_escape(sample))
        attrs = ['label="%s"' % label]
        if c in bottoms:
            attrs.append("peripheries=2")
        out.append("  c%d [%s];" % (c, ", ".join(attrs)))
    for c, targets in enumerate(cond.comp_edges):
        for t in targets:
            out.append("  c%d -> c%d;" % (c, t))
    out.append("}")
    return "\n".join(out) + "\n"
