"""Full-universe transition systems and the analyses built on them.

The transition system of a program has one node per universe state, arbitrary
initial states included, because stabilization properties quantify over the
whole universe rather than a reachable fragment. A set of states is a
bitset, one int with bit v for state id v, and so is the relation: per id
delta d, the states with an edge to their id plus d. This module provides
images (`post`, `pre`), SCC condensation (bottom components are the
finite-state stand-in for eventual behavior), and cycle questions
restricted to arbitrary node and edge sets. Simulation runs are in
`simulation`, Graphviz export in `text`.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cache, cached_property, reduce
from itertools import compress, count
from math import isqrt
from operator import add, or_
from typing import Callable, Iterable, Iterator, Optional

from . import kernel
from .kernel import State
from .program import Program


# --------------------------------------------------------------------------
# Bitsets and images.

_TEXT = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_SET_BITS = [[b for b in range(8) if x >> b & 1] for x in range(256)]


def bitset(flags: Iterable) -> int:
    """The bitset of the indices whose flag is true."""
    return _bits(bytes(map(bool, flags)))


def _bits(flags: bytes) -> int:
    text = flags.translate(_TEXT)[::-1]  # flags of 0s and 1s
    return int(text, 2) if text else 0


def flags(bits: int, size: int) -> bytes:
    """Per index below size, 1 where bits has it and 0 elsewhere."""
    return format(bits, "0%db" % size)[::-1].encode().translate(_FLAGS)


def members(bits: int) -> list[int]:
    """The indices in the bitset, ascending, read off the set's text."""
    return list(compress(count(), flags(bits, 1)))


def least(bits: int) -> int:
    """The least index in a nonempty bitset."""
    return (bits & -bits).bit_length() - 1


def shift(bits: int, d: int) -> int:
    return bits << d if d >= 0 else bits >> -d


def periodic(codes: Iterable[int], place: int, count: int,
             size: int) -> int:
    """The ids below size with id // place % count among the codes: a
    block per code every count * place ids, tiled by shift-or doubling."""
    width = count * place
    if place == 1:  # a flag per code: linear even as wide as the universe
        bits = bitset(map(set(codes).__contains__, range(count)))
    else:
        bits = reduce(or_, ((1 << place) - 1 << code * place
                            for code in codes), 0)
    while width < size:
        bits |= bits << width
        width *= 2
    return bits & (1 << size) - 1


def post(bits: int, rel: dict) -> int:
    """The nodes with an edge from the set; rel maps each delta d to the
    bitset of the sources of its edges, each v to v + d."""
    out = 0
    for d, sources in rel.items():
        out |= shift(bits & sources, d)
    return out


def pre(bits: int, rel: dict) -> int:
    """The nodes with an edge into the set."""
    out = 0
    for d, sources in rel.items():
        out |= shift(bits, -d) & sources
    return out


def within(nodes: int, rel: dict) -> dict:
    """The relation's edges with both ends in the set, empty deltas left
    out."""
    return {d: e for d, sources in rel.items()
            if (e := nodes & sources & shift(nodes, -d))}


# --------------------------------------------------------------------------
# The transition system.

class TransitionSystem:
    """The labeled transition graph over a program's full state universe.

    Nodes are state ids; no State is stored. `state(i)` decodes id i, and
    `states` iterates every State in id order. `edges(i)` reads state i's
    edges from the program's window tables (`Program.windows`) as
    (position, action name, target id) triples, positions ascending, then
    row order; distinct actions with the same source and target keep
    separate edges, and self-loops are retained. `sources[d]` is the bitset
    of the states with an edge to their id plus d, `full` that of every
    state and `terminal` that of the states with no edge.
    """

    __slots__ = ("program", "sources", "size", "full", "terminal")

    def __init__(self, program: Program, sources: dict):
        self.program, self.sources = program, sources
        self.size = program.signature.size
        self.full = (1 << self.size) - 1
        self.terminal = self.full & ~pre(self.full, sources)

    def state(self, i: int) -> State:
        return self.program.signature.state_at(i)

    @property
    def states(self) -> Iterator[State]:
        return self.program.signature.states()

    def edges(self, i: int) -> Iterator[tuple[int, str, int]]:
        order = self.program.action_order
        return (order[action] + (t,) for action, t in _moves(self.program, i))

    def edge_count(self) -> int:
        # a window code selects its row in size / len(rows) states
        return sum(self.size // len(t.rows) * sum(map(len, t.rows))
                   for t in self.program.windows)


def _moves(program: Program, i: int) -> list[tuple[int, int]]:
    """State i's edges as (action id, target id) pairs, in `edges` order:
    the rows its window codes select, each code delta times the place
    value of the window's last slot."""
    weights = program.signature.weights
    return [(t.first + k, i + delta * place) for t in program.windows
            for place in (weights[t.hi],)
            for k, delta in t.rows[i // place % len(t.rows)]]


def build_transition_system(program: Program,
                            cap: Optional[int] = None) -> TransitionSystem:
    """The complete transition graph, one node per universe state. Refuses
    universes above the size cap.

    The states whose window code at a position is c form a periodic set,
    so each delta's sources are one `periodic` set per table."""
    sig = program.signature
    kernel.check_cap(sig.size, cap=cap)
    sources: dict = {}
    for t in program.windows:
        codes, place = defaultdict(set), sig.weights[t.hi]
        for code, row in enumerate(t.rows):
            for _, delta in row:
                codes[delta].add(code)
        for delta, group in codes.items():
            d = delta * place  # the state-id delta
            sources[d] = sources.get(d, 0) | periodic(
                group, place, len(t.rows), sig.size)
    return TransitionSystem(program, sources)


# --------------------------------------------------------------------------
# Cycles and strongly connected components.

def trim(nodes: int, rel: dict) -> int:
    """What is left of the nodes once every node without a successor or a
    predecessor among them goes, repeatedly: the nodes on a cycle and
    between cycles. Rounds of nodes &= post(nodes) & pre(nodes) stop after
    ceil(sqrt(|nodes|)), which caps a deep acyclic graph's bit work at
    O(|nodes|^1.5), and a linear peel finishes."""
    for _ in range(isqrt(max(nodes.bit_count(), 1) - 1) + 1):
        kept = nodes & post(nodes, rel) & pre(nodes, rel)
        if kept == nodes:
            return nodes
        nodes = kept
    return _peel(nodes, rel)


def _peel(alive: int, rel: dict) -> int:
    """trim's linear finisher: count each node's predecessors in the set
    and remove, one by one, the nodes left with none; then the same over
    the reversed relation. The first pass keeps the nodes a cycle reaches,
    and the second those of them that reach a cycle."""
    for rel in rel, {-d: shift(sources, d) for d, sources in rel.items()}:
        size = alive.bit_length()
        ins, rows = [0] * size, []
        for d, tails in within(alive, rel).items():
            rows.append((d, flags(tails, size)))
            ins = list(map(add, ins, flags(shift(tails, d), size)))
        removed = bytearray(size)
        ready = [v for v in members(alive) if not ins[v]]
        while ready:
            v = ready.pop()
            removed[v] = 1
            for d, tails in rows:
                if tails[v]:
                    ins[v + d] -= 1
                    if not ins[v + d]:
                        ready.append(v + d)
        alive &= ~_bits(removed)
    return alive


def edges_where(ts: TransitionSystem, nodes: int, keep: Callable) -> dict:
    """The relation of the edges with both ends in the nodes whose (source
    id, target id) passes keep. keep sees no other edge, and sees parallel
    edges (one source, one target) once. The bytes holding nodes are listed
    once off a little-endian byte view, each delta's sources are read off
    those bytes of its own view, and its kept ones written into one."""
    rel, width = {}, (ts.size + 7) // 8
    at = list(compress(count(), nodes.to_bytes(width, "little")))
    for d, inner in within(nodes, ts.sources).items():
        view, out = inner.to_bytes(width, "little"), bytearray(width)
        tails = [8 * i + b for i in compress(at, map(view.__getitem__, at))
                 for b in _SET_BITS[view[i]]]
        for v in compress(tails, map(keep, tails, map(d.__add__, tails))):
            out[v >> 3] |= 1 << (v & 7)
        if bits := int.from_bytes(out, "little"):
            rel[d] = bits
    return rel


class Condensation:
    """SCC condensation of the subgraph on a node set that no edge leaves,
    held as bitsets: `singles` holds the trivial components (one state, no
    self-loop), `cores` the others, and `count` their number. Bottom c, for
    c in `bottoms`, is the c-th by least state id, and `bits(c)` is its
    bitset. `components` lists every component's sorted state ids, the
    bottoms first and then the rest by least state id."""

    def __init__(self, ts: TransitionSystem, singles: int, cores: list):
        self.ts, self.singles, self.cores = ts, singles, cores
        self.count = singles.bit_count() + len(cores)
        # a terminal bottom is (its id, 0), its bitset made on demand
        self._bottoms = sorted([(least(c), c) for c in cores if not post(
            c, ts.sources) & ~c] + [(v, 0) for v in members(ts.terminal
                                                            & singles)])
        self.bottoms = tuple(range(len(self._bottoms)))

    def bits(self, c: int) -> int:
        """Bottom component c's bitset."""
        v, bits = self._bottoms[c]
        return bits or 1 << v

    @cached_property
    def components(self) -> list:
        firsts = {v for v, _ in self._bottoms}
        return sorted([tuple(members(c)) for c in self.cores]
                      + [(v,) for v in members(self.singles)],
                      key=lambda comp: (comp[0] not in firsts, comp[0]))


def condense(ts: TransitionSystem, nodes: Optional[int] = None
             ) -> Condensation:
    """The SCCs of the subgraph on the nodes (every state when None), which
    no edge may leave, by trimming and forward-backward search (Gentilini,
    Piazza and Policriti, SODA 2003): trimmed nodes are trivial components;
    the rest splits into a pivot's component (its forward set met with its
    backward set), the rest of the forward set, and everything else, and
    each part is trimmed and split again."""
    rel = ts.sources
    back = {-d: shift(sources, d) for d, sources in rel.items()}
    singles, cores, parts = 0, [], [ts.full if nodes is None else nodes]
    while parts:
        part = parts.pop()
        core = trim(part, rel)
        singles |= part & ~core
        if core:
            pivot = core & -core
            forward = _reach(pivot, core, rel)
            comp = _reach(pivot, forward, back)
            if comp == pivot and not pivot & rel.get(0, 0):
                singles |= comp
            else:
                cores.append(comp)
            parts += [forward & ~comp, core & ~forward]
    return Condensation(ts, singles, cores)


def _reach(seed: int, nodes: int, rel: dict) -> int:
    """The nodes the seed reaches inside the nodes, by doubling ladders:
    rung (step, chain) of delta d holds the v whose d-edges run v, v + d,
    ..., v + step inside, for d != 0 (a self-loop's chain never empties)."""
    ladder = []
    for d, sources in rel.items():
        chain, step = sources & nodes & shift(nodes, -d), d
        while d and chain:
            ladder.append((step, chain))
            chain &= shift(chain, -step)
            step *= 2
    reached = 0
    while reached != seed:
        reached = seed
        for step, chain in ladder:
            seed |= shift(seed & chain, step)
    return seed


@kernel.record
class Cycle:
    """A concrete cycle: labels[i] takes states[i] to states[(i+1) % k],
    so it replays through the kernel."""

    states: tuple[State, ...]
    labels: tuple[tuple[int, str], ...]


def find_cycle(ts: TransitionSystem, nodes: int,
               rel: Optional[dict] = None) -> Optional[Cycle]:
    """A cycle in the subgraph on the node bitset and the relation (every
    edge when None), or None when its trim is empty. From the trim's least
    node, a walk takes each node's first edge, in `edges` order, that stays
    in the trim and in the relation (every trimmed node has one) until a
    node repeats; the loop of that lasso is the cycle. Bits are read off
    little-endian byte views, made once, as a shift copies the whole int."""
    rel = ts.sources if rel is None else rel
    core = trim(nodes, rel)
    if not core:
        return None
    width = (ts.size + 7) // 8
    inside = core.to_bytes(width, "little")
    view = cache(lambda d: rel.get(d, 0).to_bytes(width, "little"))
    v, at, path = least(core), {}, []
    while v not in at:
        at[v] = len(path)
        pos, name, t = next(e for e in ts.edges(v)
                            if inside[e[2] >> 3] >> (e[2] & 7) & 1
                            and view(e[2] - v)[v >> 3] >> (v & 7) & 1)
        path.append((v, (pos, name)))
        v = t
    ids, labels = zip(*path[at[v]:])
    return Cycle(tuple(map(ts.state, ids)), labels)


def frozen(program: Program, bound) -> Callable[[Iterable[int]], bool]:
    """The test that no cycle of the universe misses Changes(slots), read
    off the window tables and `bound`'s digit tables (a BoundMapping):
    True once every position is frozen, moving on no such cycle. p is
    frozen when, for each valuation of the frozen positions within two of
    it, its moves that keep each slot in `slots` form no cycle over its
    local codes (its slots' digits; a delta of 0 is a self-loop), its
    window's and those slots' other positions ranging freely (local
    reasoning, Farahat and Ebnenasir, ICDCS 2012). No position is frozen
    that writes another's slot, or whose slots in `slots` read a position
    more than two away. Each position's test is cached."""
    sig, n, digits = program.signature, program.n, bound.digits
    w, pos = sig.weights, [p for p, _, _ in sig.slots]
    cut = program.cut  # p's slots end at cut[p]

    @cache
    def still(p: int, near: range, fixed: tuple, rel: tuple) -> bool:
        """Whether p is frozen once the positions in fixed are, keeping the
        slots in rel; x is a code of the slots of near, which p's window
        and rel's digits read, and a node is fixed's codes and p's."""
        lo, a, b, hi = cut[near[0] - 1], cut[p - 1], cut[p], cut[near[-1]]
        at = lambda x, i, j: x % (w[i] // w[hi]) // (w[j] // w[hi])
        t, edges = program.windows[p - 1], set()
        for x in range(w[lo] // w[hi]):
            for _, d in t.rows[at(x, t.lo, t.hi)]:
                y = x + d * (w[t.hi] // w[hi])
                if y - x != (at(y, a, b) - at(x, a, b)) * (w[b] // w[hi]):
                    return False  # a row writes another position
                if all(vals[at(x, i, j)] == vals[at(y, i, j)]
                       for i, j, vals in map(digits.__getitem__, rel)):
                    key = tuple(at(x, cut[q - 1], cut[q]) for q in fixed)
                    edges.add(((key, at(x, a, b)), (key, at(y, a, b))))
        while edges:  # an edge whose tail is no head goes, repeatedly
            heads = {v for _, v in edges}
            if edges == (edges := {e for e in edges if e[0] in heads}):
                return False  # the edges left close a cycle
        return True

    def proves(slots: Iterable[int]) -> bool:
        slots, done, todo = sorted(slots), set(), set(range(1, n + 1))
        while todo:
            p = todo.pop()
            rel = tuple(i for i in slots if digits[i][0] < cut[p]
                        and cut[p - 1] < digits[i][1])
            ends = [pos[k] for i in rel
                    for k in (digits[i][0], digits[i][1] - 1)]
            near = range(max(min([p - 1, *ends]), 1),
                         min(max([p + 1, *ends]), n) + 1)
            if p - 2 <= near[0] and near[-1] <= p + 2 and still(
                    p, near, tuple(q for q in near if q in done), rel):
                done.add(p)  # the positions within two are asked again
                todo |= set(range(max(p - 2, 1), min(p + 2, n) + 1)) - done
        return len(done) == n

    return proves
