"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately naive (exhaustive enumeration, bounded
fixpoints) so they do not share code paths with the solvers under test.
"""
from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from vassgames.applications import (
    And,
    Atom,
    Diamond,
    FiniteLTS,
    GuardedBox,
    Mu,
    Nu,
    Or,
    Var,
)
from vassgames.core import (
    Budget,
    BudgetExceeded,
    CounterOp,
    DEC,
    INC,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    leq,
    lt,
)
from vassgames.parity import FiniteParityGame
from vassgames.semantics import vass_step
from vassgames.solver import OutGame


# ---------------------------------------------------------------------------
# random instances


def random_counter_game(
    rng: random.Random,
    n_states: int,
    n_counters: int,
    single_sided: bool,
    max_color: int = 3,
    max_out: int = 3,
) -> IntegerGame:
    """Deadlock-free random game; every state keeps a Nop or Inc exit."""
    counters = tuple("c%d" % (i + 1) for i in range(n_counters))
    states = []
    for i in range(n_states):
        owner = rng.choice([0, 0, 1])
        states.append(State("q%d" % i, owner, rng.randint(0, max_color)))
    transitions = []
    tnum = 0
    for s in states:
        n_out = rng.randint(1, max_out)
        for j in range(n_out):
            target = "q%d" % rng.randrange(n_states)
            if (single_sided and s.owner == 1) or not counters:
                op = NOP_OP
            elif j == 0:
                op = NOP_OP if rng.random() < 0.6 else CounterOp(INC, rng.choice(counters))
            else:
                op = CounterOp(rng.choice([INC, DEC, DEC]), rng.choice(counters))
            transitions.append(Transition("t%d" % tnum, s.name, op, target))
            tnum += 1
    return IntegerGame(counters, tuple(states), tuple(transitions))


def random_parity_game(rng: random.Random, n: int, max_color: int = 4, max_out: int = 2) -> FiniteParityGame:
    vertices = tuple(("v%d" % i, rng.randint(0, 1), rng.randint(0, max_color)) for i in range(n))
    edges = []
    for i in range(n):
        for _ in range(rng.randint(1, max_out)):
            edges.append(("v%d" % i, "v%d" % rng.randrange(n)))
    return FiniteParityGame(vertices, tuple(sorted(set(edges))))


def random_lts(rng: random.Random, n_states: int, n_edges: int, actions: Sequence[str]) -> FiniteLTS:
    states = tuple("s%d" % i for i in range(n_states))
    edges = []
    for _ in range(n_edges):
        edges.append((rng.choice(states), rng.choice(actions), rng.choice(states)))
    return FiniteLTS(states, tuple(sorted(set(edges))))


def random_guarded_formula(rng: random.Random, vass: IntegerGame, depth: int, env: Tuple[str, ...] = ()):
    """Closed positive guarded formula of nesting depth <= depth."""
    choices = ["atom"]
    if env:
        choices += ["var"]
    if depth > 0:
        choices += ["and", "or", "dia", "gbox", "mu", "nu"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(vass.state_names()))
    if kind == "var":
        return Var(rng.choice(env))
    if kind == "and":
        return And(random_guarded_formula(rng, vass, depth - 1, env), random_guarded_formula(rng, vass, depth - 1, env))
    if kind == "or":
        return Or(random_guarded_formula(rng, vass, depth - 1, env), random_guarded_formula(rng, vass, depth - 1, env))
    if kind == "dia":
        return Diamond(random_guarded_formula(rng, vass, depth - 1, env))
    if kind == "gbox":
        return GuardedBox(random_guarded_formula(rng, vass, depth - 1, env))
    var = "X%d" % len(env)
    body = random_guarded_formula(rng, vass, depth - 1, env + (var,))
    return Mu(var, body) if kind == "mu" else Nu(var, body)


# ---------------------------------------------------------------------------
# brute-force parity oracle


def brute_force_parity(game: FiniteParityGame) -> Tuple[Set[object], Set[object]]:
    """Winner per vertex by enumerating both players' positional strategies.
    Only usable on tiny games."""
    n = len(game.vertices)
    owner = [o for _, o, _ in game.vertices]
    color = [c for _, _, c in game.vertices]
    succ = game.succ
    ids = [v for v, _, _ in game.vertices]
    p0 = [v for v in range(n) if owner[v] == 0]
    p1 = [v for v in range(n) if owner[v] == 1]

    def outcome(nxt: Dict[int, int], start: int) -> bool:
        seen = {}
        path = []
        v = start
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = nxt[v]
        cyc = path[seen[v]:]
        return max(color[u] for u in cyc) % 2 == 0

    w0 = set()
    for start in range(n):
        win = False
        for c0 in itertools.product(*(succ[v] for v in p0)):
            s0 = dict(zip(p0, c0))
            good = True
            for c1 in itertools.product(*(succ[v] for v in p1)):
                nxt = dict(s0)
                nxt.update(zip(p1, c1))
                if not outcome(nxt, start):
                    good = False
                    break
            if good:
                win = True
                break
        if win:
            w0.add(ids[start])
    return w0, set(ids) - w0


# ---------------------------------------------------------------------------
# bounded VASS exploration


def vass_successors(
    game: IntegerGame, q: str, vec: Tuple[int, ...], cap: int, allowed_tids: Optional[Set[str]] = None
) -> List[Tuple[str, Tuple[int, ...]]]:
    """Concrete VASS successors staying within [0, cap]; transitions whose
    update would leave the box are dropped."""
    cidx = {c: i for i, c in enumerate(game.counters)}
    out = []
    for t in game.out(q):
        if allowed_tids is not None and t.tid not in allowed_tids:
            continue
        nv = list(vec)
        if t.op.counter is not None:
            i = cidx[t.op.counter]
            nv[i] += t.op.delta
            if nv[i] < 0 or nv[i] > cap:
                continue
        out.append((t.target, tuple(nv)))
    return out


def stays_below_cap(
    game: IntegerGame, starts: Sequence[Tuple[str, Tuple[int, ...]]], cap: int
) -> bool:
    """True iff no play from the starts can push any counter up to cap (so a
    cap-bounded oracle explores the full relevant space)."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        q, vec = stack.pop()
        if any(v >= cap for v in vec):
            return False
        for nxt in vass_successors(game, q, vec, cap):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def weaksim_oracle(
    fs: FiniteLTS,
    s0: str,
    vass: IntegerGame,
    labels: Dict[str, str],
    q0: str,
    theta: Dict[str, int],
    cap: int,
) -> bool:
    """Greatest fixpoint of the weak simulation conditions on the capped
    product; counter values above cap are treated as unreachable."""
    lbl = {t.tid: labels.get(t.tid, "tau") for t in vass.transitions}
    tau_tids = {tid for tid, a in lbl.items() if a == "tau"}
    confs = [
        (q, vec)
        for q in vass.state_names()
        for vec in itertools.product(range(cap + 1), repeat=len(vass.counters))
    ]

    def tau_closure(starts: Set[Tuple[str, Tuple[int, ...]]]) -> Set[Tuple[str, Tuple[int, ...]]]:
        seen = set(starts)
        stack = list(starts)
        while stack:
            q, vec = stack.pop()
            for nxt in vass_successors(vass, q, vec, cap, tau_tids):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    weak: Dict[Tuple[str, Tuple[int, ...], str], Set[Tuple[str, Tuple[int, ...]]]] = {}
    actions = sorted({a for _, a, _ in fs.edges})
    for q, vec in confs:
        pre = tau_closure({(q, vec)})
        for a in actions:
            if a == "tau":
                weak[(q, vec, a)] = set(pre)
                continue
            mid = set()
            for q1, v1 in pre:
                for nxt in vass_successors(vass, q1, v1, cap, {tid for tid, l in lbl.items() if l == a}):
                    mid.add(nxt)
            weak[(q, vec, a)] = tau_closure(mid)

    rel = {(s, q, vec) for s in fs.states for q, vec in confs}
    changed = True
    while changed:
        changed = False
        for s, q, vec in sorted(rel):
            ok = True
            for a, s2 in fs.out(s):
                if not any((s2, q2, v2) in rel for q2, v2 in weak[(q, vec, a)]):
                    ok = False
                    break
            if not ok:
                rel.discard((s, q, vec))
                changed = True
    vec0 = tuple(theta[c] for c in vass.counters)
    return (s0, q0, vec0) in rel


def mucalc_oracle(vass: IntegerGame, phi, vec_cap: int) -> Set[Tuple[str, Tuple[int, ...]]]:
    """Direct semantics over the capped configuration space; modal steps that
    would leave the box are treated as absent."""
    confs = [
        (q, vec)
        for q in vass.state_names()
        for vec in itertools.product(range(vec_cap + 1), repeat=len(vass.counters))
    ]
    all_set = set(confs)
    succ = {
        (q, vec): vass_successors(vass, q, vec, vec_cap)
        for q, vec in confs
    }

    def ev(f, env: Dict[str, Set]) -> Set:
        if isinstance(f, Atom):
            return {(q, v) for q, v in confs if q == f.name}
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, And):
            return ev(f.left, env) & ev(f.right, env)
        if isinstance(f, Or):
            return ev(f.left, env) | ev(f.right, env)
        if isinstance(f, Diamond):
            body = ev(f.body, env)
            return {c for c in confs if any(n in body for n in succ[c])}
        if isinstance(f, GuardedBox):
            body = ev(f.body, env)
            return {
                (q, v)
                for q, v in confs
                if vass.state(q).owner == 1 and all(n in body for n in succ[(q, v)])
            }
        if isinstance(f, (Mu, Nu)):
            cur = set() if isinstance(f, Mu) else set(all_set)
            while True:
                env2 = dict(env)
                env2[f.var] = cur
                nxt = ev(f.body, env2)
                if nxt == cur:
                    return cur
                cur = nxt
        raise TypeError("oracle cannot evaluate %r" % (f,))

    return ev(phi, {})


# ---------------------------------------------------------------------------
# reference out-game unfolding: every expansion recomputes the ancestors over
# all nodes and tests coverage against all of beta.  solver.build_out_game
# must build the same out-games.


def reference_covered_by(beta: Iterable[PartialConfig], gamma: PartialConfig) -> bool:
    """Coverability of a label against the union of the smaller frontiers:
    for every tracked counter c, dropping c from gamma must land above some
    element of beta (matching state and domain)."""
    beta = list(beta)
    for c in sorted(gamma.dom):
        dropped = gamma.drop(c)
        if not any(leq(b, dropped) for b in beta):
            return False
    return True


def reference_build_out_game(
    game: IntegerGame,
    gamma: PartialConfig,
    beta: Iterable[PartialConfig],
    budget: Optional[Budget] = None,
) -> OutGame:
    """Unfold the game from gamma (domain C nonempty) into a finite game over
    the untracked counters.

    Nodes are labeled with configurations of domain C.  A node whose label is
    not covered by beta becomes a losing (color 1) leaf; a node whose label
    strictly dominates an ancestor's becomes a winning (color 0) leaf; other
    nodes expand along the VASS-enabled transitions, rewriting updates of
    tracked counters to Nop, and merge with an ancestor carrying an equal
    label instead of growing a new branch."""
    budget = budget or Budget()
    C = gamma.dom
    if not C:
        raise ValueError("build_out_game needs a nonempty tracked domain")
    beta = list(beta)
    counters_out = tuple(c for c in game.counters if c not in C)

    labels: Dict[str, PartialConfig] = {}
    color: Dict[str, int] = {}
    owner: Dict[str, int] = {}
    edges: List[Tuple[str, str, object, Optional[str]]] = []  # (src, dst, op, orig tid)
    preds: Dict[str, List[str]] = {}
    order: List[str] = []

    def new_node(label: PartialConfig) -> str:
        name = "n%d" % len(order)
        s = game.state(label.state)
        labels[name] = label
        color[name] = s.color
        owner[name] = s.owner
        preds[name] = []
        order.append(name)
        if len(order) > budget.node_budget:
            raise BudgetExceeded("out-game node budget exceeded")
        return name

    def ancestors(node: str) -> List[str]:
        """Nodes that reach node via current out-edges, node included."""
        seen = {node}
        stack = [node]
        while stack:
            v = stack.pop()
            for u in preds[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return [n for n in order if n in seen]

    root = new_node(gamma)
    work = deque([root])
    ticks = 0
    while work:
        ticks += 1
        if ticks % 64 == 0:
            budget.check_time("out-game unfolding")
        q = work.popleft()
        lab = labels[q]
        if not reference_covered_by(beta, lab):
            color[q] = 1
            edges.append((q, q, NOP_OP, None))
            preds[q].append(q)
            continue
        # anc is every node with a path to q in the out-game built so far,
        # not only q's branch of the unfolding tree.  Every such node is
        # reachable from the root, so it precedes q on some play and a label
        # below q's is a pumping witness as on the branch.  Merges make many
        # paths into q, and the wider set lets merges and winning leaves fire
        # sooner: the branch alone gave the same frontiers on random games
        # but out-games several times larger, slower and heavier in memory.
        anc = ancestors(q)
        if any(lt(labels[a], lab) for a in anc):
            color[q] = 0
            edges.append((q, q, NOP_OP, None))
            preds[q].append(q)
            continue
        for t in game.out(lab.state):
            nxt = vass_step(game, lab, t.tid)
            if nxt is None:
                continue
            op_out = NOP_OP if (t.op.counter in C) else t.op
            target = None
            for a in anc:
                if labels[a] == nxt:
                    target = a
                    break
            if target is None:
                target = new_node(nxt)
                work.append(target)
            edges.append((q, target, op_out, t.tid))
            preds[target].append(q)

    states = tuple(State(n, owner[n], color[n]) for n in order)
    transitions = []
    origin: Dict[str, Optional[str]] = {}
    for i, (src, dst, op, orig) in enumerate(edges):
        tid = "e%d" % i
        transitions.append(Transition(tid, src, op, dst))  # type: ignore[arg-type]
        origin[tid] = orig
    out_game = IntegerGame(counters_out, states, tuple(transitions))
    return OutGame(out_game, root, dict(labels), origin)
