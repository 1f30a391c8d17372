"""Independent checks of the program's outputs.

Nothing here imports the library: games are read back from the benchmark's
own text with a small parser, parity games are solved with a Zielonka
solver of this file, and the mu-calculus and weak-simulation checks
evaluate fixpoints directly.  Every check is a sound bracket: a capped
computation can prove a verdict right or wrong, or leave it undecided when
the cap is too small.  Undecided probes are counted, never treated as
errors; a verdict a sound bracket refutes is an error.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

Vec = Tuple[int, ...]

SATURATE = "saturate"
OVERFLOW = "overflow-wins-p0"


class Game:
    """A game read from the benchmark's own text format (unit updates only)."""

    def __init__(self, text: str):
        self.counters: Tuple[str, ...] = ()
        self.names: List[str] = []
        self.owner: Dict[str, int] = {}
        self.color: Dict[str, int] = {}
        self.out: Dict[str, List[Tuple[int, int, str, str]]] = {}  # (counter index, delta, dst, label)
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "counters":
                self.counters = tuple(parts[1:])
            elif parts[0] == "state":
                attrs = dict(p.split("=") for p in parts[2:])
                self.names.append(parts[1])
                self.owner[parts[1]] = int(attrs["owner"])
                self.color[parts[1]] = int(attrs["color"])
                self.out[parts[1]] = []
            elif parts[0] == "trans":
                src, op, dst = parts[2], parts[3], parts[4]
                label = parts[5].split("=")[1] if len(parts) > 5 else "tau"
                if op == "nop":
                    ci, delta = -1, 0
                else:
                    kind, counter = op.rstrip(")").split("(")
                    ci, delta = self.counters.index(counter), (1 if kind == "inc" else -1)
                self.out[src].append((ci, delta, dst, label))

    def step(self, q: str, vec: Vec, move: Tuple[int, int, str, str]) -> Tuple[str, Vec]:
        ci, delta, dst, _ = move
        if ci < 0:
            return dst, vec
        return dst, vec[:ci] + (vec[ci] + delta,) + vec[ci + 1:]


def zielonka(owner: Sequence[int], color: Sequence[int], succ: Sequence[Sequence[int]]) -> Set[int]:
    """Player-0 winning vertices of a finite parity game (max color even wins)."""
    n = len(owner)
    pred: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)

    def attractor(sub: Set[int], target: Set[int], p: int) -> Set[int]:
        attr = set(target)
        left: Dict[int, int] = {}
        queue = list(target)
        while queue:
            w = queue.pop()
            for v in pred[w]:
                if v not in sub or v in attr:
                    continue
                if owner[v] != p:
                    if v not in left:
                        left[v] = sum(1 for u in succ[v] if u in sub)
                    left[v] -= 1
                    if left[v]:
                        continue
                attr.add(v)
                queue.append(v)
        return attr

    def solve(sub: Set[int]) -> Tuple[Set[int], Set[int]]:
        if not sub:
            return set(), set()
        d = max(color[v] for v in sub)
        p = d % 2
        a = attractor(sub, {v for v in sub if color[v] == d}, p)
        w = solve(sub - a)
        if not w[1 - p]:
            return (set(sub), set()) if p == 0 else (set(), set(sub))
        b = attractor(sub, w[1 - p], 1 - p)
        w0, w1 = solve(sub - b)
        return (w0, w1 | b) if p == 0 else (w0 | b, w1)

    return solve(set(range(n)))[0]


def capped_winners(game: Game, semantics: str, cap: int, mode: str) -> Dict[Tuple[str, Vec], int]:
    """Winner of every configuration with values in [0, cap].

    Under ``saturate`` increments clamp at the cap (a Player-0 win is sound);
    under ``overflow-wins-p0`` crossing the cap wins for Player 0 (a Player-1
    win is sound).  Energy underflow loses for Player 0; under VASS a
    decrement at 0 is disabled and a configuration without moves loses for
    its owner."""
    k = len(game.counters)
    grid = list(itertools.product(range(cap + 1), repeat=k))
    index: Dict[Tuple[str, Vec], int] = {}
    owner: List[int] = [0, 0, 0, 0]
    color: List[int] = [0, 1, 1, 0]  # overflow, underflow, stuck Player 0, stuck Player 1
    succ: List[List[int]] = [[0], [1], [2], [3]]
    for q in game.names:
        for vec in grid:
            index[(q, vec)] = len(owner)
            owner.append(game.owner[q])
            color.append(game.color[q])
            succ.append([])
    for q in game.names:
        for vec in grid:
            out = succ[index[(q, vec)]]
            for move in game.out[q]:
                dst, nv = game.step(q, vec, move)
                if any(x < 0 for x in nv):
                    if semantics == "energy":
                        out.append(1)
                    continue
                if any(x > cap for x in nv):
                    if mode == OVERFLOW:
                        out.append(0)
                        continue
                    nv = tuple(min(x, cap) for x in nv)
                out.append(index[(dst, nv)])
            if not out:
                out.append(2 if game.owner[q] == 0 else 3)
    w0 = zielonka(owner, color, succ)
    return {key: (0 if i in w0 else 1) for key, i in index.items()}


class Tally:
    """Counts of confirmed and undecided probes, and the errors found."""

    def __init__(self) -> None:
        self.confirmed = 0
        self.undecided = 0
        self.errors: List[str] = []

    def judge(self, claim: bool, proved_true: bool, proved_false: bool, what: str) -> None:
        if (claim and proved_false) or (not claim and proved_true):
            self.errors.append("%s: claimed %s, refuted by a sound bracket" % (what, claim))
        elif proved_true or proved_false:
            self.confirmed += 1
        else:
            self.undecided += 1


def leq(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b))


def check_frontier(tally: Tally, name: str, text: str, semantics: str,
                   frontier: Dict[str, List[Vec]], closed_form: Optional[Dict[str, List[Vec]]] = None) -> None:
    """Check a per-state frontier (minimal credit vectors over all counters).

    Closed-form states must match exactly.  Every element must not be a
    sound Player-1 win and every pointwise predecessor outside the upward
    closure must not be a sound Player-0 win; a state with an empty frontier
    must not be a sound Player-0 win at the cap vector."""
    game = Game(text)
    for q, expected in (closed_form or {}).items():
        if sorted(frontier.get(q, [])) != sorted(expected):
            tally.errors.append("%s: frontier at %s is %s, closed form %s" % (name, q, frontier.get(q), expected))
        else:
            tally.confirmed += 1
    if set(frontier) != set(game.names):
        tally.errors.append("%s: frontier states differ from the game's" % name)
        return
    for q, elems in frontier.items():
        for a in elems:
            if any(b != a and leq(b, a) for b in elems):
                tally.errors.append("%s: frontier at %s is not an antichain" % (name, q))
    top = max([x for elems in frontier.values() for v in elems for x in v] + [1])
    cap = top + (3 if len(game.counters) == 1 else 2)
    sat = capped_winners(game, semantics, cap, SATURATE)
    over = capped_winners(game, semantics, cap, OVERFLOW)
    k = len(game.counters)
    for q, elems in frontier.items():
        if closed_form and q in closed_form:
            continue
        probes: List[Tuple[Vec, bool]] = [(v, True) for v in elems]
        for v in elems:
            for i in range(k):
                if v[i] > 0:
                    p = v[:i] + (v[i] - 1,) + v[i + 1:]
                    if not any(leq(e, p) for e in elems):
                        probes.append((p, False))
        if not elems:
            probes.append(((cap,) * k, False))
        for v, claim in probes:
            tally.judge(claim, sat[(q, v)] == 0, over[(q, v)] == 1, "%s %s %s" % (name, q, v))


def check_oracle(tally: Tally, name: str, text: str, semantics: str, cap: int,
                 verdicts: Dict[Tuple[str, Vec], str], closed_form: Optional[Dict[str, List[Vec]]] = None) -> None:
    """Check bracket verdicts ("win0", "win1", "unknown") at concrete probes.

    Closed-form probes must be decided and right.  Elsewhere a decided
    verdict must not be refuted by the benchmark's own capped solver at the
    oracle's largest cap, and a Win0 at some vector never comes with a Win1
    at a larger vector of the same state."""
    game = Game(text)
    sat = over = None
    for (q, v), verdict in verdicts.items():
        if closed_form and q in closed_form:
            truth = any(leq(e, v) for e in closed_form[q])
            if verdict == "unknown" or (verdict == "win0") != truth:
                tally.errors.append("%s %s %s: oracle says %s, closed form %s" % (name, q, v, verdict, truth))
            else:
                tally.confirmed += 1
            continue
        if verdict == "unknown":
            tally.undecided += 1
            continue
        if sat is None:
            single_sided = all(ci < 0 for s in game.names if game.owner[s] == 1 for ci, _, _, _ in game.out[s])
            sat = capped_winners(game, semantics, cap, SATURATE) if semantics == "energy" or single_sided else {}
            over = capped_winners(game, semantics, cap, OVERFLOW)
        tally.judge(verdict == "win0", sat.get((q, v)) == 0, over[(q, v)] == 1, "%s %s %s" % (name, q, v))
    for (q, v), a in verdicts.items():
        for (r, w), b in verdicts.items():
            if q == r and a == "win0" and b == "win1" and leq(v, w):
                tally.errors.append("%s %s: win0 at %s but win1 at larger %s" % (name, q, v, w))


def _moves(game: Game, q: str, vec: Vec, cap: int, labels: Optional[Set[str]] = None):
    """VASS successors of (q, vec); None stands for a successor beyond the cap."""
    for move in game.out[q]:
        if labels is not None and move[3] not in labels:
            continue
        dst, nv = game.step(q, vec, move)
        if any(x < 0 for x in nv):
            continue
        yield None if any(x > cap for x in nv) else (dst, nv)


def mucalc_bracket(text: str, formula: str, cap: int, upper: bool) -> Set[Tuple[str, Vec]]:
    """Configurations within the cap that satisfy the formula, when moves
    beyond the cap are dropped (lower bound) or lead to a configuration that
    satisfies everything (upper bound).  Player-1 moves are Nops in a
    single-sided VASS, so the guarded box is exact either way."""
    game = Game(text)
    confs = [(q, v) for q in game.names for v in itertools.product(range(cap + 1), repeat=len(game.counters))]
    succ = {c: list(_moves(game, c[0], c[1], cap)) for c in confs}
    toks = formula.replace("(", " ( ").replace(")", " ) ").split()
    pos = [0]

    def parse():
        # fully parenthesised output of gen.random_formula
        t = toks[pos[0]]
        pos[0] += 1
        if t == "<>":
            return ("dia", parse())
        if t != "(":
            return ("name", t)
        if toks[pos[0]] in ("mu", "nu"):
            kind, var = toks[pos[0]], toks[pos[0] + 1]
            pos[0] += 3  # kind, var, "."
            body = parse()
            pos[0] += 1
            return (kind, var, body)
        if toks[pos[0]] == "P1":
            pos[0] += 3  # "P1", "/\", "[]"
            body = parse()
            pos[0] += 1
            return ("box", body)
        left = parse()
        op = toks[pos[0]]
        pos[0] += 1
        right = parse()
        pos[0] += 1
        return ("and" if op == "/\\" else "or", left, right)

    tree = parse()

    def ev(f, env):
        kind = f[0]
        if kind == "name":
            return env[f[1]] if f[1] in env else {c for c in confs if c[0] == f[1]}
        if kind in ("and", "or"):
            a, b = ev(f[1], env), ev(f[2], env)
            return a & b if kind == "and" else a | b
        if kind == "dia":
            body = ev(f[1], env)
            return {c for c in confs if any((n is None and upper) or n in body for n in succ[c])}
        if kind == "box":
            body = ev(f[1], env)
            return {c for c in confs if game.owner[c[0]] == 1 and all(n in body for n in succ[c])}
        cur = set() if kind == "mu" else set(confs)
        while True:
            nxt = ev(f[2], dict(env, **{f[1]: cur}))
            if nxt == cur:
                return cur
            cur = nxt

    return ev(tree, {})


def weaksim_bracket(lts_text: str, text: str, cap: int, upper: bool) -> Set[Tuple[str, str, Vec]]:
    """Greatest weak-simulation relation between process states and capped
    VASS configurations.  An answer (tau* a tau*, or tau* for a tau
    challenge) that crosses the cap is dropped (lower bound) or accepted
    (upper bound)."""
    game = Game(text)
    states = [l.split()[1] for l in lts_text.splitlines() if l.startswith("state ")]
    edges = [tuple(l.split()[1:]) for l in lts_text.splitlines() if l.startswith("edge ")]
    confs = [(q, v) for q in game.names for v in itertools.product(range(cap + 1), repeat=len(game.counters))]
    actions = sorted({a for _, a, _ in edges})

    def closure(starts):
        seen, stack, escaped = set(starts), list(starts), False
        while stack:
            q, v = stack.pop()
            for n in _moves(game, q, v, cap, {"tau"}):
                if n is None:
                    escaped = True
                elif n not in seen:
                    seen.add(n)
                    stack.append(n)
        return seen, escaped

    answers = {}
    for c in confs:
        pre, esc = closure([c])
        for a in actions:
            if a == "tau":
                answers[(c, a)] = (pre, esc)
                continue
            mid, esc_a = set(), esc
            for q, v in pre:
                for n in _moves(game, q, v, cap, {a}):
                    if n is None:
                        esc_a = True
                    else:
                        mid.add(n)
            post, esc_b = closure(mid)
            answers[(c, a)] = (post, esc_a or esc_b)
    rel = {(s, c) for s in states for c in confs}
    changed = True
    while changed:
        changed = False
        for s, c in sorted(rel):
            for src, a, s2 in edges:
                if src != s:
                    continue
                post, esc = answers[(c, a)]
                if not ((upper and esc) or any((s2, d) in rel for d in post)):
                    rel.discard((s, c))
                    changed = True
                    break
    return {(s, q, v) for s, (q, v) in rel}
