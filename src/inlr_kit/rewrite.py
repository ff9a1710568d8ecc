"""Rule-driven reduction engine.

Rule tables are data: every rule has an id (calculus tag + number), a
head (the constructor at the root and the constructors of the children it
inspects), an optional guard for side conditions, and a contractum
builder.  Each table compiles its heads once into a dict keyed by
constructors, looked up by the node's class first.  The engine discovers
redexes in leftmost-outermost order, steps with an explicit rng for the
non-deterministic rules, records traces that replay exactly, and joins
one-step peaks for confluence testing.

Matching only inspects constructors, so redexes are found on the nameless
term as it is.  One cursor does every walk: it keeps the path above its
focus as a stack of frames, so term depth costs no Python stack, each
holding its node's position as a cell (`syntax.cell_path`).  It stops at
the first redex in preorder and contracts it in place, or `plug`s a new
focus into a copy of the path.  Builders take the redex exactly as it
sits in the term, its loose de Bruijn indices pointing at the binders
above it, and return the contractum in the same context; they move
subterms across binders with `syntax.instantiate`, so no binder is
opened and capture is impossible.
A head inspects a node and its children, so a contraction can only turn
its parent into a redex, unless a guard looks deeper; the search
therefore resumes at the parent, or at the outermost ancestor whose
constructor carries a guard, noted when its frame was pushed, and not at
the root; a parent that matches comes back from the contraction with its
rules.  `run_steps` is the one step loop: it contracts up to a normal
form, a stuck redex, spent fuel or a probabilistic pair, each step's
position the focus's cell; `normalize` draws at each pair and calls it
again, and `quantum`'s tree of runs calls it once per run.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .syntax import Term, cell_path

# the tag of quantum's probabilistic pair (26/27); at other redexes the
# engine takes the first rule listed (cc's bot_elim at a disjunction: 11)
ND_PAIR = "nd-inlr"


@dataclass(frozen=True)
class RuleId:
    calculus: str
    number: int

    def __str__(self):
        return f"{self.calculus}:{self.number}"


def _fits(head: tuple, key) -> bool:
    """Whether a rule head admits a constructor key (None is a wildcard)."""
    return all(want is None or want is got for want, got in zip(head, key))


@dataclass(frozen=True)
class Rule:
    rid: RuleId
    name: str
    # (root constructor, child constructor or None, ...), children taken in
    # `_kids` order; an abstraction slot stands for its body
    head: tuple
    build: object   # redex -> contractum, both in the redex's context
    group: str | None = None
    role: str | None = None  # "left" / "right" within an ND_PAIR family
    guard: object = None     # Term -> bool, a side condition beyond the head
    weigh: object = None     # redex -> each matching rule's probability

    def match(self, t: Term) -> bool:
        """Whether the head and the guard both accept t."""
        return (type(t) is self.head[0]
                and _fits(self.head, map(type, (t, *t._kids(t))))
                and (self.guard is None or self.guard(t)))


_BITS = itertools.count()  # each table's bit in the marks `Term._nf`


class RuleSet:
    """A rule table of one calculus, with its compiled heads and its own
    bit in the normal-form marks; `name` is only a label."""

    def __init__(self, name: str, calculus: str, rules: tuple):
        self.name = name
        self.calculus = calculus
        self.rules = rules
        self.bit = 1 << next(_BITS)
        # root constructor -> how many path-children its rule heads
        # inspect; a constructor no rule roots at is absent
        self._width = {}
        for r in rules:
            self._width[r.head[0]] = max(self._width.get(r.head[0], 0),
                                         len(r.head) - 1)
        # constructor key -> the rules whose heads admit it, in table
        # order; each key is compiled the first time a term shows it
        self._index = {}
        # the root constructors of the rules that carry a guard
        self._guarded = frozenset(
            r.head[0] for r in rules if r.guard is not None)
        self._numbered = {r.rid.number: r for r in rules}

    def matching(self, t: Term) -> list:
        """The rules whose left-hand sides match t, in table order."""
        return list(self._matching(t, t._kids(t)))

    def _matching(self, t: Term, kids):
        """`matching` as a sequence, given t's path-children.

        The heads are looked up by t's class first, so a constructor no
        rule roots at costs one dict lookup; guards are asked only at a
        constructor some guarded rule roots at.
        """
        cls = type(t)
        width = self._width.get(cls)
        if width is None:
            return ()
        if width == 1:
            key = (cls, type(kids[0]))
        elif width == 2:
            key = (cls, type(kids[0]), type(kids[1]))
        else:
            key = (cls, *[type(kid) for kid in kids[:width]])
        hits = self._index.get(key)
        if hits is None:
            hits = self._index[key] = tuple(
                r for r in self.rules if _fits(r.head, key))
        if not hits or cls not in self._guarded:
            return hits
        return [r for r in hits if r.guard is None or r.guard(t)]

    def by_number(self, number: int) -> Rule:
        return self._numbered[number]  # KeyError(number) for an unknown one


_REGISTRY: dict[str, RuleSet] = {}


def register_default_ruleset(rs: RuleSet) -> RuleSet:
    _REGISTRY[rs.calculus] = rs
    return rs


def default_ruleset(calculus: str) -> RuleSet:
    return _REGISTRY[calculus]


class NoMatchError(Exception):
    pass


class Stuck(Exception):
    """A redex that cannot be contracted; `reason` names the outcome."""
    reason = "stuck"


# ---------------------------------------------------------------------------
# Traces


@dataclass(eq=False, repr=False, slots=True)
class Step:
    """One contraction: its rule, weight and position, kept as the
    cursor's cell, shared with the steps before it, until `pos` is read."""
    rule: RuleId
    cell: tuple | None
    weight: float | None

    @property
    def pos(self) -> tuple:
        return cell_path(self.cell)

    def __repr__(self):
        return (f"Step(rule={self.rule!r}, pos={self.pos!r}, "
                f"weight={self.weight!r})")

    def to_json(self):
        return {"rule": str(self.rule), "pos": list(self.pos),
                "weight": self.weight}


class Outcome(NamedTuple):
    """How a normalization ended ("normal-form", "fuel-exhausted" or
    "stuck" for a reason), and on which term."""
    kind: str
    term: Term
    reason: str | None = None


@dataclass
class ReductionTrace:
    initial: Term
    steps: list = field(default_factory=list)
    outcome: object = None

    @property
    def final(self) -> Term:
        return self.outcome.term

    def step_lines(self):
        return [json.dumps(s.to_json(), sort_keys=True) for s in self.steps]


def replay_states(trace: ReductionTrace):
    """The terms along a recorded trace, the initial one first."""
    t = trace.initial
    yield t
    for s in trace.steps:
        t = step_at(t, s.pos, s.rule)
        yield t


# ---------------------------------------------------------------------------
# The alternatives at a redex

def _alternatives(redex, here):
    """The rules matching at one redex, each with its probability, by the
    first rule's `weigh` (None for a uniform draw; it raises `Stuck` at a
    redex it cannot weigh); without one, the first rule and no weight."""
    first = here[0]
    if first.weigh is None:
        return [(first, None)]
    return list(zip(here, first.weigh(redex)))


def _draw(alternatives, rng):
    """The engine's pick: a pair's branch drawn from rng, else the first."""
    first, p = alternatives[0]
    if first.group != ND_PAIR or rng is None:
        return alternatives[0]
    return alternatives[0 if rng.random() < (0.5 if p is None else p) else 1]


# ---------------------------------------------------------------------------
# The cursor

class Cursor:
    """A focus in a nameless term and the frames on the path above it.

    Each frame is [node, i, children, dirty, clean, cell, key]: the focus
    is children[i] of node; dirty says children have been replaced, so node
    is rebuilt, once, when the walk leaves it; clean says no redex has been
    recorded at or below node; cell is node's position cell, None at the
    root, so the focus's is (i, cell) of the top frame; key is node's `_key`
    as a list, built by the first `plug_hashes` below the frame and None
    until then, so a walk that hashes no reduct builds none.  A node the
    walk leaves clean is marked redex-free for the table, its `bit` set in
    the node's `_nf`, and later walks skip it.

    `outer` is (depth, frame) for the outermost frame whose node's
    constructor carries a guard, noted when the frame is pushed; it holds
    only while stack[depth] is that frame, since a popped frame is never
    pushed again.  A table without guards never notes one.
    """

    __slots__ = ("rs", "focus", "stack", "outer")

    def __init__(self, t: Term, ruleset: RuleSet):
        self.rs = ruleset
        self.focus = t
        self.stack = []
        self.outer = None

    def cell(self):
        """The position cell of the focus in the whole term."""
        stack = self.stack
        return (stack[-1][1], stack[-1][5]) if stack else None

    def pos(self) -> tuple:
        """The position of the focus in the whole term."""
        return cell_path(self.cell())

    def term(self) -> Term:
        """The whole term; the focus moves to its root."""
        if self.stack:
            self.focus = self._climb(0)
        return self.focus

    def _pop(self):
        """Leave the top frame; its node, rebuilt if a child was replaced."""
        stack = self.stack
        node, _, kids, dirty, _, _, _ = stack.pop()
        if dirty:
            node = node._rebuild(node, kids)
            if stack:
                frame = stack[-1]
                frame[2][frame[1]] = node
                frame[3] = True
        return node

    def _guarded_depth(self):
        """The depth of the outermost guarded frame, None if there is none."""
        outer = self.outer
        if outer is not None:
            depth, frame = outer
            if depth < len(self.stack) and self.stack[depth] is frame:
                return depth
        return None

    def _note(self, frame):
        """Note a guarded frame about to be pushed, if none lies below."""
        if self._guarded_depth() is None:
            self.outer = (len(self.stack), frame)

    def _climb(self, depth):
        """Leave the frames from `depth` up; the node of the lowest one."""
        while len(self.stack) > depth:
            node = self._pop()
        return node

    def descend(self, pos):
        """Move the focus down along a position relative to it."""
        t = self.focus
        for k, i in enumerate(pos):
            if not 0 <= i < len(t._paths):
                raise NoMatchError(f"position {pos[k:]} does not exist")
            kids = list(t._kids(t))
            frame = [t, i, kids, False, True, self.cell(), None]
            if type(t) in self.rs._guarded:
                self._note(frame)
            self.stack.append(frame)
            t = kids[i]
        self.focus = t

    def seek(self, visit=None):
        """Move the focus to the first redex at or after it in preorder.

        Returns the rules matching there, or None with the focus on the
        root when no redex is left.  With `visit`, it is called with the
        rules matching at every redex, the focus on the redex, and the
        walk goes on into its children.
        """
        bit = self.rs.bit
        matching = self.rs._matching
        guarded = self.rs._guarded
        stack = self.stack
        t = self.focus
        while True:
            if not t._nf & bit:
                kids = t._kids(t)
                here = matching(t, kids)
                if here:
                    self.focus = t
                    if visit is None:
                        return here
                    visit(here)
                    if stack:
                        stack[-1][4] = False
                if kids:  # t's cell is `cell()`, inlined
                    frame = [t, 0, list(kids), False, not here,
                             (stack[-1][1], stack[-1][5]) if stack else None,
                             None]
                    if guarded and type(t) in guarded:
                        self._note(frame)
                    stack.append(frame)
                    t = kids[0]
                    continue
                if not here:
                    t._nf |= bit
            # everything up to t is done: go right, else up
            while stack:
                frame = stack[-1]
                i = frame[1] + 1
                kids = frame[2]
                if i < len(kids):
                    frame[1] = i
                    t = kids[i]
                    break
                t = self._pop()
                if frame[4]:
                    t._nf |= bit
                elif stack:
                    stack[-1][4] = False
            else:
                self.focus = t
                return None

    def plug(self, u: Term, hashes: list | None = None) -> Term:
        """The whole term with u in place of the focus; the cursor stays.
        With `hashes` from `plug_hashes(u)`, each node it builds stores its
        hash."""
        for k, (node, i, kids, _, _, _, _) in enumerate(
                reversed(self.stack), 1):
            old = kids[i]
            kids[i] = u
            u = node._rebuild(node, kids)
            if hashes is not None:
                u._hash = hashes[k]
            kids[i] = old
        return u

    def plug_hashes(self, u: Term) -> list:
        """The hashes of the nodes `plug(u)` would build, u's first and the
        whole term's last, worked out without building them: at each frame
        from the focus up, the frame's key with the hash from below in
        place of the path-child's, hashed as `_store_hashes` would.

        A frame keeps its key, so later reducts below it pay only the swap
        of the path-child's slot, put back after hashing.  A dirty frame's
        children are no longer its node's, so its key is made afresh from
        them each time, and never kept.  A clean frame whose node has no
        stored hash (one rebuilt by a contraction, or inside a contractum)
        makes its key from its children too, and keeps it: a node's hash
        is only ever stored once its children's are, so a node with one
        has a key with no hash missing.
        """
        h = hash(u)
        out = [h]
        for frame in reversed(self.stack):
            node = frame[0]
            key = frame[6]
            if key is None or frame[3]:
                key = list(node._key(node))
                if frame[3] or node._hash is None:
                    for at, kid in zip(node._key_at, frame[2]):
                        key[at] = hash(kid)
                if not frame[3]:
                    frame[6] = key
            at = node._key_at[frame[1]]  # the walk moves i: read it now
            old = key[at]
            key[at] = h
            h = hash(tuple(key))
            key[at] = old
            out.append(h)
        return out

    def plugs_to(self, c: Term, u: Term) -> bool:
        """Whether c == plug(u), compared in place without building it.

        Down the frames, c must have each node's class and `==` fields
        but for the path-child, whose subterm is compared at the next
        frame; below the last, c's subterm must `==` u.  Binder hints are
        ignored, as by `==`.
        """
        for node, i, _, _, _, _, _ in self.stack:
            if c is not node:
                cls = type(node)
                if type(c) is not cls:
                    return False
                skip = cls._key_at[i] - 1
                for k, (name, _) in enumerate(cls._fields):
                    if k != skip:
                        x, y = getattr(c, name), getattr(node, name)
                        if x is not y and x != y:
                            return False
            c = c._kids(c)[i]
        return c == u

    def contract(self, build):
        """Replace the focus by `build` of it, and refocus where the
        search must resume; the rules there if that is the parent, else ().

        The focus goes to `build` as it sits in the term, its loose
        indices pointing at the binders above it, and the contractum comes
        back in the same context.

        Matching looks at a node and its children, so only the parent can
        turn into a redex, unless a guard looks deeper: then the search
        resumes at the outermost ancestor whose constructor carries a
        guard, noted when its frame was pushed, and no guard is asked here.
        """
        stack = self.stack
        self.focus = build(self.focus)
        if not stack:
            return ()
        frame = stack[-1]
        frame[2][frame[1]] = self.focus
        frame[3] = True
        if self.outer is not None:
            depth = self._guarded_depth()
            if depth is not None:
                self.focus = self._climb(depth)
                return ()
        here = self.rs._matching(frame[0], frame[2])
        if here:
            self.focus = self._pop()
        return here


# ---------------------------------------------------------------------------
# Entry points

def find_redexes(t: Term, ruleset: RuleSet):
    """All (position, rule id) pairs, leftmost-outermost, all alternatives."""
    cur = Cursor(t, ruleset)
    out = []
    cur.seek(lambda here: out.extend((cur.pos(), r.rid) for r in here))
    return out


def reducts(t: Term, ruleset: RuleSet):
    """Every one-step reduct of t, from one walk.

    The (position, rule id, reduct) triples come in `find_redexes` order,
    each reduct the one `step_at` gives, and raise what it raises: every
    matching rule is built on the redex where the walk stands, and the
    path above is rebuilt from the walk's frames.
    """
    cur = Cursor(t, ruleset)
    out = []

    def visit(here):
        redex = cur.focus
        pos = cur.pos()
        _alternatives(redex, here)  # a redex that cannot be weighed is stuck
        for r in here:
            out.append((pos, r.rid, cur.plug(r.build(redex))))

    cur.seek(visit)
    return out


def is_normal(t: Term, ruleset: RuleSet) -> bool:
    """Whether t contains no redex of the table; a node a walk marked
    redex-free for it is answered from the mark, with no cursor."""
    return t._nf & ruleset.bit != 0 or Cursor(t, ruleset).seek() is None


def step_at(t: Term, pos, rid: RuleId, choice: str | None = None,
            ruleset: RuleSet | None = None) -> Term:
    """Apply one named rule at a position.

    For the probabilistic pair of measurement rules `choice`
    ("left"/"right") forces the branch; without one the named rule applies.
    """
    rs = ruleset or default_ruleset(rid.calculus)
    cur = Cursor(t, rs)
    cur.descend(tuple(pos))
    here = rs.matching(cur.focus)
    rule = next((r for r in here if r.rid == rid), None)
    if rule is None:
        raise NoMatchError(f"rule {rid} does not match here")
    if rule.group == ND_PAIR:
        alternatives = _alternatives(cur.focus, here)
        if choice is not None:
            rule = next((r for r, _ in alternatives if r.role == choice), None)
            if rule is None:
                raise NoMatchError(f"no {choice!r} branch at rule {rid}")
    return cur.plug(rule.build(cur.focus))


def run_steps(cur: Cursor, steps: list, fuel: int):
    """Contract leftmost-outermost redexes from the cursor's focus, a
    `Step` appended to steps for each, up to a stop: a normal form, a
    stuck redex or `fuel` steps, returned as their `Outcome`'s (kind,
    reason), or a probabilistic pair, as its alternatives, the focus on
    it.  Weighed alternatives are asked before the fuel check, so a
    measurement that cannot be weighed is stuck even with no fuel left.
    A parent redex comes from `contract`, any other from `seek`."""
    seek, contract, stack = cur.seek, cur.contract, cur.stack
    try:
        here = ()
        while (here := here or seek()) is not None:
            rule, weight = here[0], None
            if rule.weigh is not None:
                alternatives = _alternatives(cur.focus, here)
                rule, weight = alternatives[0]
                if rule.group == ND_PAIR and len(steps) < fuel:
                    return alternatives
            if len(steps) >= fuel:
                return "fuel-exhausted", None
            cell = (stack[-1][1], stack[-1][5]) if stack else None  # cell()
            here = contract(rule.build)
            steps.append(Step(rule.rid, cell, weight))
    except Stuck as e:
        return "stuck", e.reason
    return "normal-form", None


def normalize(t: Term, ruleset: RuleSet, fuel: int = 10 ** 6,
              rng=None) -> ReductionTrace:
    """Repeatedly contract the leftmost-outermost redex.

    Each measurement draws its branch from rng (without one, the left);
    the outcome encodes normal forms, fuel exhaustion, and stuck redexes
    (a zero-norm measurement, a scalar overflow), left in the term.
    """
    trace = ReductionTrace(initial=t)
    cur = Cursor(t, ruleset)
    while type(stop := run_steps(cur, trace.steps, fuel)) is list:
        rule, weight = _draw(stop, rng)
        trace.steps.append(Step(rule.rid, cur.cell(), weight))
        cur.contract(rule.build)
    trace.outcome = Outcome(stop[0], cur.term(), stop[1])
    return trace


def join_peak(t: Term, ruleset: RuleSet, fuel: int = 10 ** 6) -> bool:
    """Check that all one-step reducts of t share one normal form.

    Only meaningful on a deterministic ruleset (no nd families).
    """
    nfs = []
    for _pos, _rid, u in reducts(t, ruleset):
        tr = normalize(u, ruleset, fuel=fuel)
        if tr.outcome.kind != "normal-form":
            return False
        nfs.append(tr.final)
    return all(nfs[0] == nf for nf in nfs[1:])
