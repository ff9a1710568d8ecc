"""The inlr-kit benchmark workloads.

A workload makes a fixed list of jobs from a seed (`jobs`).  Each job is a
seeded description of its input, and its id is its place in the list;
`make` builds the input from it during set-up.  `run` is the timed section:
it makes only the calls a user's run would make, each through `tr.call` so
that a traced run can put a span around it.  `check` is the untimed oracle;
it returns whether the output is right and the job's work counts, which
must repeat exactly on every execution.  A workload may have a `select`
hook that picks its list from a longer candidate stream by running it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from inlr_kit import cc, gen, qencode, quantum, rewrite, syntax  # noqa: E402
from inlr_kit.iplus import RULES_IPLUS  # noqa: E402
from inlr_kit.typecheck import TypingError, infer  # noqa: E402


@dataclass(frozen=True)
class Job:
    id: int
    kind: str
    spec: tuple
    # Fails its oracle at the seed commit because of a documented defect
    # in the program; counted in `failed` but not against `correct`.
    known_defect: bool = False


def _rng(seed, *lane):
    return np.random.default_rng([seed, *lane])


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# matvec: compile a matrix, hand it through the printer and parser as the
# CLI does, type it, apply it to a vector and read the result back.

class Matvec:
    name = "matvec"
    # d -> jobs per pass.  Twenty jobs at d=16 hold the median and the
    # 10-beyond tail; d=64 is the size the ROADMAP gate names.  A pass
    # stays short enough for a run to repeat it.
    MIX = ((16, 20), (32, 2), (64, 1))
    TOL = 1e-9

    def jobs(self, seed):
        jobs = []
        for d, count in self.MIX:
            for k in range(count):
                jobs.append(("matvec", (seed, d, k)))
        order = _rng(seed, 0).permutation(len(jobs))
        return [Job(i, *jobs[j]) for i, j in enumerate(order)]

    def make(self, job):
        seed, d, k = job.spec
        rng = _rng(seed, 1, d, k)
        m = _complex_normal(rng, (d, d))
        u = _complex_normal(rng, d)
        return m, u, qencode.qn_prop(d.bit_length() - 1)

    def run(self, inp, tr):
        m, u, p = inp
        t = tr.call("qencode.compile_matrix", qencode.compile_matrix, m, p, p)
        text = tr.call("syntax.print_term", syntax.print_term, t)
        t = tr.call("syntax.parse_term", syntax.parse_term, text, "quantum")
        ty = tr.call("typecheck.infer", infer, "quantum", {}, t)
        v = tr.call("qencode.from_vector", qencode.from_vector, u, p)
        trace = tr.call("rewrite.normalize", rewrite.normalize,
                        syntax.App(t, v), quantum.RULES_QUANTUM_DET)
        vec = tr.call("qencode.to_vector", qencode.to_vector, trace.final, p)
        return t, len(text), ty, trace, vec

    def check(self, inp, out):
        m, u, p = inp
        t, chars, ty, trace, vec = out
        ok = (ty == syntax.Lollipop(p, p)
              and trace.outcome.kind == "normal-form"
              and float(np.max(np.abs(vec - m @ u))) <= self.TOL)
        return ok, {"steps": len(trace.steps), "parse_chars": chars,
                    "term_nodes": syntax.term_size(t)}


# ---------------------------------------------------------------------------
# measure: what `inlr measure` does after parsing: infer, then sample.

class Measure:
    name = "measure"
    SHOTS = 1000            # the `inlr measure` default
    # n -> seeded states.  A job's cost grows with n and is alike within
    # one n, so the mix puts both the median (13th of 25) and the 10-beyond
    # tail (15th) inside the n=3 jobs rather than on a boundary between
    # two sizes, where they would move with the seed.
    STATES = {1: 3, 2: 3, 3: 10, 4: 4}
    NESTED = 5              # the nested shape, a fifth of the list
    K_SIGMA = 5.0
    TOL = 1e-9

    def jobs(self, seed):
        jobs = []
        for n, count in self.STATES.items():
            for k in range(count):
                jobs.append(Job(len(jobs), "meas_first", (seed, n, k)))
        for k in range(self.NESTED):
            jobs.append(Job(len(jobs), "nested", (seed, k), known_defect=True))
        return jobs

    def make(self, job):
        """(term, its proposition, oracle, shot seed).

        The oracle maps each possible outcome, keyed (side, scalar), to its
        probability.  meas_first(n) ends in inl(v_i . star) for the basis
        states i of the first half of v and inr(v_i . star) for the second.
        """
        if job.kind == "meas_first":
            seed, n, k = job.spec
            v = _complex_normal(_rng(seed, 2, n, k), 2 ** n)
            t = syntax.App(qencode.meas_first(n),
                           qencode.from_vector(v, qencode.qn_prop(n)))
            w = np.abs(v) ** 2 / np.sum(np.abs(v) ** 2)
            half = 2 ** (n - 1)
            expect = {("inl" if i < half else "inr", complex(v[i])):
                      float(w[i]) for i in range(2 ** n)}
            return t, qencode.BOOL_PROP, expect, seed * 1000 + job.id
        seed, k = job.spec
        a, b, c, d = (round(float(x), 3)
                      for x in _rng(seed, 3, k).uniform(0.5, 2.0, 4))
        if abs(d * c - a) < 0.01:   # keep the three outcomes distinct
            d += 0.5
        # One inlr component of the outer scrutinee is itself an
        # unevaluated measurement: the shape in the ROADMAP's defect note.
        text = (f"case_nd(inlr(case_nd(inlr({a!r} . star, {b!r} . star), "
                f"x. x, y. prod(0.0, y)), {c!r} . star), "
                f"x. x, y. prod({d!r}, y))")
        # Sequential semantics: the inner measurement gives a (prob p) or
        # 0; the outer one then weighs that value against c.
        p = a * a / (a * a + b * b)
        r = a * a / (a * a + c * c)
        expect = {(None, complex(a)): p * r, (None, complex(d * c)): 1 - p * r,
                  (None, 0j): 0.0}
        return (syntax.parse_term(text, "quantum"), syntax.One(), expect,
                seed * 1000 + job.id)

    def run(self, inp, tr):
        t, _, _, shot_seed = inp
        ty = tr.call("typecheck.infer", infer, "quantum", {}, t)
        hist = tr.call("quantum.run_measure", quantum.run_measure, t,
                       self.SHOTS, shot_seed)
        return ty, hist

    @staticmethod
    def _outcome(term_text, expect):
        """The oracle key a histogram bin stands for, or None."""
        try:
            t = syntax.parse_term(term_text, "quantum")
        except (syntax.ParseError, syntax.CalculusError):
            return None
        side = None
        if isinstance(t, (syntax.Inl, syntax.Inr)):
            side, t = ("inl" if isinstance(t, syntax.Inl) else "inr"), t.body
        if not isinstance(t, syntax.ScalarStar):
            return None
        for key in expect:
            if key[0] == side and abs(t.value - key[1]) <= 1e-12 * max(
                    1.0, abs(key[1])):
                return key
        return None

    def check(self, inp, out):
        _, prop, expect, _ = inp
        ty, hist = out
        ok = ty == prop
        counts = dict.fromkeys(expect, 0)
        exact = 0
        for b in hist.bins:
            key = self._outcome(b["term"], expect)
            if key is None:
                ok = False
                continue
            counts[key] += b["count"]
            if "exact_weight" in b:
                exact += 1
                ok = ok and abs(b["exact_weight"] - expect[key]) <= self.TOL
        for key, prob in expect.items():
            freq = counts[key] / self.SHOTS
            if prob == 0.0:
                ok = ok and counts[key] == 0
            else:
                # k sigma of the binomial plus one count of continuity
                sigma = (prob * (1.0 - prob) / self.SHOTS) ** 0.5
                ok = ok and (abs(freq - prob)
                             <= self.K_SIGMA * sigma + 1.0 / self.SHOTS)
        return ok, {"shots": hist.shots, "bins": len(hist.bins),
                    "exact_bins": exact}


# ---------------------------------------------------------------------------
# cc-explore: `inlr norm --enumerate` on random cc terms.

class CcExplore:
    name = "cc-explore"
    SIZE = 30
    BUDGET = 100
    CANDIDATES = 900
    # Graphs are drawn from the seeded candidate stream into two classes.
    # Truncated graphs all hold BUDGET nodes, so their costs stay within a
    # factor of a few; taking most of the list from them keeps the median
    # and the tail off the complete graphs, whose sizes spread over three
    # decades.
    QUOTAS = {"complete": 20, "truncated": 100}

    def jobs(self, seed):
        return [Job(i, "cc", (seed, i)) for i in range(self.CANDIDATES)]

    def select(self, candidates, run_once):
        """The first graphs of each class in the candidate stream."""
        quotas = dict(self.QUOTAS)
        kept = []
        for job in candidates:
            if not any(quotas.values()):
                break
            out = run_once(job)
            if out is None:          # crashed: counted, but has no class
                continue
            cls = "truncated" if out[0].budget_hit else "complete"
            if quotas[cls]:
                quotas[cls] -= 1
                kept.append(job)
        if any(quotas.values()):
            print(f"warning: candidates ran out with quotas {quotas} unmet",
                  file=sys.stderr)
        return kept

    def make(self, job):
        seed, i = job.spec
        return gen.random_term_in_context("cc", _rng(seed, 4, i),
                                          max_size=self.SIZE)

    def run(self, inp, tr):
        _, t, _ = inp
        graph = tr.call("cc.explore", cc.explore, t, self.BUDGET, cc.RULES_CC)
        dot = tr.call("cc.to_dot", graph.to_dot)
        return graph, dot

    def check(self, inp, out):
        ctx, _, goal = inp
        graph, dot = out
        ok = dot.startswith("digraph")
        for i in graph.normal_forms:
            nf = graph.terms[i]
            if rewrite.find_redexes(nf, cc.RULES_CC):
                ok = False
            try:
                infer("cc", ctx, nf, expected=goal)
            except TypingError:
                ok = False
        return ok, {"nodes": len(graph.terms), "edges": len(graph.edges),
                    "normal_forms": len(graph.normal_forms),
                    "truncated": int(graph.budget_hit)}


# ---------------------------------------------------------------------------
# props: the acceptance suites' traffic, one random term per job.

class Props:
    name = "props"
    JOBS = 3000
    SIZE = 30
    FUEL = 10 ** 4
    # cc termination is open and some random cc terms grow without end;
    # the longest terminating cc normalization seen in 12 000 such terms
    # took 24 steps.  40 keeps a looping term's cost near a normal job's.
    CC_FUEL = 40
    CALCULI = ("iplus", "quantum", "cc")
    PEAK_TABLES = {"iplus": RULES_IPLUS, "quantum": quantum.RULES_QUANTUM_DET}

    def jobs(self, seed):
        return [Job(i, self.CALCULI[i % 3], (seed, i))
                for i in range(self.JOBS)]

    def make(self, job):
        seed, i = job.spec
        norm_rng = _rng(seed, 6, i) if job.kind == "quantum" else None
        return job.kind, _rng(seed, 5, i), norm_rng

    def run(self, inp, tr):
        calc, rng, norm_rng = inp
        ctx, t, goal = tr.call("gen.random_term_in_context",
                               gen.random_term_in_context, calc, rng,
                               max_size=self.SIZE)
        rs = rewrite.default_ruleset(calc)
        fuel = self.CC_FUEL if calc == "cc" else self.FUEL
        trace = tr.call("rewrite.normalize", rewrite.normalize, t, rs,
                        fuel=fuel, rng=norm_rng)
        states = [t]
        for s in trace.steps:
            rule = rs.by_number(s.rule.number)
            choice = rule.role if rule.group == rewrite.ND_PAIR else None
            states.append(tr.call("rewrite.step_at", rewrite.step_at,
                                  states[-1], s.pos, s.rule, choice=choice,
                                  ruleset=rs))
        typed = 0
        for state in states:
            try:
                tr.call("typecheck.infer", infer, calc, ctx, state,
                        expected=goal)
                typed += 1
            except TypingError:
                pass
        joined = None
        table = self.PEAK_TABLES.get(calc)
        if table is not None:
            redexes = tr.call("rewrite.find_redexes", rewrite.find_redexes,
                              t, table)
            if len(redexes) >= 2:
                joined = tr.call("rewrite.join_peak", rewrite.join_peak, t,
                                 table, fuel=self.FUEL)
        return trace, states, typed, joined

    def check(self, inp, out):
        trace, states, typed, joined = out
        ok = (typed == len(states) and joined is not False
              and syntax.alpha_eq(states[-1], trace.final))
        return ok, {"steps": len(trace.steps), "states": len(states),
                    "peaks": int(joined is not None),
                    "fuel_exhausted": int(trace.outcome.kind
                                          == "fuel-exhausted")}


WORKLOADS = {w.name: w for w in (Matvec(), Measure(), CcExplore(), Props())}
