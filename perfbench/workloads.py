"""The four benchmark workloads: inputs, operations and output checks.

Each workload is built from the imported ``itlc`` package, a seed and a
size.  Building it is the set-up the benchmark times; it yields a list of
operations, each a call with no arguments into the public API or the
``itlc`` command line.  After the timed passes the benchmark reduces every
result to a digest (a plain, comparable value), compares the digests of
every pass with the first, and checks the first pass's digests for
correctness.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

FLAGSHIP = "A(~p | <>p) -> (~<>p | <>p)"

# decide-hard: the formulas and the verdicts decide gave them with default
# caps when the benchmark was added.  "(X p -> X q) -> X(p -> q)" trips the
# moment cap; it has a two-point countermodel, so a definitive FALSIFIABLE
# passes its check too.
HARD = (
    ("X ~p <-> ~X p", "FALSIFIABLE"),
    ("A<>p -> (X ~p <-> ~X p)", "FALSIFIABLE"),
    ("p1 | p2 | p3 | p4 | p5 | p6 -> p1", "FALSIFIABLE"),
    ("(X p -> X q) -> X(p -> q)", "RESOURCE_LIMIT"),
    (FLAGSHIP, "FALSIFIABLE"),
    # acceptance criterion 8
    ("X p -> p", "FALSIFIABLE"),
    ("<>p -> p", "FALSIFIABLE"),
    ("E p -> <>p", "FALSIFIABLE"),
    ("p -> X p", "FALSIFIABLE"),
    # acceptance criterion 9
    ("p -> p", "VALID"),
    ("<>p <-> (p | X<>p)", "VALID"),
    ("X(p & q) <-> (X p & X q)", "VALID"),
    ("X(p -> q) -> (X p -> X q)", "VALID"),
)
CRITERION_8 = ("X p -> p", "<>p -> p", "E p -> <>p", "p -> X p")
CRITERION_9 = ("p -> p", "<>p <-> (p | X<>p)", "X(p & q) <-> (X p & X q)",
               "X(p -> q) -> (X p -> X q)")
# Formulas whose validity on a system characterizes minimality, recurrence
# and (one direction of) connectedness.
MINIMAL, RECURRENT, CONNECTED = ("E p -> <>p", "p -> ~~X<>p",
                                 "A(p | ~p) -> (A p | A~p)")

# decide-random
RANDOM_DEPTH = 4
RANDOM_ATOMS = ("p", "q")
RANDOM_MODALITIES = ("X", "<>", "A", "E")
RANDOM_MAX_MOMENTS = "2000"
RANDOM_BODY = 289          # seeded draws per pass, before rounding the quotas

# modelcheck
SYSTEMS = 24
SYSTEM_POINTS = (3, 7)
EVALUATIONS_PER_SYSTEM = 5
EVALUATION_DEPTH = 3


class Workload:
    """Inputs and operations of one workload; see the module docstring."""

    decide = False          # reports decided_share and cert_worlds_total

    def __init__(self, itlc, seed: int, tiny: bool):
        self.itlc = itlc
        self.ops: list = []
        self.labels: list[str] = []

    def add(self, label: str, op) -> None:
        self.labels.append(label)
        self.ops.append(op)

    def digest(self, i: int, result):
        return result

    def check(self, i: int, digest) -> str | None:
        """None when the digest is correct, else what is wrong."""
        return None

    def decided(self, digest) -> bool:
        return True

    def cert_worlds(self, digest) -> int:
        return 0


# ---------------------------------------------------------------------------
# decide-random

def draw_formulas(itlc, seed: int):
    """Distinct seeded draws that fall in the decidable fragment, in draw
    order, as (text, context size) pairs; an endless generator."""
    from itlc.formula import Modality
    rng = random.Random(seed)
    modalities = frozenset(Modality(m) for m in RANDOM_MODALITIES)
    seen = set()
    while True:
        f = itlc.random_formula(rng, RANDOM_DEPTH, RANDOM_ATOMS, modalities)
        text = itlc.format_formula(f)
        if text in seen:
            continue
        seen.add(text)
        reduced = itlc.eliminate_exists(f)
        if itlc.in_diamond_fragment(reduced):
            yield text, len(itlc.subformula_closure(reduced))


def cost_class(ms: int) -> int:
    """Power-of-two bucket of a decide time in milliseconds."""
    return max(ms, 1).bit_length()


def capture(call, *args):
    """Run a command-line call, returning (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = call(*args)
    return code, out.getvalue()


class DecideRandom(Workload):
    """Seeded random formulas decided through the ``itlc decide`` entry point.

    The pool in data/pool.json holds the draws of a fixed generator seed.
    Its body (context size at most 16) is split into classes by the decide
    time each draw took when the pool was made; the workload seed samples a
    fixed quota from every class, so every seed's pass has the same cost
    profile.  The tail (context size 17 to 21) is fixed: single draws of
    that size range from 0.3 to 6 s, and a seeded tail would make the pass
    time depend on the seed more than on the code.
    """

    decide = True

    def __init__(self, itlc, seed, tiny):
        super().__init__(itlc, seed, tiny)
        pool = json.loads((DATA / "pool.json").read_text(encoding="utf-8"))
        rng = random.Random(seed)
        classes: dict[int, list[str]] = {}
        for entry in pool["body"]:
            classes.setdefault(cost_class(entry["ms"]), []).append(entry["formula"])
        size = 12 if tiny else RANDOM_BODY
        texts = []
        for key in sorted(classes):
            quota = round(size * len(classes[key]) / len(pool["body"]))
            texts.extend(rng.sample(classes[key], quota))
        if not tiny:
            texts.extend(entry["formula"] for entry in pool["tail"])
        rng.shuffle(texts)
        self.texts = texts
        cli = itlc.cli
        for text in texts:
            argv = ["decide", text, "--format", "json",
                    "--max-moments", RANDOM_MAX_MOMENTS]
            self.add(text, lambda argv=argv: capture(cli.run, argv))

    def check(self, i, digest):
        itlc = self.itlc
        code, out = digest
        f = itlc.parse(self.texts[i])
        if code == 0:
            if json.loads(out) != {"verdict": "VALID", "complete": True}:
                return "VALID output is not the documented JSON"
            if itlc.find_countermodel(f, 3) is not None:
                return "VALID, but a countermodel with at most 3 points exists"
            return None
        if code == 1:
            outcome = itlc.verify_certificate(json.loads(out), f)
            return None if outcome else f"certificate rejected: {outcome.reason}"
        if code == 3:
            # the JSON format prints plain text on a resource limit
            return None
        return f"exit code {code}"

    def decided(self, digest):
        return digest[0] in (0, 1)

    def cert_worlds(self, digest):
        code, out = digest
        return len(json.loads(out)["worlds"]) if code == 1 else 0


# ---------------------------------------------------------------------------
# decide-hard

class DecideHard(Workload):
    """A fixed list decided through ``itlc.decide`` with default caps; the
    seed only shuffles the order."""

    decide = True

    def __init__(self, itlc, seed, tiny):
        super().__init__(itlc, seed, tiny)
        cases = [c for c in HARD if not tiny or c[0] in CRITERION_8]
        random.Random(seed).shuffle(cases)
        self.cases = cases
        self.formulas = [itlc.parse(text) for text, _ in cases]
        for (text, _), f in zip(cases, self.formulas):
            self.add(text, lambda f=f: itlc.decide(f))

    def digest(self, i, verdict):
        cert = verdict.certificate
        return verdict.kind, None if cert is None else cert.to_json_text()

    def check(self, i, digest):
        kind, text = digest
        expected = self.cases[i][1]
        if kind != expected and not (expected == "RESOURCE_LIMIT" and kind == "FALSIFIABLE"):
            return f"verdict {kind}, expected {expected}"
        if kind == "FALSIFIABLE":
            outcome = self.itlc.verify_certificate(json.loads(text), self.formulas[i])
            if not outcome:
                return f"certificate rejected: {outcome.reason}"
        return None

    def decided(self, digest):
        return digest[0] != "RESOURCE_LIMIT"

    def cert_worlds(self, digest):
        kind, text = digest
        return len(json.loads(text)["worlds"]) if kind == "FALSIFIABLE" else 0


# ---------------------------------------------------------------------------
# verify-certs

def tamper(cert: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a genuine certificate that no verifier may accept.

    Each kind breaks the certificate in a way that does not depend on the
    verifier: a dropped edge is one some lasso walks; a moved witness lands
    on a world whose label holds the target (the last context formula); a
    broken loop gains a step along a missing edge; a flipped label bit is in
    a world that sits below another, whose nested copy of the original then
    names a world that is no longer listed.
    """
    data = json.loads(json.dumps(cert))
    edges = {tuple(e) for e in data["s_edges"]}
    ids = sorted(w["id"] for w in data["worlds"])
    if kind == "drop-edge":
        walked = set()
        for lasso in data["lassos"].values():
            seq = lasso["prefix"] + lasso["loop"]
            walked.update(zip(seq, seq[1:]))
            walked.add((seq[-1], lasso["loop"][0]))
        dropped = rng.choice(sorted(walked))
        data["s_edges"] = [e for e in data["s_edges"] if tuple(e) != dropped]
    elif kind == "move-witness":
        target = len(data["sigma"]) - 1
        holding = [w["id"] for w in data["worlds"] if target in w["moment"]["label"]]
        data["witness"] = rng.choice(holding) if holding else ids[-1] + 1
    elif kind == "break-loop":
        keys = sorted(data["lassos"], key=int)
        rng.shuffle(keys)
        for key in keys:
            loop = data["lassos"][key]["loop"]
            missing = [y for y in ids if (loop[-1], y) not in edges]
            if missing:
                loop.append(rng.choice(missing))
                break
        else:
            # every world reaches every world: start a lasso elsewhere instead
            lasso = data["lassos"][keys[0]]
            walk = lasso["prefix"] or lasso["loop"]
            walk[0] = rng.choice([i for i in ids if i != int(keys[0])])
    elif kind == "flip-bit":
        below = sorted({a for a, _ in data["order"]})
        if below:
            wid, bit = rng.choice(below), rng.randrange(len(data["sigma"]))
        else:
            wid, bit = data["witness"], len(data["sigma"]) - 1
        world = next(w for w in data["worlds"] if w["id"] == wid)
        label = set(world["moment"]["label"]) ^ {bit}
        world["moment"]["label"] = sorted(label)
    else:
        raise ValueError(f"unknown tampering {kind!r}")
    return data


TAMPERINGS = ("drop-edge", "move-witness", "break-loop", "flip-bit")


class VerifyCerts(Workload):
    """Stored certificates, genuine and tampered, each checked by parsing
    its JSON text and calling ``verify_certificate``."""

    def __init__(self, itlc, seed, tiny):
        super().__init__(itlc, seed, tiny)
        stored = json.loads((DATA / "certs.json").read_text(encoding="utf-8"))
        if tiny:
            stored = [c for c in stored if c["formula"] in CRITERION_8]
        rng = random.Random(seed)
        cases = []
        for entry in stored:
            target = itlc.parse(entry["formula"])
            cert = entry["certificate"]
            cases.append((entry["formula"], "genuine", target, cert))
            cases.extend((entry["formula"], kind, target, tamper(cert, kind, rng))
                         for kind in TAMPERINGS)
        rng.shuffle(cases)
        self.genuine = []
        for text, kind, target, cert in cases:
            # the indented form is byte for byte what `itlc decide` printed
            blob = json.dumps(cert, indent=2)
            self.genuine.append(kind == "genuine")
            self.add(f"{kind} {text}",
                     lambda blob=blob, target=target:
                     itlc.verify_certificate(json.loads(blob), target))

    def digest(self, i, outcome):
        return bool(outcome), outcome.reason

    def check(self, i, digest):
        accepted, reason = digest
        if self.genuine[i] and not accepted:
            return f"genuine certificate rejected: {reason}"
        if not self.genuine[i] and accepted:
            return "tampered certificate accepted"
        return None


# ---------------------------------------------------------------------------
# modelcheck

class ModelCheck(Workload):
    """Seeded random systems with random open valuations, evaluated,
    analyzed and checked for validity, plus the fixed countermodel searches
    and extractions of the acceptance suite."""

    def __init__(self, itlc, seed, tiny):
        super().__init__(itlc, seed, tiny)
        from itlc.alexandroff import open_masks
        self.tiny = tiny
        rng = random.Random(seed)
        self.kinds: list[tuple] = []
        for _ in range(3 if tiny else SYSTEMS):
            X = itlc.random_system(rng.randint(*SYSTEM_POINTS), rng.randrange(2**30))
            opens = open_masks(X)
            val = {a: X.names_of(rng.choice(opens)) for a in ("p", "q")}
            for _ in range(EVALUATIONS_PER_SYSTEM):
                f = itlc.random_formula(rng, EVALUATION_DEPTH)
                self._add("evaluate", (X, val, f), lambda X=X, v=val, f=f: itlc.evaluate(X, v, f))
            self._add("analyze", (X,), lambda X=X: itlc.analyze(X))
            for text in (MINIMAL, RECURRENT, CONNECTED):
                f = itlc.parse(text)
                self._add("valid", (X, text),
                          lambda X=X, f=f: itlc.is_valid_on_system(X, f))
        for text in CRITERION_8:
            f = itlc.parse(text)
            self._add("countermodel", (f,), lambda f=f: self._countermodel(f))
        # exhaustive 3-point searches that must find nothing; the 4-point
        # flagship search is only a check (see check), because its time
        # follows the host's memory traffic more than the reference loop
        for text in CRITERION_9 + (FLAGSHIP,):
            f = itlc.parse(text)
            self._add("exhaustive", (text,), lambda f=f: itlc.find_countermodel(f, 3))

    def _add(self, kind, inputs, op):
        self.kinds.append((kind, inputs))
        self.add(kind, op)

    def _countermodel(self, f):
        itlc = self.itlc
        found = itlc.find_countermodel(f, 3)
        if found is None:
            return None, None
        # a fresh context per call, so no cache outlives the operation
        sigma = itlc.subformula_closure(itlc.eliminate_exists(f))
        return found, itlc.extract_quasimodel(found.system, found.valuation, sigma)

    def digest(self, i, result):
        if self.kinds[i][0] == "analyze":
            return result.as_dict()
        return result

    def check(self, i, digest):
        itlc = self.itlc
        kind, inputs = self.kinds[i]
        if kind == "evaluate":
            X, val, f = inputs
            if itlc.interior(X, digest) != digest:
                return "truth set is not open"
            ev = lambda g: itlc.evaluate(X, val, g)
            if ev(itlc.neg(itlc.neg(f))) != itlc.interior(X, itlc.closure(X, digest)):
                return "double negation is not the interior of the closure"
            if ev(itlc.Exists(f)) != ev(itlc.neg(itlc.Forall(itlc.neg(f)))):
                return "E f differs from ~A~f"
            if ev(itlc.Eventually(f)) != ev(itlc.Or(f, itlc.Next(itlc.Eventually(f)))):
                return "<>f differs from f | X<>f"
            if ev(itlc.Henceforth(f)) != ev(itlc.And(f, itlc.Next(itlc.Henceforth(f)))):
                return "[]f differs from f & X[]f"
        elif kind == "valid":
            X, text = inputs
            facts = itlc.analyze(X)
            if text == MINIMAL and digest != facts.minimal:
                return "validity of E p -> <>p disagrees with minimality"
            if text == RECURRENT and digest != facts.recurrent:
                return "validity of p -> ~~X<>p disagrees with recurrence"
            if text == CONNECTED and facts.connected and not digest:
                return "connected system falsifies A(p | ~p) -> (A p | A~p)"
        elif kind == "countermodel":
            f, = inputs
            found, q = digest
            if found is None or len(found.system) > 3:
                return "no countermodel with at most 3 points"
            target = q.sigma.index[itlc.eliminate_exists(f)]
            if found.point in itlc.evaluate(found.system, found.valuation, f):
                return "the countermodel point satisfies the formula"
            outcome = itlc.check_quasimodel(q)
            if not outcome:
                return f"extracted quasimodel invalid: {outcome.reason}"
            if all(m.label >> target & 1 for m in q.worlds):
                return "extracted quasimodel falsifies nothing"
        elif kind == "exhaustive":
            text, = inputs
            if digest is not None:
                return "a countermodel with at most 3 points exists"
            if text == FLAGSHIP and not self.tiny and itlc.find_countermodel(
                    itlc.parse(text), 4, itlc.Caps(max_systems=10**6)) is not None:
                return "the flagship has a countermodel with at most 4 points"
        return None


WORKLOADS = {
    "decide-random": DecideRandom,
    "decide-hard": DecideHard,
    "verify-certs": VerifyCerts,
    "modelcheck": ModelCheck,
}
