"""Brute-force reference implementations used only by the tests.

Kept deliberately independent of the library's algorithms so the two
can disagree.
"""

import itertools

from itlc.alexandroff import (Countermodel, FinitePoset, FiniteSystem, _atoms, _compile,
                              _evaluate_mask, _Lanes, _systems, interior, open_masks)
from itlc.config import DEFAULT_CAPS
from itlc.errors import CapExceeded, ItlcError, SchemaError
from itlc.formula import (BOT, And, Atom, Bottom, Eventually, Exists, Forall, Henceforth,
                          Implies, Next, Or, subformulas)
from itlc.labels import enumerate_types, profile_compatible
from itlc.moments import check_kit, moment, temporal_successor
from itlc.quasimodel import Check


def all_moments_upto(sigma, max_nodes):
    """Every moment with at most max_nodes nodes, duplicates included."""
    by_size = {1: [moment(sigma, t.mask) for t in enumerate_types(sigma)
                   if not sigma.defect_indices(t.mask)]}
    for size in range(2, max_nodes + 1):
        out = []
        for root in sigma.type_masks():
            pool = [m for s in range(1, size) for m in by_size[s]
                    if root & m.label == root]
            for k in range(1, size):
                for kids in itertools.combinations_with_replacement(pool, k):
                    if sum(c.size for c in kids) != size - 1:
                        continue
                    if any(all(c.label >> i & 1 for c in kids)
                           for i in sigma.defect_indices(root)):
                        continue
                    m = moment(sigma, root, kids)
                    if m.size == size and m not in out:
                        out.append(m)
        by_size[size] = out
    return [m for s in sorted(by_size) for m in by_size[s]]


def flatten(m):
    nodes = []

    def emit(node, parent):
        me = len(nodes)
        nodes.append((node.label, parent))
        for c in node.children:
            emit(c, me)

    emit(m, None)
    return nodes


def is_desc(nodes, anc, j):
    while j is not None:
        if j == anc:
            return True
        j = nodes[j][1]
    return False


def successor_oracle(v, w):
    """Brute force: search for a root-fixing monotone node map whose
    pairs are all sensible.  A witness relation thins to such a map by
    choosing one image per node downward, and any such map is itself a
    witness relation, so this matches the relational formulation."""
    sigma = v.sigma
    vn, wn = flatten(v), flatten(w)

    def extend(assign):
        i = len(assign)
        if i == len(vn):
            return True
        label_i, parent_i = vn[i]
        for j, (label_j, _) in enumerate(wn):
            if i == 0 and j != 0:
                continue
            if parent_i is not None and not is_desc(wn, assign[parent_i], j):
                continue
            if sigma.sensible_masks(label_i, label_j):
                if extend(assign + [j]):
                    return True
        return False

    return extend([])


def relation_oracle(v, w, limit=2**16):
    """Literal brute force over relations: every subset of the sensible
    node pairs that contains the root pair, accepted when it is forward
    confluent.  Returns None when the subset space exceeds the limit,
    and False when the root pair is not sensible."""
    sigma = v.sigma
    vn, wn = flatten(v), flatten(w)
    sensible = [(i, j) for i in range(len(vn)) for j in range(len(wn))
                if sigma.sensible_masks(vn[i][0], wn[j][0])]
    if 2 ** len(sensible) > limit:
        return None
    if (0, 0) not in sensible:
        return False
    others = [pair for pair in sensible if pair != (0, 0)]
    children_of = [[c for c, (_, parent) in enumerate(vn) if parent == i]
                   for i in range(len(vn))]

    def confluent(rel):
        for (i, j) in rel:
            for c in children_of[i]:
                if not any(c2 == c and is_desc(wn, j, j2) for (c2, j2) in rel):
                    return False
        return True

    for k in range(len(others) + 1):
        for subset in itertools.combinations(others, k):
            if confluent({(0, 0), *subset}):
                return True
    return False


def simulation_oracle(moments, X, point_labels):
    """The moment-point pairs of the largest label-preserving simulation,
    as a greatest fixpoint: start from every pair whose labels agree and
    drop pairs, in sorted sweeps, while some child of the moment has no
    surviving partner in the point's minimal neighborhood."""
    n = len(X)
    alive = {(m, x) for m in moments for x in range(n) if m.label == point_labels[x]}
    changed = True
    while changed:
        changed = False
        for m, x in sorted(alive, key=lambda p: (p[0].key, p[1])):
            if not all(any((c, y) in alive for y in range(n) if X.down[x] >> y & 1)
                       for c in m.children):
                alive.discard((m, x))
                changed = True
    return alive


def reduction_oracle(m):
    """All images of idempotent label-preserving monotone collapses onto
    proper node subsets, by exhausting candidate maps."""
    nodes = flatten(m)
    n = len(nodes)
    candidates = [[j for j in range(n) if nodes[j][0] == nodes[i][0]]
                  for i in range(n)]
    images = []
    for pi in itertools.product(*candidates):
        if len(set(pi)) == n:
            continue
        if any(pi[pi[i]] != pi[i] for i in range(n)):
            continue
        if all(is_desc(nodes, pi[nodes[i][1]], pi[i]) for i in range(1, n)):
            images.append(frozenset(pi))
    return images


def truth_oracle(X, valuation, f):
    """Points satisfying f, from the pointwise definitions: atoms by
    membership, implication over the cone below the point, next at the
    image, eventually and henceforth along the orbit, and the quantifiers
    over all points.  Nothing is memoised or tabulated."""
    n = len(X)

    def orbit(x):
        seen = []
        while x not in seen:
            seen.append(x)
            x = X.f[x]
        return seen

    def holds(g, x):
        if isinstance(g, Atom):
            return X.names[x] in valuation[g.name]
        if isinstance(g, And):
            return holds(g.left, x) and holds(g.right, x)
        if isinstance(g, Or):
            return holds(g.left, x) or holds(g.right, x)
        if isinstance(g, Implies):
            return all(not holds(g.left, y) or holds(g.right, y)
                       for y in range(n) if X.down[x] >> y & 1)
        if isinstance(g, Next):
            return holds(g.body, X.f[x])
        if isinstance(g, Eventually):
            return any(holds(g.body, y) for y in orbit(x))
        if isinstance(g, Henceforth):
            return all(holds(g.body, y) for y in orbit(x))
        if isinstance(g, Forall):
            return all(holds(g.body, y) for y in range(n))
        if isinstance(g, Exists):
            return any(holds(g.body, y) for y in range(n))
        return False  # bottom

    return frozenset(X.names[x] for x in range(n) if holds(f, x))


def format_oracle(f, min_level=0):
    """The recursive printer the library replaced by its bottom-up one:
    levels 0 (implies, right associative) < 1 (or) < 2 (and) < 3 (unary),
    parentheses only where an operand's level is below the least its
    position allows, and `a -> #` printed as `~a`."""
    if isinstance(f, Bottom):
        return "#"
    if isinstance(f, Atom):
        return f.name
    unary = {Next: "X", Eventually: "<>", Henceforth: "[]", Forall: "A", Exists: "E"}
    if isinstance(f, Implies) and f.right == BOT:
        text, level = "~" + format_oracle(f.left, 3), 3
    elif type(f) in unary:
        text, level = unary[type(f)] + format_oracle(f.body, 3), 3
    elif isinstance(f, And):
        text, level = format_oracle(f.left, 2) + " & " + format_oracle(f.right, 3), 2
    elif isinstance(f, Or):
        text, level = format_oracle(f.left, 1) + " | " + format_oracle(f.right, 2), 1
    else:
        text, level = format_oracle(f.left, 1) + " -> " + format_oracle(f.right, 0), 0
    return f"({text})" if level < min_level else text


def _path_to(start, successors, goal):
    """Whether a forward search from start meets a node satisfying goal."""
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        if goal(v):
            return True
        for w in successors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def sensible_oracle(sigma, now, nxt):
    """Whether nxt may follow now, by the three rules checked one formula
    at a time: next-formulas transfer to their bodies, eventualities hold
    now iff realized now or owed next, and universal members agree."""
    for i, b in sigma.next_pairs:
        if now >> i & 1 != nxt >> b & 1:
            return False
    for i, b in sigma.ev_pairs:
        if now >> i & 1 != (now >> b & 1 or nxt >> i & 1):
            return False
    if now & sigma.forall_mask != nxt & sigma.forall_mask:
        return False
    return True


def viability_oracle(sigma, profile):
    """The label-viability fixpoint swept type by type: in ascending
    order, drop a profile-compatible type with no sensible successor
    among the survivors, with an eventuality no sensible path of
    survivors realizes, or with a defect no strictly larger survivor
    revokes, until a sweep drops nothing."""
    alive = {m for m in sigma.type_masks() if profile_compatible(sigma, profile, m)}

    def successors(v):
        return [w for w in alive if sigma.sensible_masks(v, w)]

    changed = True
    while changed:
        changed = False
        for m in sorted(alive):
            serial = bool(successors(m))
            realized = all(_path_to(m, successors, lambda v, b=b: v >> b & 1)
                           for i, b in sigma.ev_pairs if m >> i & 1)
            revoked = all(any(v != m and v & m == m and v >> a & 1 and not v >> c & 1
                              for v in alive)
                          for i, a, c in sigma.impl_triples
                          if not m >> i & 1 and not m >> a & 1)
            if not (serial and realized and revoked):
                alive.discard(m)
                changed = True
    return frozenset(alive)


def prune_oracle(store, profile):
    """Profile pruning swept moment by moment: of the moments whose node
    labels follow the profile, drop, in key order, one with a submoment
    or every successor already gone, or with a root eventuality no path
    of survivors realizes, until a sweep drops nothing.  Returns the
    surviving worlds in key order and the successor pairs among them."""
    sigma = store.sigma
    carrier = [m for m in store.moments
               if all(profile_compatible(sigma, profile, l) for l in m.node_labels())]
    succ = {v: [w for w in carrier if temporal_successor(v, w)] for v in carrier}
    alive = set(carrier)

    def successors(v):
        return [w for w in succ[v] if w in alive]

    changed = True
    while changed:
        changed = False
        for v in sorted(alive, key=lambda m: m.key):
            if not (all(s in alive for s in v.subtrees()) and successors(v)
                    and all(_path_to(v, successors, lambda u, b=b: u.label >> b & 1)
                            for i, b in sigma.ev_pairs if v.label >> i & 1)):
                alive.discard(v)
                changed = True
    worlds = tuple(sorted(alive, key=lambda m: m.key))
    index = {m: i for i, m in enumerate(worlds)}
    return worlds, frozenset((index[v], index[w]) for v in worlds for w in successors(v))


def structure_oracle(q):
    """`check_quasimodel` clause by clause, in its order and with its
    messages, probing each edge for sensibility with `sensible_oracle`,
    each pair of an edge and a submoment of its source for confluence,
    and each world's eventualities by a forward search."""
    sigma, worlds, rows = q.sigma, q.worlds, q.successors
    if not worlds:
        return Check(False, "no worlds")
    idx = {m: i for i, m in enumerate(worlds)}
    if len(idx) != len(worlds):
        return Check(False, "duplicate worlds")
    for i, m in enumerate(worlds):
        try:
            check_kit(sigma, m.label, m.children)
        except ItlcError as err:
            return Check(False, f"world {i} is not a moment: {err}")
        if any(sub not in idx for sub in m.subtrees()):
            return Check(False, f"world {i} has a submoment that is not a world")
    n = len(worlds)
    if len(rows) != n:
        return Check(False, f"{len(rows)} successor rows for {n} worlds")
    for a, row in enumerate(rows):
        if not all(0 <= b < n for b in row):
            return Check(False, f"world {a} has a successor out of range")
        if any(b >= c for b, c in zip(row, row[1:])):
            return Check(False, f"successors of world {a} are not strictly ascending")
        for b in row:
            if not sensible_oracle(sigma, worlds[a].label, worlds[b].label):
                return Check(False, f"edge ({a},{b}) is not sensible")
    for i in range(n):
        if not rows[i]:
            return Check(False, f"world {i} has no successor")
    for a, row in enumerate(rows):
        for b in row:
            for sub in worlds[a].subtrees():
                a2 = idx[sub]
                if not any(worlds[t] in worlds[b].subtrees() for t in rows[a2]):
                    return Check(False, f"edge ({a},{b}) not confluent below world {a2}")
    for i, m in enumerate(worlds):
        for fi, fb in sigma.ev_pairs:
            if m.label >> fi & 1 and not _path_to(
                    i, rows.__getitem__, lambda v, fb=fb: worlds[v].label >> fb & 1):
                return Check(False, f"eventuality {sigma.formulas[fi]} of world {i} unrealized")
    for fi, fb in sigma.forall_pairs:
        if all(m.label >> fi & 1 for m in worlds) != all(m.label >> fb & 1 for m in worlds):
            return Check(False, f"labels dishonest about {sigma.formulas[fi]}")
    if q.profile is not None:
        for i, m in enumerate(worlds):
            if not all(profile_compatible(sigma, q.profile, l) for l in m.node_labels()):
                return Check(False, f"world {i} disagrees with the profile")
    return Check(True)


def _accepted(build):
    try:
        return build()
    except SchemaError:
        return None


def brute_posets(n):
    """Every relation bit pattern over the pairs (i, j), i != j, meaning i
    below j, that the FinitePoset constructor accepts, in
    itertools.product order."""
    names = tuple(f"e{i}" for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        down = [1 << i for i in range(n)]
        for (i, j), bit in zip(pairs, bits):
            down[j] |= bit << i
        poset = _accepted(lambda: FinitePoset(names, tuple(down)))
        if poset is not None:
            out.append(poset)
    return out


def brute_monotone_maps(poset):
    """Every map, in itertools.product order, that the FiniteSystem
    constructor accepts."""
    n = len(poset)
    return [f for f in itertools.product(range(n), repeat=n)
            if _accepted(lambda: FiniteSystem(poset, f)) is not None]


def brute_open_masks(X):
    """Every subset, ascending as a bitmask, that is its own interior."""
    return [m for m in range(1 << len(X))
            if interior(X, X.names_of(m)) == X.names_of(m)]


def reference_countermodel(f, max_points, caps=DEFAULT_CAPS):
    """The countermodel search over every labelled system, isomorphic
    copies included: the first hit in canonical order, or CapExceeded once
    more than caps.max_systems systems are reached."""
    deadline = caps.deadline()
    program = _compile(subformulas(f))
    atoms = _atoms(program)
    examined = 0
    for n in range(1, max_points + 1):
        for X in _systems(n, deadline):
            examined += 1
            if examined > caps.max_systems:
                raise CapExceeded(f"countermodel search passed {caps.max_systems} systems")
            deadline.check("countermodel search")
            lanes = _Lanes(X, 1)
            for combo in itertools.product(open_masks(X), repeat=len(atoms)):
                valuation = dict(zip(atoms, combo))
                truth = _evaluate_mask(lanes, valuation, program, {})
                if truth != lanes.full:
                    point = next(X.names[i] for i in range(n) if not truth >> i & 1)
                    named = {a: X.names_of(m) for a, m in valuation.items()}
                    return Countermodel(X, named, point)
    return None
