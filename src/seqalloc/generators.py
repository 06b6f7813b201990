"""Instance generators: random families and two hardness gadgets.

The random and correlated families drive sweeps and cross-checks; the
tight family witnesses that the factor-2 ceiling on what manipulation
can gain is approached arbitrarily closely.  The two graph-based
constructions translate clique-type questions into allocation instances
whose optimal manipulation value answers them:

* ``gen_clique_reduction`` maps "does G contain a k-clique" to a gadget
  whose best manipulation bundle has a recognizable class signature,
* ``gen_mcc_reduction`` maps the multicolored-clique question (one
  vertex per color class) to a gadget with few agents, using a Sidon
  set to make vertex and edge identifiers sum-distinct.

Both gadgets are meant for structural study, not for feeding the exact
solvers at interesting sizes.  Every generator returns the instance plus
a metadata dictionary describing what was built; generation is
deterministic, so equal parameters give byte-identical JSON.

Utilities must be strictly decreasing along the manipulator's ranking,
while the constructions reason in coarse utility classes.  Class values
are therefore scaled up and distinct per-item offsets subtracted, which
breaks ties without ever reordering class comparisons; metadata keeps
the original class/proof-frame values so analyses can recover them.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .core import Instance, ResourceLimitError, profile_metrics
from .rng import SplitMix64, stream

# Cap on agents x items for every generated instance, checked before any
# allocation so that an oversized request exits instead of exhausting
# memory.  The largest instance in the test suite has about 10,000.
MAX_PROFILE_ENTRIES = 1_000_000


def _check_size(agents: int, items: int) -> None:
    if agents * items > MAX_PROFILE_ENTRIES:
        raise ResourceLimitError(
            f"{agents} agents x {items} items exceed the generator cap of "
            f"{MAX_PROFILE_ENTRIES} profile entries"
        )


class GraphInput:
    """A simple undirected graph, vertices 1..num_vertices.

    Edges are normalized to (low, high) and sorted; loops and duplicate
    edges are rejected.  ``coloring[v - 1]`` is vertex v's color when a
    coloring is present, and colorings must cover every vertex.  Graphs
    are immutable and compare equal field by field.
    """

    __slots__ = ("num_vertices", "edges", "coloring")

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    coloring: tuple[int, ...] | None

    def __init__(self, num_vertices, edges, coloring=None):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        normalized = []
        for u, v in edges:
            if not 1 <= u <= num_vertices or not 1 <= v <= num_vertices:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
            normalized.append(edge)
        if coloring is not None:
            coloring = tuple(coloring)
            if len(coloring) != num_vertices:
                raise ValueError("coloring must assign a color to every vertex")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        object.__setattr__(self, "coloring", coloring)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: GraphInput is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: GraphInput is immutable")

    def _key(self) -> tuple:
        return (self.num_vertices, self.edges, self.coloring)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GraphInput(num_vertices={self.num_vertices!r}, edges={self.edges!r}, coloring={self.coloring!r})"


def parse_graph(text: str) -> GraphInput:
    """Read a graph from edge-list text.

    Line format: a ``<vertices> <edges>`` header, one ``u v`` line per
    edge (1-based), and optional ``color v c`` lines.  Blank lines and
    ``#`` comments are skipped.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise ValueError("graph text is empty")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be '<vertices> <edges>', got {lines[0]!r}")
    num_vertices, num_edges = int(header[0]), int(header[1])
    edges = []
    colors: dict[int, int] = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "color":
            if len(parts) != 3:
                raise ValueError(f"color line must be 'color v c', got {line!r}")
            vertex, color = int(parts[1]), int(parts[2])
            if not 1 <= vertex <= num_vertices:
                raise ValueError(f"color line names vertex {vertex} outside 1..{num_vertices}")
            if vertex in colors:
                raise ValueError(f"vertex {vertex} colored twice")
            colors[vertex] = color
        else:
            if len(parts) != 2:
                raise ValueError(f"edge line must be 'u v', got {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    if len(edges) != num_edges:
        raise ValueError(f"header promises {num_edges} edges, found {len(edges)}")
    coloring = None
    if colors:
        if len(colors) < num_vertices:
            first = next(v for v in range(1, num_vertices + 1) if v not in colors)
            raise ValueError(f"coloring misses {num_vertices - len(colors)} of {num_vertices} vertices, first {first}")
        coloring = tuple(colors[v] for v in range(1, num_vertices + 1))
    return GraphInput(num_vertices=num_vertices, edges=tuple(edges), coloring=coloring)


class SidonTable(NamedTuple):
    """Sum-distinct vertex identifiers via the Erdos-Turan construction.

    With p the smallest prime above n, id(i) = 2*p*i + (i*i mod p) for
    i = 1..n.  All pairwise sums id(i) + id(l), i <= l, are distinct,
    and p < 2n keeps id(n) in O(n^2).
    """

    n: int
    prime: int
    id_values: tuple[int, ...]

    def id_of(self, vertex: int) -> int:
        return self.id_values[vertex - 1]


def _next_prime(n: int) -> int:
    candidate = n + 1
    while True:
        for d in range(2, int(candidate**0.5) + 1):
            if candidate % d == 0:
                break
        else:
            return candidate
        candidate += 1


def sidon_table(n: int) -> SidonTable:
    if n < 1:
        raise ValueError("need at least one identifier")
    p = _next_prime(n)
    ids = tuple(2 * p * i + (i * i) % p for i in range(1, n + 1))
    return SidonTable(n=n, prime=p, id_values=ids)


def _random_sequence(rng: SplitMix64, n: int, m: int, mu_manipulator: int | None) -> list[int]:
    if mu_manipulator is None:
        return [rng.below(n) for _ in range(m)]
    if not 0 <= mu_manipulator <= m:
        raise ValueError(f"mu_manipulator {mu_manipulator} out of range for {m} items")
    if n == 1 and mu_manipulator != m:
        raise ValueError("single-agent sequences consist of manipulator turns only")
    positions = rng.shuffle(list(range(m)))[:mu_manipulator]
    mine = set(positions)
    return [0 if t in mine else 1 + rng.below(n - 1) for t in range(m)]


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _descending_utilities(manip_row: list[int], m: int) -> list[int]:
    utilities = [0] * m
    for pos, item in enumerate(manip_row):
        utilities[item] = m - pos
    return utilities


def gen_random(seed: int, n: int, m: int, mu_manipulator: int | None = None) -> tuple[Instance, dict]:
    """Uniform instance: random rankings, random sequence, utilities m..1.

    ``mu_manipulator`` pins the number of manipulator turns when given.
    """
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one item")
    _check_size(n, m)
    rng = stream(seed, "gen-random")
    profile = [rng.shuffle(list(range(m))) for _ in range(n)]
    sequence = _random_sequence(rng, n, m, mu_manipulator)
    instance = Instance(
        items=_names("i", m),
        agents=_names("a", n),
        sequence=sequence,
        profile=profile,
        utilities=_descending_utilities(profile[0], m),
    )
    metadata = {"type": "random", "seed": seed, "agents": n, "items": m}
    return instance, metadata


def gen_correlated(
    seed: int,
    n: int,
    m: int,
    target_range_max: int,
    mu_manipulator: int | None = None,
) -> tuple[Instance, dict]:
    """Correlated non-manipulators with a guaranteed rank-range ceiling.

    All non-manipulators share a base ranking; each shuffles it inside
    consecutive blocks of ``target_range_max`` positions, so every item
    spans at most that many positions across them.  A target of 1 makes
    all non-manipulators identical.  The realized maximum is reported in
    the metadata (it can undershoot the target).
    """
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one item")
    if not 1 <= target_range_max <= m:
        raise ValueError(f"target range {target_range_max} out of range for {m} items")
    _check_size(n, m)
    rng = stream(seed, "gen-correlated")
    base = rng.shuffle(list(range(m)))
    profile = [rng.shuffle(list(range(m)))]
    for _ in range(n - 1):
        row = base.copy()
        for start in range(0, m, target_range_max):
            block = row[start : start + target_range_max]
            rng.shuffle(block)
            row[start : start + target_range_max] = block
        profile.append(row)
    sequence = _random_sequence(rng, n, m, mu_manipulator)
    instance = Instance(
        items=_names("i", m),
        agents=_names("a", n),
        sequence=sequence,
        profile=profile,
        utilities=_descending_utilities(profile[0], m),
    )
    metadata = {
        "type": "correlated",
        "seed": seed,
        "agents": n,
        "items": m,
        "target_range_max": target_range_max,
        "realized_range_max": profile_metrics(instance).range_max,
    }
    return instance, metadata


def gen_tight_family(scale: int) -> tuple[Instance, dict]:
    """Four-item family whose manipulation gain approaches the factor-2 cap.

    Truthful reporting earns the manipulator ``scale``; optimal
    manipulation earns 2*scale - 3, so the ratio tends to 2 from below
    as ``scale`` grows.  Requires scale >= 3 to keep utilities strict.
    """
    if scale < 3:
        raise ValueError("scale must be at least 3")
    instance = Instance(
        items=["i1", "i2", "i3", "i4"],
        agents=["a1", "a2", "a3"],
        sequence=[0, 1, 2, 0],
        profile=[
            [0, 1, 2, 3],
            [2, 3, 0, 1],
            [0, 1, 2, 3],
        ],
        utilities=[scale, scale - 1, scale - 2, 0],
    )
    metadata = {"type": "tight", "scale": scale}
    return instance, metadata


CLASS_VALUES = {"best": 4, "good": 3, "medium": 2, "worst": 1}


def gen_clique_reduction(graph: GraphInput, k: int) -> tuple[Instance, dict]:
    """Allocation gadget whose optimal manipulation detects a k-clique.

    Items come in four utility classes: one best and one medium item per
    vertex, one good and one worst item per edge.  One agent per edge
    wants its good item, the two endpoint mediums, then its worst item;
    one agent per vertex protects the vertex's best item; collector
    agents drain medium items.  The sequence interleaves the
    manipulator's turns so that she can take k best items and then the
    good items of the edges among the picked vertices if and only if
    those vertices are pairwise adjacent.  Her last turn lands on a
    medium item exactly when the graph has a k-clique and on a worst
    item otherwise, so the optimal bundle's class signature decides the
    question.

    Requires more than k vertices and more than k*(k-1)/2 edges, the
    regime where the question is nontrivial.
    """
    if k < 1:
        raise ValueError("clique size must be positive")
    V = graph.num_vertices
    E = len(graph.edges)
    if V <= k:
        raise ValueError("need more vertices than the clique size")
    if E <= k * (k - 1) // 2:
        raise ValueError("need more edges than a k-clique contains")

    m = 2 * V + 2 * E
    _check_size(1 + V + E + max(0, V - k - 1), m)
    best = {v: v - 1 for v in range(1, V + 1)}
    good = {edge: V + e for e, edge in enumerate(graph.edges)}
    medium = {v: V + E + v - 1 for v in range(1, V + 1)}
    worst = {edge: 2 * V + E + e for e, edge in enumerate(graph.edges)}

    items = (
        [f"b{v}" for v in range(1, V + 1)]
        + [f"g{u}_{v}" for u, v in graph.edges]
        + [f"m{v}" for v in range(1, V + 1)]
        + [f"w{u}_{v}" for u, v in graph.edges]
    )
    classes = ["best"] * V + ["good"] * E + ["medium"] * V + ["worst"] * E

    # The item layout sorts by class, so utilities decrease with the index.
    scale = m * m
    utilities = [CLASS_VALUES[classes[i]] * scale - i for i in range(m)]

    def ranking_with_top(top: list[int]) -> list[int]:
        lifted = set(top)
        return top + [i for i in range(m) if i not in lifted]

    profile = [list(range(m))]
    agents = ["a1"]
    vertex_agent = {}
    for v in range(1, V + 1):
        vertex_agent[v] = len(agents)
        agents.append(f"v{v}")
        profile.append(ranking_with_top([best[v], medium[v]]))
    edge_agent = {}
    for u, v in graph.edges:
        edge_agent[(u, v)] = len(agents)
        agents.append(f"e{u}_{v}")
        profile.append(ranking_with_top([good[(u, v)], medium[u], medium[v], worst[(u, v)]]))
    collectors = []
    for t in range(1, V - k):
        collectors.append(len(agents))
        agents.append(f"c{t}")
        profile.append(ranking_with_top([medium[v] for v in range(1, V + 1)]))

    sequence = [0] * k
    sequence += [vertex_agent[v] for v in range(1, V + 1)]
    sequence += [0] * (k * (k - 1) // 2)
    sequence += [edge_agent[edge] for edge in graph.edges]
    sequence += collectors
    sequence += [0]
    leftovers = E - k * (k - 1) // 2
    non_manipulators = list(range(1, len(agents)))
    sequence += [non_manipulators[t % len(non_manipulators)] for t in range(leftovers)]

    instance = Instance(
        items=items,
        agents=agents,
        sequence=sequence,
        profile=profile,
        utilities=utilities,
    )
    picks = k + k * (k - 1) // 2 + 1
    metadata = {
        "type": "clique-reduction",
        "k": k,
        "num_vertices": V,
        "num_edges": E,
        "manipulator_picks": picks,
        "utility_scale": scale,
        "class_values": dict(CLASS_VALUES),
        "item_classes": classes,
        "signature_with_clique": {"best": k, "good": k * (k - 1) // 2, "medium": 1, "worst": 0},
        "signature_without_clique": {"best": k, "good": k * (k - 1) // 2, "medium": 0, "worst": 1},
    }
    return instance, metadata


def bundle_class_signature(metadata: dict, bundle) -> dict:
    """Count a bundle's items per utility class of a reduction instance."""
    classes = metadata["item_classes"]
    signature = {name: 0 for name in CLASS_VALUES}
    for item in bundle:
        signature[classes[item]] += 1
    return signature


def _block_utilities(size: int, boundaries: list[int]) -> list[int]:
    """Proof-frame utilities of an identifier block.

    Every position is worth 1, except that each boundary position t gets
    previous_boundary - t + 1 instead, so the block sums to zero exactly
    at the boundaries (the last of which is the block size itself).
    """
    values = [1] * size
    previous = 0
    for boundary in boundaries:
        values[boundary - 1] = previous - boundary + 1
        previous = boundary
    return values


def gen_mcc_reduction(graph: GraphInput, k: int) -> tuple[Instance, dict]:
    """Few-agent gadget deciding a multicolored k-clique.

    The input graph must be vertex-colored with colors 1..k, all used.
    Vertices get sum-distinct Sidon identifiers.  Per color j the gadget
    builds a big block B_j (guarded by its first item b*_j), two
    identifier blocks indexed 1..id(n)+2 whose zero-sum boundaries sit at
    the identifiers of color-j vertices, and per color pair one block
    indexed 1..2*id(n)+2 with boundaries at the identifier sums of the
    edges between the two classes.  Two agents chaperone each color's
    identifier blocks, two each pair's, and one drains a dummy block D;
    a junk block Z keeps everyone busy to the end.  The manipulator can
    recoup the value parked at b*-items and boundary positions exactly
    when she can line her early picks up with one vertex per color that
    is pairwise adjacent, so the optimal value decides the question.
    Only the structure is meant to be inspected at scale; the instance
    is far beyond the exact solvers for interesting k.

    Proof-frame utilities (recorded in the metadata) contain ties and
    negative values; the emitted utilities are shifted nonnegative,
    scaled by the item count, and de-tied with distinct offsets along
    the manipulator's ranking, which preserves every comparison the
    construction relies on.
    """
    if k < 2:
        raise ValueError("multicolored clique needs at least two colors")
    if graph.coloring is None:
        raise ValueError("the graph must carry a vertex coloring")
    V = graph.num_vertices
    used = set(graph.coloring)
    if not all(1 <= color <= k for color in used):
        raise ValueError(f"colors must lie in 1..{k}")
    if len(used) != k:
        raise ValueError("every color in 1..k must appear on some vertex")

    sidon = sidon_table(V)
    idn = sidon.id_values[V - 1]
    alpha = (idn + 2) * k * (k + 1)
    pairs = [(j, r) for j in range(1, k + 1) for r in range(j + 1, k + 1)]
    # Blocks B, D and Z hold 4k(k+1)id(n) items, the identifier blocks
    # 2k(id(n)+2) and the pair blocks (2id(n)+2) each; the agents are the
    # manipulator, k collectors, k(k-1) pair agents, k closers and d.
    _check_size(k * k + k + 2, 4 * k * (k + 1) * idn + 2 * k * (idn + 2) + len(pairs) * (2 * idn + 2))

    items: list[str] = []
    blocks: dict[str, tuple[int, int]] = {}
    proof_frame: list[int] = []

    def add_block(name: str, prefix: str, values: list[int]) -> None:
        start = len(items)
        items.extend(f"{prefix}_{q}" for q in range(1, len(values) + 1))
        proof_frame.extend(values)
        blocks[name] = (start, len(items))

    for j in range(1, k + 1):
        add_block(f"B{j}", f"B{j}", [4 * alpha] + [2 * alpha] * ((k + 1) * idn - 1))
    tau: dict[str, list[int]] = {}
    for j in range(1, k + 1):
        ids = sorted(sidon.id_of(v) for v in range(1, V + 1) if graph.coloring[v - 1] == j)
        tau[f"Idc{j}"] = ids + [idn + 2]
        add_block(f"Idc{j}", f"Idc{j}", _block_utilities(idn + 2, tau[f"Idc{j}"]))
    for j in range(1, k + 1):
        tau[f"Idbar{j}"] = list(tau[f"Idc{j}"])
        add_block(f"Idbar{j}", f"Idbar{j}", _block_utilities(idn + 2, tau[f"Idbar{j}"]))
    for j, r in pairs:
        sums = set()
        for u, v in graph.edges:
            cu, cv = graph.coloring[u - 1], graph.coloring[v - 1]
            if {cu, cv} == {j, r}:
                sums.add(sidon.id_of(u) + sidon.id_of(v))
        tau[f"Idp{j}_{r}"] = sorted(sums) + [2 * idn + 2]
        add_block(f"Idp{j}_{r}", f"Idp{j}_{r}", _block_utilities(2 * idn + 2, tau[f"Idp{j}_{r}"]))
    add_block("D", "D", [2 * alpha] * (k * (k + 1) * idn))
    add_block("Z", "Z", [0] * (2 * k * (k + 1) * idn))

    m = len(items)
    shift = max(0, -min(proof_frame))
    by_frame = sorted(range(m), key=lambda i: (-proof_frame[i], i))
    utilities = [0] * m
    for pos, item in enumerate(by_frame):
        utilities[item] = (proof_frame[item] + shift) * m + (m - 1 - pos)

    def block_items(name: str) -> list[int]:
        start, end = blocks[name]
        return list(range(start, end))

    def ranking_with_top(top: list[int]) -> list[int]:
        lifted = set(top)
        return top + [i for i in range(m) if i not in lifted]

    profile = [by_frame]
    agents = ["a1"]
    agent_blocks: dict[str, list[str]] = {}
    collector = {}
    for j in range(1, k + 1):
        collector[j] = len(agents)
        agents.append(f"c{j}")
        agent_blocks[f"c{j}"] = [f"B{j}", f"Idc{j}", "Z"]
        profile.append(ranking_with_top(block_items(f"B{j}") + block_items(f"Idc{j}") + block_items("Z")))
    pair_agents = []
    for j in range(1, k + 1):
        for r in range(1, k + 1):
            if j == r:
                continue
            pair_agents.append(len(agents))
            agents.append(f"p{j}_{r}")
            block = f"Idp{min(j, r)}_{max(j, r)}"
            agent_blocks[f"p{j}_{r}"] = [f"B{j}", block, "Z"]
            profile.append(ranking_with_top(block_items(f"B{j}") + block_items(block) + block_items("Z")))
    closer = {}
    for j in range(1, k + 1):
        closer[j] = len(agents)
        agents.append(f"cbar{j}")
        agent_blocks[f"cbar{j}"] = [f"B{j}", f"Idbar{j}", "Z"]
        profile.append(ranking_with_top(block_items(f"B{j}") + block_items(f"Idbar{j}") + block_items("Z")))
    dummy = len(agents)
    agents.append("d")
    agent_blocks["d"] = ["D", "Z"]
    profile.append(ranking_with_top(block_items("D") + block_items("Z")))

    subround = [collector[j] for j in range(1, k + 1)]
    subround += pair_agents
    subround += [closer[j] for j in range(1, k + 1)]
    sequence = [0] * (k * (k + 1) * idn)
    sequence += subround * idn
    sequence += [dummy] * (k * (k + 1) * idn)
    sequence += [0] * (m - len(sequence))

    instance = Instance(
        items=items,
        agents=agents,
        sequence=sequence,
        profile=profile,
        utilities=utilities,
    )
    metadata = {
        "type": "mcc-reduction",
        "k": k,
        "num_vertices": V,
        "prime": sidon.prime,
        "sidon_ids": list(sidon.id_values),
        "alpha": alpha,
        "shift": shift,
        "scale": m,
        "blocks": {name: list(span) for name, span in blocks.items()},
        "special_items": {f"B{j}": blocks[f"B{j}"][0] for j in range(1, k + 1)},
        "tau_boundaries": {name: list(values) for name, values in tau.items()},
        "proof_frame_utilities": proof_frame,
        "agent_blocks": agent_blocks,
    }
    return instance, metadata


def metadata_to_json(metadata: dict) -> str:
    """Canonical one-true-serialization for generator metadata."""
    return json.dumps(metadata, indent=2, sort_keys=True) + "\n"
