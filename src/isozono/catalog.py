"""Builtin graph catalog and the plain-text graph spec format.

Builtins:

* ``l1:n``   (1 <= n <= 4): generators e_1..e_n (nearest neighbors in 1-norm).
* ``linf:n`` (1 <= n <= 4): the (3^n - 1)/2 sign-canonical vectors of
  {-1,0,1}^n (nearest neighbors in max-norm).
* ``tri``: dimension 2 with generators (1,0), (0,1), (1,1) (triangular lattice
  as a graph on Z^2).
* ``d4cross``: the even-coordinate-sum lattice in dimension 4 with its 24
  minimal vectors as edges, rewritten as a graph on Z^4 in the basis
  B = {(1,-1,0,0), (0,1,-1,0), (0,0,1,-1), (0,0,1,1)} (index 2, |det B| = 2).
  The ``GraphSpec`` records both B and the original 24 segment vectors, because the
  zonotope's reported vertex/facet coordinates live in the original
  coordinates while graph operations live in the Z^4 chart.

Graph spec files are line-oriented text: ``dim n``, one ``generator``
row per generator, optional ``symmetry`` rows (signed 1-based source indices:
``symmetry 2 -1`` maps (x1, x2) to (x2, -x1)), ``#`` comments, and an
optional ``name`` line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import FormatError, InternalConsistencyError, InvalidArgumentError, IsozonoError
from .intmat import canonical_sign, det
from .plgraph import PLGraph, canonicalize_generators
from .zonotope import Zonotope, build_zonotope_from_segments, zonotope_of_graph

BUILTIN_NAMES = ("l1:1", "l1:2", "l1:3", "l1:4",
                 "linf:1", "linf:2", "linf:3", "linf:4",
                 "tri", "d4cross")


@dataclass(frozen=True)
class GraphSpec:
    """A named graph plus optional symmetry hints and original-coordinate data."""

    name: str
    dim: int
    generators: tuple
    symmetry_hints: tuple = ()
    basis: tuple = None  # columns of the rewriting basis, when one was used
    original_segments: tuple = None  # one-sided segments in original coords

    def graph(self) -> PLGraph:
        return PLGraph(self.dim, self.generators)

    def zonotope(self) -> Zonotope:
        return zonotope_of_graph(self.graph())

    def original_zonotope(self) -> Zonotope:
        """Zonotope in original coordinates when a basis change was recorded."""
        if self.original_segments is None:
            return self.zonotope()
        return build_zonotope_from_segments(self.dim, self.original_segments)


def _apply_hint(hint, p):
    return tuple(s * p[j] for j, s in hint)


def check_symmetry_hints(dim, generators, hints):
    """Every hint must be a signed permutation fixing the generator set."""
    gen_set = set(generators)
    for hint in hints:
        if len(hint) != dim or sorted(j for j, _ in hint) != list(range(dim)):
            raise InvalidArgumentError(f"symmetry hint {hint} is not a permutation of 0..{dim-1}")
        if any(s not in (-1, 1) for _, s in hint):
            raise InvalidArgumentError(f"symmetry hint {hint} has signs outside {{-1, 1}}")
        image = {canonical_sign(_apply_hint(hint, g)) for g in generators}
        if image != gen_set:
            raise InvalidArgumentError(
                f"symmetry hint {hint} does not preserve the generator set")


def _minus_identity(dim):
    return tuple((i, -1) for i in range(dim))


def _hyperoctahedral_hints(dim):
    """Adjacent transpositions plus one sign flip: generates all signed perms."""
    hints = []
    for i in range(dim - 1):
        perm = list(range(dim))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        hints.append(tuple((j, 1) for j in perm))
    flip = [(j, 1) for j in range(dim)]
    flip[0] = (0, -1)
    hints.append(tuple(flip))
    return tuple(hints)


def _d4cross_data():
    basis = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1))
    segments = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si, sj in product((-1, 1), repeat=2):
                w = [0] * 4
                w[i], w[j] = si, sj
                segments.append(tuple(w))
    # Cramer's rule: the basis has index 2, so it is not a kernel chart.
    index = det(basis)
    gens = set()
    for r in segments:
        y = [det(basis[:j] + (r,) + basis[j + 1:]) for j in range(4)]
        if any(c % index for c in y):
            raise InternalConsistencyError(f"segment {r} is not in the lattice of the basis")
        gens.add(canonical_sign(tuple(c // index for c in y)))
    return basis, tuple(segments), canonicalize_generators(4, sorted(gens))


def builtin_graph(name: str) -> GraphSpec:
    """One of the builtin graphs; see the module docstring for the list."""
    if name == "tri":
        gens = canonicalize_generators(2, [(1, 0), (0, 1), (1, 1)])
        swap = ((1, 1), (0, 1))
        hints = (swap, _minus_identity(2))
        check_symmetry_hints(2, gens, hints)
        return GraphSpec("tri", 2, gens, hints)
    if name == "d4cross":
        basis, segments, gens = _d4cross_data()
        hints = (_minus_identity(4),)
        check_symmetry_hints(4, gens, hints)
        return GraphSpec("d4cross", 4, gens, hints, basis=basis,
                         original_segments=segments)
    if ":" in name:
        family, _, tail = name.partition(":")
        if family in ("l1", "linf"):
            try:
                n = int(tail)
            except ValueError:
                raise InvalidArgumentError(f"bad dimension in graph name {name!r}") from None
            if not 1 <= n <= 4:
                raise InvalidArgumentError(f"dimension out of range in {name!r} (1..4)")
            if family == "l1":
                raw = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            else:
                raw = sorted({canonical_sign(v)
                              for v in product((-1, 0, 1), repeat=n) if any(v)})
            gens = canonicalize_generators(n, raw)
            hints = _hyperoctahedral_hints(n)
            check_symmetry_hints(n, gens, hints)
            return GraphSpec(name, n, gens, hints)
    raise InvalidArgumentError(f"unknown graph {name!r}; builtins: {', '.join(BUILTIN_NAMES)}")


# -- plain-text spec files ----------------------------------------------------


def parse_graph_spec(text: str, source: str = "<string>") -> GraphSpec:
    """Parse the line-oriented graph spec format (see module docstring)."""
    name = "custom"
    dim = None
    generators = []
    hints = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        where = f"{source}:{lineno}"
        if key == "name":
            if len(args) != 1:
                raise FormatError(f"{where}: name takes one token")
            name = args[0]
        elif key == "dim":
            if len(args) != 1 or not args[0].lstrip("-").isdigit():
                raise FormatError(f"{where}: dim takes one integer")
            dim = int(args[0])
            if dim < 1:
                raise FormatError(f"{where}: dim must be >= 1")
        elif key == "generator":
            if dim is None:
                raise FormatError(f"{where}: dim must come before generators")
            try:
                vec = tuple(int(a) for a in args)
            except ValueError:
                raise FormatError(f"{where}: generator entries must be integers") from None
            if len(vec) != dim:
                raise FormatError(f"{where}: generator has {len(vec)} entries, dim is {dim}")
            generators.append(vec)
        elif key == "symmetry":
            if dim is None:
                raise FormatError(f"{where}: dim must come before symmetry rows")
            try:
                idx = [int(a) for a in args]
            except ValueError:
                raise FormatError(f"{where}: symmetry entries must be signed integers") from None
            if len(idx) != dim or sorted(abs(a) for a in idx) != list(range(1, dim + 1)):
                raise FormatError(
                    f"{where}: symmetry row must be signed indices 1..{dim}, "
                    "each magnitude once")
            hints.append(tuple((abs(a) - 1, 1 if a > 0 else -1) for a in idx))
        else:
            raise FormatError(f"{where}: unknown key {key!r}")
    if dim is None:
        raise FormatError(f"{source}: missing dim line")
    if not generators:
        raise FormatError(f"{source}: no generator rows")
    try:
        gens = canonicalize_generators(dim, generators)
    except IsozonoError as exc:
        raise FormatError(f"{source}: {exc}") from None
    if hints:
        try:
            check_symmetry_hints(dim, gens, hints)
        except IsozonoError as exc:
            raise FormatError(f"{source}: {exc}") from None
    return GraphSpec(name, dim, gens, tuple(hints))


def emit_graph_spec(spec: GraphSpec) -> str:
    lines = [f"name {spec.name}", f"dim {spec.dim}"]
    for g in spec.generators:
        lines.append("generator " + " ".join(str(a) for a in g))
    for hint in spec.symmetry_hints:
        lines.append("symmetry " + " ".join(str(s * (j + 1)) for j, s in hint))
    return "\n".join(lines) + "\n"


def comparison_builtin(name: str):
    """The one-dimension-lower member of the same family, when there is one."""
    if ":" in name:
        family, _, tail = name.partition(":")
        if family in ("l1", "linf") and tail.isdigit() and int(tail) >= 2:
            return f"{family}:{int(tail) - 1}"
    return None
