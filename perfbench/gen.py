"""Problem files for the superlat benchmark.

Only the standard library is used, so the inputs do not depend on the code
under test.  Each workload is its example files from ``problems/`` followed
by a reference set drawn with the roadmap's fixed generator seed
(REFERENCE_SEED); the benchmark's ``--seed`` draws the signs of the probe
block written into every file (see probe_block).

* ``wilson``: Wilson's matrix plus pullbacks U^T U of the identity form,
  anchored at e_1.  All are unimodular forms isometric to I_4, so every
  problem has exactly 384 = |O(Z^4)| integral solutions.
* ``pullback``: Wilson anchored at (1,1,1,1), plus the random unimodular
  pullback generator of the project roadmap (B = A^T A + I with A in
  {-1,0,1}^{n x n}, U a product of 3n elementary column operations with
  +-1 multipliers, B' = U^T B U, anchor at the smallest diagonal entry of B).
* ``neighbour``: the example pairs ``quaternary_pair.txt`` and
  ``binary_pair.txt``, plus Kneser 2-neighbours of roadmap-generator forms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def pull_back(gram: Matrix, basis: Matrix) -> Matrix:
    """U^T B U for an integer matrix U whose columns are the new basis."""
    return matmul(matmul(transpose(basis), gram), basis)


def elementary_column_ops(rng: random.Random, n: int, count: int) -> Matrix:
    """Product of `count` operations col_j += m * col_i (i != j, m = +-1)."""
    u = [list(row) for row in identity(n)]
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        m = rng.choice((-1, 1))
        for row in u:
            row[j] += m * row[i]
    return tuple(tuple(row) for row in u)


def roadmap_form(rng: random.Random, n: int) -> Matrix:
    """B = A^T A + I with the entries of A drawn from {-1, 0, 1}."""
    a = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(n))
    ata = matmul(transpose(a), a)
    return tuple(tuple(x + int(i == j) for j, x in enumerate(row)) for i, row in enumerate(ata))


def smallest_diagonal_anchor(gram: Matrix) -> tuple[int, ...]:
    """Unit vector at the smallest diagonal entry (first one on ties)."""
    n = len(gram)
    k = min(range(n), key=lambda i: (gram[i][i], i))
    return tuple(int(i == k) for i in range(n))


def hermite_basis(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Row Hermite normal form of the lattice spanned by `vectors`:
    pivots positive, entries above a pivot reduced into [0, pivot),
    zero rows dropped."""
    a = [list(v) for v in vectors]
    ncols = len(a[0])
    top = 0
    for c in range(ncols):
        while True:
            live = [r for r in range(top, len(a)) if a[r][c]]
            if not live:
                break
            r0 = min(live, key=lambda r: (abs(a[r][c]), r))
            a[top], a[r0] = a[r0], a[top]
            for r in range(top + 1, len(a)):
                q = a[r][c] // a[top][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[top])]
            if not any(a[r][c] for r in range(top + 1, len(a))):
                break
        if top < len(a) and a[top][c]:
            if a[top][c] < 0:
                a[top] = [-x for x in a[top]]
            for r in range(top):
                q = a[r][c] // a[top][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[top])]
            top += 1
    return [tuple(r) for r in a[:top]]


def kneser_neighbour(gram: Matrix, v: tuple[int, ...]) -> Matrix:
    """Gram matrix of the 2-neighbour L_v + Z v/2 of Z^n in an HNF basis,
    where L_v = {x : B(x, v) even}.  Needs B(v,v) = 0 mod 4 and
    Bv != 0 mod 2."""
    n = len(gram)
    bv = [sum(gram[i][j] * v[j] for j in range(n)) for i in range(n)]
    if sum(x * y for x, y in zip(v, bv)) % 4 or all(x % 2 == 0 for x in bv):
        raise ValueError("v does not define a 2-neighbour")
    k = next(i for i in range(n) if bv[i] % 2)
    # A basis of L_v: e_i + (Bv)_i e_k for i != k, and 2 e_k.  The
    # neighbour is spanned by those and v/2; work in 2 * neighbour.
    gens = []
    for i in range(n):
        e = [0] * n
        if i == k:
            e[k] = 2
        else:
            e[i] = 1
            e[k] = bv[i] % 2
        gens.append(tuple(2 * x for x in e))
    gens.append(tuple(v))
    rows = hermite_basis(gens)
    doubled = pull_back(gram, transpose(tuple(rows)))
    if any(x % 4 for row in doubled for x in row):
        raise ArithmeticError("neighbour is not integral")
    return tuple(tuple(x // 4 for x in row) for row in doubled)


def neighbour_vector(rng: random.Random, gram: Matrix) -> tuple[int, ...] | None:
    """A v in {-1,0,1,2}^n with B(v,v) = 0 mod 4 and Bv != 0 mod 2, the
    first in a seeded order; None when no such v exists."""
    n = len(gram)
    candidates = list(itertools.product((-1, 0, 1, 2), repeat=n))
    rng.shuffle(candidates)
    for v in candidates:
        bv = [sum(gram[i][j] * v[j] for j in range(n)) for i in range(n)]
        if sum(x * y for x, y in zip(v, bv)) % 4 == 0 and any(x % 2 for x in bv):
            return v
    return None


@dataclass(frozen=True)
class Problem:
    name: str
    comment: str
    gram: Matrix
    target: Matrix
    w: tuple[int, ...]

    def text(self) -> str:
        lines = [f"# {self.comment}", f"n {len(self.gram)}", "B"]
        lines += [" ".join(map(str, row)) for row in self.gram]
        lines.append("Bprime")
        lines += [" ".join(map(str, row)) for row in self.target]
        lines.append("w " + " ".join(map(str, self.w)))
        return "\n".join(lines) + "\n"


def wilson(seed: int, count: int, ops: int = 4) -> list[Problem]:
    """`count` pullbacks U^T U of I_4 anchored at e_1, U a product of `ops`
    elementary column operations."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        u = elementary_column_ops(rng, 4, ops)
        out.append(Problem(f"wilson-{k}", f"U^T U, seed {seed} #{k}", identity(4), pull_back(identity(4), u), (1, 0, 0, 0)))
    return out


def pullback(seed: int, count: int, n: int = 4) -> list[Problem]:
    """The first `count` roadmap-generator pullbacks B' = U^T B U."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        gram = roadmap_form(rng, n)
        u = elementary_column_ops(rng, n, 3 * n)
        out.append(Problem(f"pullback-{k}", f"roadmap pullback, seed {seed} #{k}", gram, pull_back(gram, u), smallest_diagonal_anchor(gram)))
    return out


def neighbour(seed: int, count: int, n: int = 4) -> list[Problem]:
    """The first `count` Kneser 2-neighbour pairs (B, B') of roadmap-generator
    forms; a form without a 2-neighbour vector is skipped for the next one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gram = roadmap_form(rng, n)
        v = neighbour_vector(rng, gram)
        if v is not None:
            k = len(out)
            out.append(Problem(f"neighbour-{k}", f"2-neighbour, seed {seed} #{k}", gram, kneser_neighbour(gram, v), smallest_diagonal_anchor(gram)))
    return out


# The roadmap fixes its generator's seed; every reference set is drawn with it.
REFERENCE_SEED = 7
REFERENCES = {"wilson": wilson, "pullback": pullback, "neighbour": neighbour}
# Example files from `problems/` that open each workload, as
# (problem name, file name, anchor override).
EXAMPLES = {
    "wilson": (("wilson", "wilson.txt", None),),
    "pullback": (("wilson-1111", "wilson.txt", (1, 1, 1, 1)),),
    "neighbour": (
        ("quaternary_pair", "quaternary_pair.txt", None),
        ("binary_pair", "binary_pair.txt", None),
    ),
}


def with_anchor(text: str, w: tuple[int, ...]) -> str:
    lines = [line for line in text.splitlines() if not line.startswith("w ")]
    return "\n".join(lines + ["w " + " ".join(map(str, w))]) + "\n"


def anchor_of(text: str) -> tuple[int, ...]:
    line = next(line for line in text.splitlines() if line.startswith("w "))
    return tuple(int(x) for x in line.split()[1:])


def probe_block(w: tuple[int, ...], rng: random.Random) -> str:
    """A ``z0`` block holding superlat's default probes (the unit vectors
    except the one at the first largest |w_i|, in order) with seeded signs.
    Negating a probe negates its eq3 solutions, so the problem, its
    solutions and the work of the search are unchanged; the order in which
    the search meets candidates, and the output order, change."""
    n = len(w)
    drop = max(range(n), key=lambda i: (abs(w[i]), -i))
    rows = []
    for i in range(n):
        if i != drop:
            sign = rng.choice((-1, 1))
            rows.append(" ".join(str(sign * int(j == i)) for j in range(n)))
    return "z0\n" + "\n".join(rows) + "\n"


def workload_files(workload: str, seed: int, count: int, problems_dir: Path) -> list[tuple[str, str]]:
    """The workload's (name, text) pairs in run order: its example files,
    then the first `count` problems of its reference set (drawn with
    REFERENCE_SEED).  `seed` draws the probe block of every problem."""
    texts = []
    for name, filename, anchor in EXAMPLES[workload]:
        text = (problems_dir / filename).read_text(encoding="utf-8")
        texts.append((name, text if anchor is None else with_anchor(text, anchor)))
    texts += [(problem.name, problem.text()) for problem in REFERENCES[workload](REFERENCE_SEED, count)]
    rng = random.Random(seed)
    return [(name, text + probe_block(anchor_of(text), rng)) for name, text in texts]


def write_workload(workload: str, seed: int, count: int, directory: Path, problems_dir: Path) -> list[Path]:
    """Write the workload's problem files into `directory`; return their paths
    in run order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in workload_files(workload, seed, count, problems_dir):
        path = directory / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
