"""Checks made apart from the program.

Everything here works on plain data (tuples, dicts, the JSON the CLI emits)
with its own monomial arithmetic, so a fault in ``rainbowcw`` cannot hide
itself by also breaking its checker.  Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.

The closed forms are those of the paper: the sparse Eagon-Northcott complex
of an n x m matrix has rank C(n+l-2, l-1) * C(m, n+l-1) in homological
degree l >= 1, and a linear rainbow DFI whose dual has r facets loses
r * C(m-n, l-1) of them.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations
from math import comb

# -- closed forms ---------------------------------------------------------------


def en_ranks(n: int, m: int) -> list[int]:
    """Ranks of the sparse Eagon-Northcott complex, degree 0 included."""
    return [1] + [comb(n + l - 2, l - 1) * comb(m, n + l - 1) for l in range(1, m - n + 2)]


def linear_ranks(n: int, m: int, r: int) -> list[int]:
    """Ranks of the linear strand of a linear rainbow DFI quotient whose dual
    has r facets, degree 0 included and trailing zeros dropped."""
    ranks = [1] + [
        comb(n + l - 2, l - 1) * comb(m, n + l - 1) - r * comb(m - n, l - 1)
        for l in range(1, m - n + 2)
    ]
    while len(ranks) > 1 and ranks[-1] == 0:
        ranks.pop()
    return ranks


def linear_coarse_table(n: int, m: int, r: int) -> dict[tuple[int, int], int]:
    """Coarse Betti table {(i, total degree): rank} of that quotient."""
    return {(i, i + n - 1 if i else 0): v for i, v in enumerate(linear_ranks(n, m, r)) if v}


# -- the linearity criterion, recomputed ----------------------------------------


def initial_term(weights, cols) -> frozenset:
    """Variables (i, j) of the heaviest permutation term of the minor on
    ``cols``; the corpus guarantees that the heaviest term is unique."""
    n = len(weights)
    best = max(
        permutations(range(n)),
        key=lambda p: sum(weights[i][cols[p[i]] - 1] for i in range(n)),
    )
    return frozenset((i + 1, cols[best[i]]) for i in range(n))


def _min_cover(sets: list[frozenset], budget: int) -> int | None:
    """Least number of variables meeting every set, or None if that takes
    more than ``budget``."""
    if not sets:
        return 0
    if budget <= 0:
        return None
    best = None
    for v in min(sets, key=len):
        limit = budget if best is None else best - 1
        sub = _min_cover([s for s in sets if v not in s], limit - 1)
        if sub is not None:
            best = 1 + sub
    return best


def is_linear(n: int, m: int, weights, dual_facets) -> bool:
    """The grade criterion on the dual: every dual generator colons the
    rainbow DFI down to height exactly m - n.  Colon generators of squarefree
    monomials are set differences; the height is a minimum vertex cover."""
    dual = set(dual_facets)
    rain = [initial_term(weights, f) for f in combinations(range(1, m + 1), n) if f not in dual]
    for g in dual:
        g_vars = initial_term(weights, g)
        quotients = {mono - g_vars for mono in rain}
        minimal = [q for q in quotients if not any(p < q for p in quotients)]
        if _min_cover(minimal, m - n) != m - n:
            return False
    return True


# -- monomials as exponent dicts ---------------------------------------------------

_FACTOR = re.compile(r"^x\[(\d+),(\d+)\](?:\^(\d+))?$")


def parse_grid_monomial(text: str) -> dict[tuple[int, int], int]:
    text = text.strip()
    if text == "1":
        return {}
    out: dict[tuple[int, int], int] = {}
    for tok in text.split("*"):
        match = _FACTOR.match(tok.strip())
        if not match:
            raise ValueError(f"not a grid monomial: {text!r}")
        var = (int(match.group(1)), int(match.group(2)))
        out[var] = out.get(var, 0) + int(match.group(3) or 1)
    return out


def _times(a: dict, b: dict) -> dict:
    out = dict(a)
    for v, e in b.items():
        out[v] = out.get(v, 0) + e
    return out


# -- cw-certify: the emitted JSON ----------------------------------------------------


def check_emitted_complex(payload: dict, n: int, m: int, prime: int) -> list[str]:
    """Output of ``sparse-en --certify-cw``: closed-form ranks, signs +-1,
    coeff * mdeg(target) = mdeg(source) between consecutive degrees,
    d o d = 0, and both certificate fields true."""
    problems: list[str] = []
    want = en_ranks(n, m)
    if payload.get("ranks") != want:
        problems.append(f"ranks {payload.get('ranks')} != closed form {want}")
    layers = payload["complex"]["degrees"]
    if [len(layer) for layer in layers] != want:
        problems.append("basis sizes differ from the closed-form ranks")
    mdeg: dict[str, dict] = {}
    degree: dict[str, int] = {}
    for i, layer in enumerate(layers):
        for cell in layer:
            if cell["label"] in mdeg:
                problems.append(f"duplicate label {cell['label']}")
            mdeg[cell["label"]] = parse_grid_monomial(cell["mdeg"])
            degree[cell["label"]] = i
    out: dict[str, list[tuple[str, int]]] = {}
    for e in payload["complex"]["diff"]:
        src, tgt, sign = e["from"], e["to"], e["sign"]
        if sign not in (1, -1):
            problems.append(f"entry {src} -> {tgt} has sign {sign}")
        if src not in degree or tgt not in degree or degree[src] != degree[tgt] + 1:
            problems.append(f"entry {src} -> {tgt} is not between consecutive degrees")
            continue
        if _times(parse_grid_monomial(e["coeff"]), mdeg[tgt]) != mdeg[src]:
            problems.append(f"entry {src} -> {tgt}: coeff * mdeg(target) != mdeg(source)")
        out.setdefault(src, []).append((tgt, sign))
    for src, ents in out.items():
        if degree[src] < 2:
            continue
        acc: dict[str, int] = {}
        for mid, s1 in ents:
            for tgt, s2 in out.get(mid, ()):
                acc[tgt] = acc.get(tgt, 0) + s1 * s2
        if any(acc.values()):
            problems.append(f"d o d != 0 at {src}")
            break
    cert = payload.get("cw_certificate", {})
    if cert.get("verdict") is not True:
        problems.append(f"CW certificate at p={prime} has verdict {cert.get('verdict')}")
    if payload.get("is_resolution") is not True:
        problems.append("is_resolution is not true")
    problems += _check_manifest(payload, "sparse-en", n, m, prime)
    return problems


def check_cw_certificate(payload: dict, n: int, m: int, prime: int) -> list[str]:
    """Output of ``cw-check``: verdict true and closed-form ranks."""
    problems: list[str] = []
    if payload.get("certificate", {}).get("verdict") is not True:
        problems.append(f"cw-check at p={prime} does not have verdict true")
    if payload.get("ranks") != en_ranks(n, m):
        problems.append(f"cw-check ranks {payload.get('ranks')} != closed form")
    problems += _check_manifest(payload, "cw-check", n, m, prime)
    return problems


def _check_manifest(payload: dict, command: str, n: int, m: int, prime: int) -> list[str]:
    man = payload.get("manifest", {})
    if (man.get("command"), man.get("n"), man.get("m"), man.get("prime")) != (command, n, m, prime):
        return [f"manifest {man} does not describe {command} {n}x{m} at p={prime}"]
    return []


# -- linearity-sweep -------------------------------------------------------------------


def check_linearity_case(
    n: int, m: int, r: int, own_linear: bool, criterion: bool,
    coarse: dict[tuple[int, int], int], free_sequence: bool, en: list[int],
) -> list[str]:
    """The linearity criterion, the oracle's one-row test and the
    free-sequence search agree with each other and with the criterion
    recomputed here; a linear table is the closed form."""
    problems: list[str] = []
    one_row = all(j - i in (0, n - 1) for i, j in coarse)
    if not criterion == one_row == free_sequence == own_linear:
        problems.append(
            f"criterion {criterion}, one-row oracle {one_row}, free sequence "
            f"{free_sequence}, recomputed criterion {own_linear} disagree"
        )
    if one_row and coarse != linear_coarse_table(n, m, r):
        problems.append(f"linear Betti table {sorted(coarse.items())} != closed form")
    if en != en_ranks(n, m):
        problems.append(f"sparse EN ranks {en} != closed form")
    return problems


# -- strand-polarize ---------------------------------------------------------------------


def check_strand_case(
    n: int, m: int, r: int, own_linear: bool,
    deletions: list[tuple[object, object]], final, strand,
    linear: bool, certified: bool, strand_ranks: list[int],
    oracle_row: dict[int, int] | None,
) -> list[str]:
    """Kernel = restriction at every deletion, the shrunken complex is the
    rainbow linear strand, the polarization is certified exactly when the
    DFI is linear, and the strand ranks match the closed form (linear by the
    recomputed criterion) or the oracle's linear row (nonlinear).  Complexes
    arrive as the plain shapes made by :func:`complex_shape`."""
    problems: list[str] = []
    for k, (kernel, restriction) in enumerate(deletions):
        if kernel != restriction:
            problems.append(f"deletion {k}: kernel differs from the induced subcomplex")
    if final != strand:
        problems.append("shrunken complex differs from rainbow_linear_strand")
    if certified != linear:
        problems.append(f"certified {certified} but linear {linear}")
    if linear != own_linear:
        problems.append(f"linear {linear} but the recomputed criterion says {own_linear}")
    if own_linear:
        if strand_ranks != linear_ranks(n, m, r):
            problems.append(f"strand ranks {strand_ranks} != closed form {linear_ranks(n, m, r)}")
    else:
        mine = {i: v for i, v in enumerate(strand_ranks) if i >= 1 and v}
        if mine != oracle_row:
            problems.append(f"strand ranks {mine} != oracle linear row {oracle_row}")
    return problems


def complex_shape(cx) -> tuple:
    """A based complex as plain data: labels per degree and signed entries."""
    layers = tuple(frozenset(cx.labels(i)) for i in cx.degrees())
    entries = frozenset(
        (src, tgt, sign) for src in cx.all_labels() for tgt, sign in cx.out_entries(src)
    )
    return layers, entries
