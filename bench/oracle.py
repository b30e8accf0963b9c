"""Independent answers and output checks for the benchmark cases.

Nothing here calls the code path under test.  Polynomials are plain dicts
``{degree: coefficient}`` in the cohomological degree (one power of q is
degree 2), built from closed forms:

* the first stage of the (k, l) spectrum,
  P = [k-l+1]_{t^2} * prod_{i=k-l+2}^{k} (1 + t^(2i-1));
* a flag manifold U(k)/(U(a_1) x ... x U(a_r)): the q-multinomial
  [k]! / prod [a_i]! in q = t^2, built from Gaussian binomials;
* U(k)/(S_k wr U(1)), the normalizer of the maximal torus: rationally a
  point, P = 1.

Every check compares only the degrees both sides know: a truncated answer
is compared through its truncation, so a later change that makes it exact
still passes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

# Smallest truncation the CLI applies when it prints a Cartan answer without
# stating its cutoff; text output is compared through this degree at most.
TEXT_CUTOFF_FLOOR = 24


# ---------------------------------------------------------------------------
# integer polynomials as dicts


def poly_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def poly_add(a, b):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def q_integer(n):
    """[n]_{t^2} = 1 + t^2 + ... + t^(2n-2)."""
    return {2 * i: 1 for i in range(n)}


def first_stage(k, l):
    """Closed form for U(k)/(U(1) (x) I_l x U(k-l)), the first stage of (k, l)."""
    acc = q_integer(k - l + 1)
    for i in range(k - l + 2, k + 1):
        acc = poly_mul(acc, {0: 1, 2 * i - 1: 1})
    return acc


def gaussian_binomial(n, j):
    """[n choose j] in q = t^2 by the Pascal recursion, as a degree map."""
    rows = [{0: 1}]  # rows[i] = [n' choose i] for the current n'
    for n_ in range(1, n + 1):
        new = [{0: 1}]
        for i in range(1, min(n_, j) + 1):
            left = rows[i - 1]
            right = rows[i] if i < len(rows) else {}
            new.append(poly_add(left, {d + 2 * i: c for d, c in right.items()}))
        rows = new
    return rows[j] if j < len(rows) else {}


def flag(parts):
    """Poincare polynomial of the flag manifold with block sizes ``parts``."""
    acc = {0: 1}
    total = 0
    for a in parts:
        total += a
        acc = poly_mul(acc, gaussian_binomial(total, a))
    return acc


# ---------------------------------------------------------------------------
# what is known about one Poincare polynomial


@dataclass(frozen=True)
class Expect:
    """Independent knowledge about the Poincare polynomial of one orbit.

    ``value`` is the full answer when a closed form exists, else None;
    ``dim`` is the real dimension; ``connected`` says the isotropy is
    connected, so a complete answer must satisfy Poincare duality.
    """

    dim: int
    connected: bool
    value: object = None


def first_stage_expect(k, l):
    return Expect(dim=k * k - 1 - (k - l) ** 2, connected=True, value=first_stage(k, l))


def flag_expect(parts):
    k = sum(parts)
    return Expect(dim=k * k - sum(a * a for a in parts), connected=True, value=flag(parts))


def check_poincare(got, expect, through):
    """Errors in ``got`` (a degree map) known through ``through`` (None: exact)."""
    errors = []
    if got.get(0) != 1:
        errors.append("b0 = %s, expected 1" % got.get(0, 0))
    if any(c < 0 for c in got.values()):
        errors.append("negative Betti number")
    above = [d for d in got if d > expect.dim]
    if above:
        errors.append("cohomology in degree %d above the dimension %d" % (max(above), expect.dim))
    limit = expect.dim if through is None else min(through, expect.dim)
    if expect.value is not None:
        bad = [d for d in range(limit + 1) if got.get(d, 0) != expect.value.get(d, 0)]
        if bad:
            errors.append(
                "degree %d: got %d, closed form %d"
                % (bad[0], got.get(bad[0], 0), expect.value.get(bad[0], 0))
            )
    if expect.connected and limit == expect.dim:
        if any(got.get(d, 0) != got.get(expect.dim - d, 0) for d in range(expect.dim + 1)):
            errors.append("not palindromic of degree %d (Poincare duality)" % expect.dim)
    return errors


# ---------------------------------------------------------------------------
# parsing CLI output

_TERM = re.compile(r"^(\d*)(t(?:\^(\d+))?)?$")


def parse_pretty(text):
    """Degree map of a polynomial printed as ``1 + t^2 - 3t^5``."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    sign = 1
    for token in text.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        m = _TERM.match(token)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError("cannot parse polynomial term %r" % token)
        coeff = int(m.group(1)) if m.group(1) else 1
        degree = 0 if not m.group(2) else int(m.group(3) or 1)
        out[degree] = out.get(degree, 0) + sign * coeff
    return out


def _through(argv, expect):
    """Degrees a text answer is known through: its cutoff, or the CLI's floor."""
    cutoff = int(argv[argv.index("--cutoff") + 1]) if "--cutoff" in argv else TEXT_CUTOFF_FLOOR
    return min(cutoff, expect.dim)


def check_poincare_text(argv, stdout, expect):
    """``poincare D`` without --json: the single printed polynomial."""
    return check_poincare(parse_pretty(stdout), expect, _through(argv, expect))


def check_poincare_json(stdout, expect):
    """``poincare D --json``: compared through the stated cutoff."""
    doc = json.loads(stdout)
    got = {int(d): c for d, c in doc["poincare"].items()}
    return check_poincare(got, expect, doc["cutoff"])


def check_report_text(argv, stdout, k, l):
    """``report k l``: first stage against the closed form, pi0 and stage list."""
    errors = []
    lines = stdout.splitlines()
    header = re.match(r"report k=(\d+) l=(\d+): (one-stage|(\d+) stages), pi0 = (\d+)$", lines[0])
    if not header:
        return ["unexpected report header %r" % lines[0]]
    stages = 1 if header.group(3) == "one-stage" else int(header.group(4))
    if stages != k // l:
        errors.append("%d stages, expected %d" % (stages, k // l))
    if header.group(5) != "1":
        errors.append("pi0 = %s, expected 1" % header.group(5))
    prefix = "  rational homology (first stage): "
    first = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    if len(first) != 1:
        return errors + ["no first-stage line"]
    expect = first_stage_expect(k, l)
    errors += check_poincare(parse_pretty(first[0]), expect, _through(argv, expect))
    stage_lines = [line for line in lines if line.startswith("  stage m=")]
    if len(stage_lines) != k // l:
        errors.append("%d stage lines, expected %d" % (len(stage_lines), k // l))
    errors += ["stage not verified: %s" % s.strip() for s in stage_lines if "FAILED" in s]
    return errors


def check_cube_text(stdout, m):
    """``cube m``: vertex and edge counts, every edge ok, signed sum zero, verified."""
    errors = []
    lines = stdout.splitlines()
    header = re.match(r"cube m=(\d+) \(k=\d+, l=\d+\): (\d+) vertices, (\d+) edges$", lines[0])
    if not header:
        return ["unexpected cube header %r" % lines[0]]
    vertices, edges = int(header.group(2)), int(header.group(3))
    if (vertices, edges) != (2 ** (m - 1), 2 ** (m - 2)):
        errors.append("cube of C^%d has %d vertices and %d edges" % (m, vertices, edges))
    errors += [
        "edge not ok: %s" % line.strip()
        for line in lines
        if line.startswith("  edge ") and not line.endswith(": ok")
    ]
    if "  signed sum: 0" not in lines:
        errors.append("signed sum is not zero")
    if "  verified: True" not in lines:
        errors.append("cube not verified")
    return errors


def check_summands_json(stdout, k, l, t):
    """``summands k l t --json``: every t-tuple with 1 <= sum <= k // l, once."""
    doc = json.loads(stdout)
    tuples = [tuple(x) for x in doc["tuples"]]
    bound = k // l
    errors = []
    if len(set(tuples)) != len(tuples):
        errors.append("duplicate summand tuples")
    if any(len(x) != t or min(x) < 0 or not 1 <= sum(x) <= bound for x in tuples):
        errors.append("summand tuple outside the indexing set")
    # stars and bars: tuples with sum <= bound, minus the basepoint
    count = 1
    for i in range(1, t + 1):
        count = count * (bound + i) // i
    if len(tuples) != count - 1:
        errors.append("%d summands, expected %d" % (len(tuples), count - 1))
    return errors
