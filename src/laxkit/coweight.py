"""Coweights, pseudo Young diagrams, and divisors on the projective line.

A coweight is stored in the epsilon basis (d_1, ..., d_n).  The
fundamental basis (indexed 0..n-1) relates by d_j = -(c_0 + ... +
c_{j-1}); dominance means d_1 >= ... >= d_n, i.e. c_i >= 0 for i >= 1
with c_0 unconstrained.

A divisor is sum_x lambda_x [x] + mu [infinity] (+ mu_zero [0] in trig
mode): one nonzero dominant coweight lambda_x at each finite point, kept
as (point, coweight) pairs in order of first appearance.  Admissibility
solves  total = sum a_i alpha_i  in non-negative integers;
the a-vector sizes the slot rows of the difference-operator algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import AlgebraSignature
from .errors import BadDiagram, NotAdmissible, ParseError, SizeMismatch
from .monomials import HALF

Point = Union[str, Fraction]


@dataclass(frozen=True)
class Coweight:
    d: Tuple[int, ...]

    @staticmethod
    def zero(n: int) -> "Coweight":
        return Coweight((0,) * n)

    @staticmethod
    def from_epsilon(d: Sequence[int]) -> "Coweight":
        return Coweight(tuple(int(x) for x in d))

    @staticmethod
    def from_fundamental(c: Sequence[int]) -> "Coweight":
        # d_j = -(c_0 + ... + c_{j-1})
        d = []
        run = 0
        for cj in c:
            run += int(cj)
            d.append(-run)
        return Coweight(tuple(d))

    def to_fundamental(self) -> Tuple[int, ...]:
        n = len(self.d)
        c = [-self.d[0]]
        for i in range(1, n):
            c.append(self.d[i - 1] - self.d[i])
        return tuple(c)

    @property
    def n(self) -> int:
        return len(self.d)

    def is_dominant(self) -> bool:
        return all(self.d[i] >= self.d[i + 1] for i in range(len(self.d) - 1))

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a + b for a, b in zip(self.d, other.d)))

    def __sub__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a - b for a, b in zip(self.d, other.d)))

    def __mul__(self, k: int) -> "Coweight":
        return Coweight(tuple(a * k for a in self.d))

    __rmul__ = __mul__

    def __neg__(self) -> "Coweight":
        return self * (-1)


def fundamental_coweight(n: int, i: int) -> Coweight:
    """The i-th fundamental coweight, 0 <= i < n (index 0 is the
    determinant direction: all entries -1)."""
    if not 0 <= i < n:
        raise ValueError(f"fundamental index {i} out of range")
    return Coweight(tuple(0 if j < i else -1 for j in range(n)))


def simple_coroot(n: int, i: int) -> Coweight:
    """alpha_i = epsilon_i - epsilon_{i+1}, 1 <= i <= n-1."""
    if not 1 <= i < n:
        raise ValueError(f"coroot index {i} out of range")
    return Coweight(tuple(1 if j == i - 1 else -1 if j == i else 0 for j in range(n)))


def convert_basis(vec: Sequence[int], n: int, to: str) -> Tuple[int, ...]:
    """Exact change of basis for coweights.

    to='epsilon': input is fundamental coefficients (c_0..c_{n-1});
    to='fundamental': input is epsilon coefficients (d_1..d_n).
    """
    if to == "epsilon":
        return Coweight.from_fundamental(list(vec)).d
    if to == "fundamental":
        return Coweight.from_epsilon(list(vec)).to_fundamental()
    raise ValueError(f"unknown basis {to!r}")


@dataclass(frozen=True)
class PseudoYoungDiagram:
    """Weakly decreasing integer rows; encodes a dominant coweight."""

    rows: Tuple[int, ...]

    def __post_init__(self):
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise BadDiagram(f"rows not weakly decreasing: {self.rows}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def size(self) -> int:
        return sum(self.rows)

    def coweight(self) -> Coweight:
        # lambda = -sum rows[n-i] eps_i  (1-based i)
        n = self.n
        return Coweight(tuple(-self.rows[n - i] for i in range(1, n + 1)))

    def is_young(self) -> bool:
        return all(r >= 0 for r in self.rows)

    def transpose(self) -> Tuple[int, ...]:
        """Column heights (requires a genuine Young diagram)."""
        if not self.is_young():
            raise BadDiagram("transpose needs non-negative rows")
        width = self.rows[0] if self.rows else 0
        return tuple(
            sum(1 for r in self.rows if r >= c + 1) for c in range(width)
        )


# The diagonal Gauss entry of row i holds z - x to the power
# -eps_i(lambda_x) = c_0 + ... + c_{i-1} of x's fundamental coefficients,
# and z - p[i,t] once for each slot of row i, so the z-degree of the last
# one's numerator reaches the sum of the positive coefficients (the bound
# counts their absolute values) and each slot count.  No exponent reaches
# HALF = 2^15 (see monomials), so a divisor past MAX_SUMMANDS could only
# end in OverflowError, after expanding a polynomial of that degree; it is
# refused when it is made.
MAX_SUMMANDS = HALF - 1

# A build multiplies z - x out to the power of the coefficients summed at
# x, at a cost that grows faster than the square of that degree: on a
# shared 2-vCPU host, one rank-2 point carrying [d, 0] took lax build
# 0.5 s and lax verify-rtt 39 s at d = 1024, verify-rtt 1.5 s at d = 256,
# and lax build had not ended after 100 s at d = 32767, inside
# MAX_SUMMANDS.  So the builders refuse a divisor whose finite points hold
# more than MAX_BUILD_DEGREE fundamental coweights
# (Divisor.check_build_degree); no pinned family, suite check or
# benchmark divisor holds more than 3.
MAX_BUILD_DEGREE = 256

# A T coefficient sums fractions over the slot tuples of its rows, whose
# denominators hold the differences of a row's slot variables, and the
# cost of that sum grows much faster than the slot counts.  Seconds of
# build_lax and build_lax_trig on divisors with no point and the given
# slot counts (Python 3.11, a shared 2-vCPU host):
#
#     slot counts    rational   trig        slot counts    rational   trig
#     (3,)           0.008      0.019       (3, 1)         0.047      0.18
#     (4,)           0.19       1.2         (3, 2)         0.47       1.1
#     (5,)           26         -           (4, 1)         5.2        24
#     (6,)           > 100      -           (3, 3)         11         40
#     (2, 2, 2)      0.46       0.56        (2, 2, 2, 2)   13         11
#
# So the builders refuse a divisor with more than MAX_SLOTS slots in a
# row (Divisor.check_build_degree): every rank-2 build then ends within
# 0.02 s.  No pinned family, test, suite check or benchmark divisor has
# more than 2; rows of 3 slots next to each other can still take tens of
# seconds.
MAX_SLOTS = 3


def _label(pt: Point) -> str:
    return pt if isinstance(pt, str) else str(pt)


def _balanced(label: str) -> bool:
    """Whether every ] of label closes an earlier [ and every [ is closed:
    exactly the labels that a matrix file's x[label] reads back as."""
    depth = 0
    for ch in label:
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            return False
    return depth == 0


@dataclass(frozen=True)
class Divisor:
    """Admissible divisor: (point, lambda_x) pairs + framing coweights."""

    n: int
    mode: str
    summands: Tuple[Tuple[Point, Coweight], ...]  # one per distinct point
    mu: Coweight  # coefficient at infinity
    mu_zero: Optional[Coweight] = None  # trig only

    def __post_init__(self):
        if self.mode not in ("rational", "trig"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.mode == "trig" and self.mu_zero is None:
            object.__setattr__(self, "mu_zero", Coweight.zero(self.n))
        if self.mode == "rational" and self.mu_zero is not None:
            raise ValueError("rational divisors have no coefficient at zero")
        if len({pt for pt, _ in self.summands}) != len(self.summands):
            raise ValueError("a point is listed twice")
        for pt, lam in self.summands:
            if lam.n != self.n or not any(lam.d) or not lam.is_dominant():
                raise NotAdmissible(
                    f"the coweight at {pt} is not nonzero and dominant: {lam.to_fundamental()}"
                )
            if self.mode == "trig" and isinstance(pt, Fraction) and pt == 0:
                raise NotAdmissible("trig points must be nonzero")
            if isinstance(pt, str) and not _balanced(pt):
                raise NotAdmissible(f"point label {pt!r} has unbalanced brackets")
        if self.degree() > MAX_SUMMANDS:
            raise NotAdmissible(
                f"finite points hold more than {MAX_SUMMANDS} fundamental coweights"
            )
        self.a_vector()  # reject inadmissible data at construction

    def degree(self) -> int:
        """The fundamental coweights the finite points hold, counted with
        their absolute values: a bound on the z-degree a build multiplies
        out at one point."""
        return sum(abs(c) for _, lam in self.summands for c in lam.to_fundamental())

    def check_build_degree(self) -> None:
        """NotAdmissible past MAX_BUILD_DEGREE or MAX_SLOTS (see there),
        before a build starts to multiply out."""
        if self.degree() > MAX_BUILD_DEGREE:
            raise NotAdmissible(
                f"finite points hold {self.degree()} fundamental coweights; builds take"
                f" at most {MAX_BUILD_DEGREE}"
            )
        a = self.a_vector()
        if max(a, default=0) > MAX_SLOTS:
            raise NotAdmissible(f"slot counts {a} reach {max(a)}; builds take at most"
                                f" {MAX_SLOTS} slots in a row")

    @staticmethod
    def make(n: int, mode: str, points: Sequence[Tuple[Point, Coweight]],
             mu: Coweight, mu_zero: Optional[Coweight] = None) -> "Divisor":
        """Build from (point, dominant coweight) pairs: int points and
        strings that read as numbers ("3/2", as from_json reads them)
        become Fractions, a point listed twice holds the sum of its
        coweights, and a zero coweight holds nothing, so a point whose sum
        is zero is left out."""
        merged: Dict[Point, Coweight] = {}
        for pt, lam in points:
            if not lam.is_dominant():
                raise NotAdmissible(f"non-dominant coefficient at {pt}: {lam.to_fundamental()}")
            if not any(lam.d):
                continue
            if isinstance(pt, int) or isinstance(pt, str) and _looks_numeric(pt):
                pt = Fraction(pt)
            merged[pt] = merged[pt] + lam if pt in merged else lam
        pairs = tuple((pt, lam) for pt, lam in merged.items() if any(lam.d))
        return Divisor(n, mode, pairs, mu, mu_zero)

    def total_finite(self) -> Coweight:
        out = Coweight.zero(self.n)
        for _, lam in self.summands:
            out = out + lam
        return out

    def a_vector(self) -> Tuple[int, ...]:
        total = self.total_finite() + self.mu
        if self.mu_zero is not None:
            total = total + self.mu_zero
        partial = 0
        out = []
        for j in range(self.n):
            partial += total.d[j]
            out.append(partial)
        if out and out[-1] != 0:
            raise NotAdmissible(
                f"coefficient sum is not in the coroot lattice: {total.d}"
            )
        a = tuple(out[:-1])
        if any(x < 0 for x in a):
            raise NotAdmissible(f"negative slot count in {a}")
        if any(x > MAX_SUMMANDS for x in a):
            raise NotAdmissible(f"a slot count in {a} is above {MAX_SUMMANDS}")
        return a

    def signature(self) -> AlgebraSignature:
        labels = tuple(_label(pt) for pt, _ in self.summands)
        return AlgebraSignature(self.n, self.mode, (self.a_vector(),), labels)

    def points_with(self, index: int) -> List[Tuple[Point, int]]:
        """(point, c_index) for the points whose coweight has a nonzero
        fundamental coefficient c_index."""
        return [(pt, c) for pt, lam in self.summands if (c := lam.to_fundamental()[index])]

    def last_point(self) -> Point:
        """The last point in order of first appearance: the limit
        machinery consumes whole points in reverse construction order."""
        if not self.summands:
            raise NotAdmissible("no finite points to remove")
        return self.summands[-1][0]

    def point_coweight(self, label: Point) -> Coweight:
        """The coweight at one point (zero at a point not in the divisor)."""
        return dict(self.summands).get(label, Coweight.zero(self.n))

    def move_last_point(self, to: str) -> "Divisor":
        """Move the whole coweight of the last point onto the framing at
        infinity (to='infinity') or at zero (to='zero', trig only)."""
        if to not in ("infinity", "zero"):
            raise ValueError(f"unknown target {to!r}")
        if to == "zero" and self.mode != "trig":
            raise NotAdmissible("rational divisors only degenerate at infinity")
        self.last_point()  # refuses a divisor without finite points
        rest, (_, lam) = self.summands[:-1], self.summands[-1]
        if to == "infinity":
            return Divisor(self.n, self.mode, rest, self.mu + lam, self.mu_zero)
        return Divisor(self.n, self.mode, rest, self.mu, self.mu_zero + lam)

    def merge_framings_at_infinity(self) -> "Divisor":
        """Trig -> rational bookkeeping: same finite part, mu+ + mu- at
        infinity."""
        return Divisor(
            self.n, "rational", self.summands, self.mu + self.mu_zero, None
        )

    # -- JSON wire format

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "points": [
                {"x": _label(pt), "coweight": {"fundamental": list(lam.to_fundamental())}}
                for pt, lam in self.summands
            ],
            "infinity": {"fundamental": list(self.mu.to_fundamental())},
            "zero": (
                {"fundamental": list(self.mu_zero.to_fundamental())}
                if self.mode == "trig"
                else None
            ),
        }

    @staticmethod
    def from_json(data: dict) -> "Divisor":
        """Parse the wire format; malformed data raises ParseError."""
        if not isinstance(data, dict):
            raise ParseError("a divisor must be a JSON object")
        n = _json_int(_json_field(data, "n", "divisor"), "n")
        if n < 1:
            raise ParseError(f"n must be positive, got {n}")
        mode = _json_field(data, "mode", "divisor")
        if mode not in ("rational", "trig"):
            raise ParseError(f"mode must be 'rational' or 'trig', got {mode!r}")
        points = data.get("points", [])
        if not isinstance(points, list):
            raise ParseError("points must be a list")
        parsed = []
        for p in points:
            if not isinstance(p, dict):
                raise ParseError(f"a point must be a JSON object, got {p!r}")
            x = _json_field(p, "x", "point")
            if isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x):
                x = Fraction(x)
            elif not isinstance(x, str):
                raise ParseError(f"point label must be a string or a number, got {x!r}")
            parsed.append((x, _json_coweight(_json_field(p, "coweight", "point"), n)))
        mu = _json_coweight(_json_field(data, "infinity", "divisor"), n)
        mu_zero = None
        if data.get("zero") is not None:
            if mode == "rational":
                raise ParseError("rational divisors have no coefficient at zero")
            mu_zero = _json_coweight(data["zero"], n)
        return Divisor.make(n, mode, parsed, mu, mu_zero)


def _json_field(data: dict, key: str, what: str):
    if key not in data:
        raise ParseError(f"{what} is missing {key!r}")
    return data[key]


def _json_int(value, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


def _json_coweight(data, n: int) -> Coweight:
    """{"fundamental": [c_0, ..., c_{n-1}]} with integer coefficients."""
    coeffs = data.get("fundamental") if isinstance(data, dict) else None
    if not isinstance(coeffs, list) or len(coeffs) != n:
        raise ParseError(f"a coweight needs {n} fundamental coefficients, got {data!r}")
    return Coweight.from_fundamental([_json_int(c, "a coefficient") for c in coeffs])


def _looks_numeric(s: str) -> bool:
    try:
        Fraction(s)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def divisor_from_young(
    blambda: PseudoYoungDiagram,
    points: Sequence[Point],
    bmu: PseudoYoungDiagram,
    bmu_minus: Optional[PseudoYoungDiagram] = None,
    mode: str = "rational",
) -> Divisor:
    """Encode (Young diagram, points, pseudo diagram(s)) as a divisor:
    column i of blambda contributes its fundamental coweight at points[i],
    bmu sits at infinity (and bmu_minus at zero in trig mode)."""
    n = blambda.n
    if bmu.n != n or (bmu_minus is not None and bmu_minus.n != n):
        raise SizeMismatch("diagram ranks differ")
    if not blambda.is_young():
        raise BadDiagram("first diagram must have non-negative rows")
    total = blambda.size() + bmu.size() + (bmu_minus.size() if bmu_minus else 0)
    if total != 0:
        raise SizeMismatch(f"total size {total} != 0")
    heights = blambda.transpose()
    if len(points) != len(heights):
        raise SizeMismatch(
            f"{len(heights)} columns but {len(points)} points"
        )
    pt_pairs = [(pt, fundamental_coweight(n, n - h)) for pt, h in zip(points, heights)]
    mu_zero = bmu_minus.coweight() if bmu_minus is not None else None
    if mode == "trig" and mu_zero is None:
        mu_zero = Coweight.zero(n)
    return Divisor.make(n, mode, pt_pairs, bmu.coweight(), mu_zero)
