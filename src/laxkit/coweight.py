"""Coweights, pseudo Young diagrams, and divisors on the projective line.

A coweight is stored in the epsilon basis (d_1, ..., d_n).  The
fundamental basis (indexed 0..n-1) relates by d_j = -(c_0 + ... +
c_{j-1}); dominance means d_1 >= ... >= d_n, i.e. c_i >= 0 for i >= 1
with c_0 unconstrained.

A divisor is a formal sum of fundamental coweights at finite points plus
framing coefficients at infinity (and at zero in trig mode).  Finite
summands are (point, index, sign) with sign -1 allowed only for index 0.
Admissibility solves  total = sum a_i alpha_i  in non-negative integers;
the a-vector sizes the slot rows of the difference-operator algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

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


# The diagonal Gauss entry of row i holds z - x once for each finite
# summand of lower index and z - p[i,t] once for each slot of row i, so
# the z-degree of the last one's numerator reaches the number of summands
# of sign +1 (the bound counts both signs) and each slot count.  No
# exponent reaches HALF = 2^15 (see monomials), so a divisor past
# MAX_SUMMANDS could only end in OverflowError, after expanding a
# polynomial of that degree; it is refused before anything is expanded.
MAX_SUMMANDS = HALF - 1


@dataclass(frozen=True)
class Summand:
    point: Point
    index: int  # 0 <= index < n
    sign: int  # +1, or -1 only when index == 0

    def coweight(self, n: int) -> Coweight:
        return self.sign * fundamental_coweight(n, self.index)


@dataclass(frozen=True)
class Divisor:
    """Admissible divisor: finite summands + framing coweights."""

    n: int
    mode: str
    summands: Tuple[Summand, ...]
    mu: Coweight  # coefficient at infinity
    mu_zero: Optional[Coweight] = None  # trig only

    def __post_init__(self):
        if self.mode not in ("rational", "trig"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.mode == "trig" and self.mu_zero is None:
            object.__setattr__(self, "mu_zero", Coweight.zero(self.n))
        if self.mode == "rational" and self.mu_zero is not None:
            raise ValueError("rational divisors have no coefficient at zero")
        for s in self.summands:
            if not 0 <= s.index < self.n:
                raise NotAdmissible(f"fundamental index {s.index} out of range")
            if s.sign not in (1, -1) or (s.sign == -1 and s.index != 0):
                raise NotAdmissible("sign -1 is only allowed on index-0 summands")
            if self.mode == "trig" and isinstance(s.point, Fraction) and s.point == 0:
                raise NotAdmissible("trig points must be nonzero")
        self.a_vector()  # reject inadmissible data at construction

    @staticmethod
    def make(n: int, mode: str, points: Sequence[Tuple[Point, Coweight]],
             mu: Coweight, mu_zero: Optional[Coweight] = None) -> "Divisor":
        """Build from per-point dominant coweights, decomposed into at
        most MAX_SUMMANDS fundamental summands."""
        summands: List[Summand] = []
        coeffs = [cw.to_fundamental() for _, cw in points]
        if sum(abs(ci) for c in coeffs for ci in c) > MAX_SUMMANDS:
            raise NotAdmissible(f"finite points hold more than {MAX_SUMMANDS} summands")
        for (pt, _), c in zip(points, coeffs):
            if isinstance(pt, (int,)):
                pt = Fraction(pt)
            if any(ci < 0 for ci in c[1:]):
                raise NotAdmissible(f"non-dominant coefficient at {pt}: {c}")
            for i in range(1, n):
                summands.extend([Summand(pt, i, 1)] * c[i])
            sgn = 1 if c[0] >= 0 else -1
            summands.extend([Summand(pt, 0, sgn)] * abs(c[0]))
        return Divisor(n, mode, tuple(summands), mu, mu_zero)

    def total_finite(self) -> Coweight:
        out = Coweight.zero(self.n)
        for s in self.summands:
            out = out + s.coweight(self.n)
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
        labels = []
        for s in self.summands:
            lbl = s.point if isinstance(s.point, str) else str(s.point)
            if lbl not in labels:
                labels.append(lbl)
        return AlgebraSignature(self.n, self.mode, (self.a_vector(),), tuple(labels))

    def points_with(self, index: int) -> List[Tuple[Point, int]]:
        """(point, sign) of all summands carrying the given fundamental index."""
        return [(s.point, s.sign) for s in self.summands if s.index == index]

    def last_point(self) -> Point:
        """The label of the last summand: the limit machinery consumes
        whole points in reverse construction order."""
        if not self.summands:
            raise NotAdmissible("no finite points to remove")
        return self.summands[-1].point

    def point_coweight(self, label: Point) -> Coweight:
        """The coweight at one point: the sum of the summands with its label."""
        out = Coweight.zero(self.n)
        for s in self.summands:
            if s.point == label:
                out = out + s.coweight(self.n)
        return out

    def move_last_point(self, to: str) -> "Divisor":
        """Move the whole coweight of the last point onto the framing at
        infinity (to='infinity') or at zero (to='zero', trig only)."""
        if to not in ("infinity", "zero"):
            raise ValueError(f"unknown target {to!r}")
        if to == "zero" and self.mode != "trig":
            raise NotAdmissible("rational divisors only degenerate at infinity")
        label = self.last_point()
        lam = self.point_coweight(label)
        rest = tuple(s for s in self.summands if s.point != label)
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
        pts = {}
        order = []
        for s in self.summands:
            key = s.point if isinstance(s.point, str) else str(s.point)
            if key not in pts:
                pts[key] = [0] * self.n
                order.append(key)
            pts[key][s.index] += s.sign
        return {
            "n": self.n,
            "mode": self.mode,
            "points": [
                {"x": key, "coweight": {"fundamental": pts[key]}} for key in order
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
            if isinstance(x, str):
                x = Fraction(x) if _looks_numeric(x) else x
            elif isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x):
                x = Fraction(x)
            else:
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
    pt_pairs = []
    for pt, h in zip(points, heights):
        if isinstance(pt, int):
            pt = Fraction(pt)
        pt_pairs.append((pt, fundamental_coweight(n, n - h)))
    mu_zero = bmu_minus.coweight() if bmu_minus is not None else None
    if mode == "trig" and mu_zero is None:
        mu_zero = Coweight.zero(n)
    return Divisor.make(n, mode, pt_pairs, bmu.coweight(), mu_zero)
