"""Core representation of generalised signed measures on [0, inf).

A measure is a finite list of atoms plus finitely many disjoint density
segments.  Each segment carries a density from a closed term grammar:

    f(x) = sum_i  c_i * x^{p_i} * exp(-a_i * x) * trig_i(b_i * x)

with trig in {1, cos, sin}, powers > -1 (integer whenever an oscillatory
factor is present) and decays >= 0.  The grammar is closed under the
operations the package needs -- exponential tilting, rescaling, pointwise
antiderivatives for distribution functions -- so interval masses and
Laplace transforms evaluate in closed form.

Signed set evaluation uses the convention that the value is the
difference of the positive- and negative-part masses when both are
finite and +inf otherwise; for this grammar an unbounded-interval
evaluation is finite exactly when every overlapping unbounded segment
has strictly decaying terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._integrals import power_exp_integral
from .errors import UnrepresentableDensity

__all__ = [
    "Atom",
    "Term",
    "Expression",
    "DensitySegment",
    "SignedMeasure",
]

_KINDS = ("", "cos", "sin")


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class Atom:
    """Point mass of a given (nonzero) weight at a location >= 0."""

    location: float
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _require_finite("atom location", self.location))
        object.__setattr__(self, "weight", _require_finite("atom weight", self.weight))
        if self.location < 0:
            raise ValueError(f"atom location must be >= 0, got {self.location}")


@dataclass(frozen=True, slots=True)
class Term:
    """One density term  coefficient * x^power * exp(-decay*x) * trig(freq*x)."""

    coefficient: float
    power: float = 0.0
    decay: float = 0.0
    kind: str = ""
    freq: float = 0.0

    def __post_init__(self) -> None:
        c = _require_finite("coefficient", self.coefficient)
        p = _require_finite("power", self.power)
        a = _require_finite("decay", self.decay)
        b = _require_finite("freq", self.freq)
        kind = self.kind
        if kind not in _KINDS:
            raise ValueError(f"unknown oscillation kind {kind!r}")
        if p <= -1:
            raise ValueError(f"power must be > -1 for local integrability, got {p}")
        if a < 0:
            raise ValueError(f"decay must be >= 0, got {a}")
        if kind == "" and b != 0.0:
            raise ValueError("plain terms must have freq == 0")
        # Normalise: cos(0x) is plain, sin(0x) vanishes, cos is even, sin odd.
        if kind == "sin" and b == 0.0:
            c, kind = 0.0, ""
        elif kind == "cos" and b == 0.0:
            kind = ""
        if b < 0.0:
            if kind == "sin":
                c = -c
            b = -b
        if kind != "" and not float(p).is_integer():
            raise UnrepresentableDensity(
                f"oscillatory terms require integer powers, got {p}"
            )
        object.__setattr__(self, "coefficient", c)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "decay", a)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "freq", b)

    def value(self, x: float) -> float:
        if x == 0.0:
            if self.power < 0:
                return math.copysign(math.inf, self.coefficient)
            mono = 1.0 if self.power == 0 else 0.0
        else:
            mono = x ** self.power
        out = self.coefficient * mono * math.exp(-self.decay * x)
        if self.kind == "cos":
            out *= math.cos(self.freq * x)
        elif self.kind == "sin":
            out *= math.sin(self.freq * x)
        return out


def _normalise_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    bucket: dict[tuple[float, float, str, float], float] = {}
    for t in terms:
        key = (t.power, t.decay, t.kind, t.freq)
        bucket[key] = bucket.get(key, 0.0) + t.coefficient
    out = [
        Term(c, p, a, kind, b)
        for (p, a, kind, b), c in bucket.items()
        if c != 0.0
    ]
    out.sort(key=lambda t: (t.power, t.decay, t.kind, t.freq))
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Expression:
    """Canonical finite sum of density terms."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        canon = _normalise_terms(
            self.terms if isinstance(self.terms, (tuple, list)) else tuple(self.terms)
        )
        object.__setattr__(self, "terms", canon)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_decay(self) -> float:
        return min((t.decay for t in self.terms), default=math.inf)

    @property
    def max_freq(self) -> float:
        return max((t.freq for t in self.terms), default=0.0)

    def evaluate(self, x: float) -> float:
        return math.fsum(t.value(x) for t in self.terms)

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        for t in self.terms:
            # same operations in the same order as Term.value, minus the
            # factors that are exactly 1.0 (power 0, decay 0)
            part = t.coefficient
            if t.power > 0:
                part = part * xs ** t.power
            elif t.power < 0:
                # x^p is +inf at 0; power only the nonzero points so numpy
                # raises no divide-by-zero warning
                mono = np.full_like(xs, np.inf)
                nz = xs != 0.0
                mono[nz] = xs[nz] ** t.power
                part = part * mono
            if t.decay:
                part = part * np.exp(-t.decay * xs)
            if t.kind == "cos":
                part = part * np.cos(t.freq * xs)
            elif t.kind == "sin":
                part = part * np.sin(t.freq * xs)
            out += part
        return out

    def integral(self, lo: float, hi: float, extra_decay: float = 0.0) -> float:
        """integral of f(x) * exp(-extra_decay * x) dx over [lo, hi].

        Exact (closed form) for every term in the grammar.  Raises
        NonIntegrableTail for divergent unbounded integrals.
        """
        acc = 0.0
        for t in self.terms:
            val = power_exp_integral(t.power, t.decay + extra_decay, t.freq, lo, hi)
            if t.kind == "sin":
                acc += t.coefficient * val.imag
            else:
                acc += t.coefficient * val.real
        return acc

    def times_x(self) -> "Expression":
        return Expression(tuple(
            Term(t.coefficient, t.power + 1, t.decay, t.kind, t.freq) for t in self.terms
        ))

    def scale(self, alpha: float) -> "Expression":
        return Expression(tuple(
            Term(alpha * t.coefficient, t.power, t.decay, t.kind, t.freq) for t in self.terms
        ))

    def __add__(self, other: "Expression") -> "Expression":
        return Expression(self.terms + other.terms)

    def __neg__(self) -> "Expression":
        return self.scale(-1.0)

    def envelope(self) -> "Expression":
        """Nonnegative expression bounding |f| pointwise on [0, inf).

        Oscillatory pairs at the same (power, decay, freq) contribute their
        joint amplitude sqrt(c_cos^2 + c_sin^2); distinct groups add up.
        """
        plain: dict[tuple[float, float], float] = {}
        osc: dict[tuple[float, float, float], list[float]] = {}
        for t in self.terms:
            if t.kind == "":
                plain[(t.power, t.decay)] = plain.get((t.power, t.decay), 0.0) + abs(t.coefficient)
            else:
                pair = osc.setdefault((t.power, t.decay, t.freq), [0.0, 0.0])
                pair[0 if t.kind == "cos" else 1] = t.coefficient
        amp: dict[tuple[float, float], float] = dict(plain)
        for (p, a, _b), (cc, cs) in osc.items():
            amp[(p, a)] = amp.get((p, a), 0.0) + math.hypot(cc, cs)
        return Expression(tuple(Term(c, p, a) for (p, a), c in amp.items()))

    def antiderivative(self) -> "Expression":
        """Expression A with A' = f, normalised so the additive constant is 0.

        Raises UnrepresentableDensity when the antiderivative leaves the
        grammar (non-integer power combined with exponential decay).
        """
        out: list[Term] = []
        for t in self.terms:
            c, p, a, kind, b = t.coefficient, t.power, t.decay, t.kind, t.freq
            if a == 0.0 and kind == "":
                out.append(Term(c / (p + 1), p + 1, 0.0))
                continue
            if not float(p).is_integer():
                raise UnrepresentableDensity(
                    "antiderivative of a non-integer power with exponential decay "
                    "is not representable in the term grammar"
                )
            pi = int(p)
            z = complex(a, -b)
            falling = 1.0  # p!/(p-j)!
            for j in range(pi + 1):
                w = falling / z ** (j + 1)
                # -(u+iv) e^{-ax}(cos+isin) x^{p-j}; real part for plain/cos
                # input, imaginary part for sin input.
                if kind == "sin":
                    out.append(Term(-c * w.real, pi - j, a, "sin", b))
                    out.append(Term(-c * w.imag, pi - j, a, "cos", b))
                else:
                    out.append(Term(-c * w.real, pi - j, a, "cos", b))
                    out.append(Term(c * w.imag, pi - j, a, "sin", b))
                falling *= pi - j
        return Expression(tuple(out))


@dataclass(frozen=True, slots=True)
class DensitySegment:
    """Density expression supported on [lo, hi); hi may be +inf."""

    lo: float
    hi: float
    density: Expression

    def __post_init__(self) -> None:
        lo = _require_finite("segment lo", self.lo)
        hi = float(self.hi)
        if math.isnan(hi):
            raise ValueError("segment hi must not be NaN")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo < 0:
            raise ValueError(f"segment lo must be >= 0, got {lo}")
        if hi <= lo:
            raise ValueError(f"segment must satisfy lo < hi, got [{lo}, {hi})")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)

    def overlap(self, a: float, b: float) -> tuple[float, float] | None:
        lo = max(self.lo, a)
        hi = min(self.hi, b)
        return (lo, hi) if hi > lo else None


def _canonical_segments(segments: Iterable[DensitySegment]) -> tuple[DensitySegment, ...]:
    segs = sorted((s for s in segments if not s.density.is_zero), key=lambda s: s.lo)
    for prev, cur in zip(segs, segs[1:]):
        if cur.lo < prev.hi:
            raise ValueError(
                f"density segments overlap: [{prev.lo}, {prev.hi}) and [{cur.lo}, {cur.hi})"
            )
    merged: list[DensitySegment] = []
    for seg in segs:
        if merged and merged[-1].hi == seg.lo and merged[-1].density == seg.density:
            merged[-1] = DensitySegment(merged[-1].lo, seg.hi, seg.density)
        else:
            merged.append(seg)
    return tuple(merged)


def _canonical_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    bucket: dict[float, float] = {}
    for a in atoms:
        bucket[a.location] = bucket.get(a.location, 0.0) + a.weight
    return tuple(
        Atom(loc, w) for loc, w in sorted(bucket.items()) if w != 0.0
    )


@dataclass(frozen=True, slots=True)
class SignedMeasure:
    """Finitely many atoms plus disjoint density segments on [0, inf).

    Instances are immutable and canonical: atoms are merged and sorted,
    zero weights and empty densities dropped, adjacent segments with equal
    densities fused.  Equality is equality of canonical forms.
    """

    atoms: tuple[Atom, ...] = ()
    segments: tuple[DensitySegment, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms))
        object.__setattr__(self, "segments", _canonical_segments(self.segments))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "SignedMeasure":
        return cls()

    @classmethod
    def point_mass(cls, location: float, weight: float = 1.0) -> "SignedMeasure":
        return cls(atoms=(Atom(location, weight),))

    @classmethod
    def from_density(
        cls,
        terms: Iterable[Term] | Expression,
        lo: float = 0.0,
        hi: float = math.inf,
    ) -> "SignedMeasure":
        expr = terms if isinstance(terms, Expression) else Expression(tuple(terms))
        return cls(segments=(DensitySegment(lo, hi, expr),))

    # -- structure queries --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.atoms and not self.segments

    def has_nondecaying_tail(self) -> bool:
        """True when some unbounded segment carries a zero-decay term."""
        return any(s.unbounded and s.density.min_decay == 0.0 for s in self.segments)

    def support_bound(self) -> float:
        """Upper bound of the support (inf for unbounded segments)."""
        hi = 0.0
        for a in self.atoms:
            hi = max(hi, a.location)
        for s in self.segments:
            hi = max(hi, s.hi)
        return hi

    # -- evaluation ----------------------------------------------------

    def interval(self, a: float, b: float, include_left: bool = False) -> float:
        """Mass of the interval (a, b] (or [a, b] with include_left).

        Returns +inf when either Jordan part of the restriction is
        infinite, which for this grammar happens exactly when b is
        infinite and some overlapping unbounded segment has a zero-decay
        term.
        """
        if not (0 <= a <= b):
            raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
        acc = 0.0
        for atom in self.atoms:
            if (a < atom.location <= b) or (include_left and atom.location == a):
                acc += atom.weight
        for seg in self.segments:
            ab = seg.overlap(a, b)
            if ab is None:
                continue
            lo, hi = ab
            if math.isinf(hi) and seg.density.min_decay == 0.0:
                return math.inf
            acc += seg.density.integral(lo, hi)
        return acc

    def distribution(self, x: float) -> float:
        """Distribution function F(x) = mass of [0, x] for x > 0, F(0) = 0."""
        if x < 0:
            raise ValueError(f"distribution argument must be >= 0, got {x}")
        if x == 0.0:
            return 0.0
        return self.interval(0.0, x, include_left=True)

    def norm(self) -> float:
        """Total variation mass; +inf when it diverges."""
        from . import transforms  # local import to avoid a cycle

        return transforms.abs_transform_value(self, 0.0)

    # -- grammar-exact transformations ---------------------------------

    def tilted(self, eps: float) -> "SignedMeasure":
        """Exponential tilt: new measure with density exp(-eps*x) * old."""
        eps = _require_finite("tilt parameter", eps)
        if eps < 0:
            raise ValueError(f"tilt parameter must be >= 0, got {eps}")
        atoms = tuple(Atom(a.location, a.weight * math.exp(-eps * a.location)) for a in self.atoms)
        segments = tuple(
            DensitySegment(
                s.lo,
                s.hi,
                Expression(tuple(
                    Term(t.coefficient, t.power, t.decay + eps, t.kind, t.freq)
                    for t in s.density.terms
                )),
            )
            for s in self.segments
        )
        return SignedMeasure(atoms, segments)

    def scaled(self, t: float, c: float) -> "SignedMeasure":
        """Measure nu with nu((u, v]) = self((t*u, t*v]) / c."""
        t = _require_finite("scale factor", t)
        c = _require_finite("normaliser", c)
        if t <= 0:
            raise ValueError(f"scale factor must be > 0, got {t}")
        if c == 0:
            raise ValueError("normaliser must be nonzero")
        atoms = tuple(Atom(a.location / t, a.weight / c) for a in self.atoms)
        segments = tuple(
            DensitySegment(
                s.lo / t,
                s.hi / t,
                Expression(tuple(
                    Term(
                        tm.coefficient * t ** (tm.power + 1) / c,
                        tm.power,
                        tm.decay * t,
                        tm.kind,
                        tm.freq * t,
                    )
                    for tm in s.density.terms
                )),
            )
            for s in self.segments
        )
        return SignedMeasure(atoms, segments)

    def restricted(self, upper: float) -> "SignedMeasure":
        """Restriction to [0, upper]."""
        upper = _require_finite("restriction bound", upper)
        if upper <= 0:
            raise ValueError(f"restriction bound must be > 0, got {upper}")
        atoms = tuple(a for a in self.atoms if a.location <= upper)
        segments = tuple(
            DensitySegment(s.lo, min(s.hi, upper), s.density)
            for s in self.segments
            if s.lo < upper
        )
        return SignedMeasure(atoms, segments)

    def integrated_tail(self, start: float) -> "SignedMeasure":
        """Measure with density 1_[start, inf)(t) * F(t), F = self.distribution.

        The distribution function is expanded piecewise in the term grammar
        (atoms past `start` contribute step constants).  Raises
        UnrepresentableDensity when an antiderivative leaves the grammar.
        """
        start = _require_finite("integrated-tail start", start)
        if start <= 0:
            raise ValueError(f"integrated-tail start must be > 0, got {start}")
        breaks = {start}
        breaks.update(a.location for a in self.atoms if a.location > start)
        for s in self.segments:
            if s.lo > start:
                breaks.add(s.lo)
            if not s.unbounded and s.hi > start:
                breaks.add(s.hi)
        edges = sorted(breaks) + [math.inf]
        out: list[DensitySegment] = []
        for lo, hi in zip(edges, edges[1:]):
            active = [s for s in self.segments if s.lo <= lo and hi <= s.hi]
            antis = [s.density.antiderivative() for s in active]
            const = self.distribution(lo) - math.fsum(a.evaluate(lo) for a in antis)
            terms: list[Term] = [t for a in antis for t in a.terms]
            if const != 0.0:
                terms.append(Term(const))
            expr = Expression(tuple(terms))
            if not expr.is_zero:
                out.append(DensitySegment(lo, hi, expr))
        return SignedMeasure(segments=tuple(out))

    # -- linear structure ----------------------------------------------

    def __mul__(self, alpha: float) -> "SignedMeasure":
        alpha = float(alpha)
        if alpha == 0.0:
            return SignedMeasure()
        atoms = tuple(Atom(a.location, alpha * a.weight) for a in self.atoms)
        segments = tuple(
            DensitySegment(s.lo, s.hi, s.density.scale(alpha)) for s in self.segments
        )
        return SignedMeasure(atoms, segments)

    __rmul__ = __mul__

    def __neg__(self) -> "SignedMeasure":
        return self * -1.0

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        if not isinstance(other, SignedMeasure):
            return NotImplemented
        atoms = self.atoms + other.atoms
        edges: set[float] = set()
        for s in self.segments + other.segments:
            edges.add(s.lo)
            edges.add(s.hi)
        cuts = sorted(e for e in edges if math.isfinite(e))
        if any(s.unbounded for s in self.segments + other.segments):
            cuts.append(math.inf)
        segments: list[DensitySegment] = []
        for lo, hi in zip(cuts, cuts[1:]):
            terms = [
                t
                for s in self.segments + other.segments
                if s.lo <= lo and hi <= s.hi
                for t in s.density.terms
            ]
            expr = Expression(tuple(terms))
            if not expr.is_zero:
                segments.append(DensitySegment(lo, hi, expr))
        return SignedMeasure(atoms, tuple(segments))

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        return self + (-other)

    # -- comparison ----------------------------------------------------

    def isclose(self, other: "SignedMeasure", rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
        """Structural closeness of canonical forms (same shape, close floats)."""

        def close(u: float, v: float) -> bool:
            if math.isinf(u) or math.isinf(v):
                return u == v
            return math.isclose(u, v, rel_tol=rel, abs_tol=abs_tol)

        if len(self.atoms) != len(other.atoms) or len(self.segments) != len(other.segments):
            return False
        for a, b in zip(self.atoms, other.atoms):
            if not (close(a.location, b.location) and close(a.weight, b.weight)):
                return False
        for s, t in zip(self.segments, other.segments):
            if not (close(s.lo, t.lo) and close(s.hi, t.hi)):
                return False
            if len(s.density.terms) != len(t.density.terms):
                return False
            for u, v in zip(s.density.terms, t.density.terms):
                if u.kind != v.kind:
                    return False
                if not (
                    close(u.coefficient, v.coefficient)
                    and close(u.power, v.power)
                    and close(u.decay, v.decay)
                    and close(u.freq, v.freq)
                ):
                    return False
        return True

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        segs = []
        for s in self.segments:
            terms = []
            for t in s.density.terms:
                osc = None
                if t.kind == "cos":
                    osc = {"cos": t.freq}
                elif t.kind == "sin":
                    osc = {"sin": t.freq}
                terms.append({"c": t.coefficient, "k": t.power, "a": t.decay, "osc": osc})
            segs.append({"lo": s.lo, "hi": None if s.unbounded else s.hi, "terms": terms})
        return {
            "atoms": [{"x": a.location, "w": a.weight} for a in self.atoms],
            "segments": segs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SignedMeasure":
        if not isinstance(data, dict):
            raise ValueError("measure must be a JSON object")
        atoms = []
        for i, entry in enumerate(data.get("atoms", [])):
            try:
                atoms.append(Atom(float(entry["x"]), float(entry["w"])))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"atoms[{i}]: expected fields x, w ({exc})") from exc
        segments = []
        for i, entry in enumerate(data.get("segments", [])):
            try:
                lo = float(entry["lo"])
                hi = math.inf if entry["hi"] is None else float(entry["hi"])
                terms = [_term_from_dict(t) for t in entry["terms"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"segments[{i}]: {exc}") from exc
            segments.append(DensitySegment(lo, hi, Expression(tuple(terms))))
        return cls(tuple(atoms), tuple(segments))


def _term_from_dict(entry: dict) -> Term:
    osc = entry.get("osc")
    kind, freq = "", 0.0
    if osc is not None:
        if not isinstance(osc, dict) or len(osc) != 1:
            raise ValueError(f"osc must be null or a single-key object, got {osc!r}")
        kind, freq = next(iter(osc.items()))
        if kind not in ("cos", "sin"):
            raise ValueError(f"osc key must be 'cos' or 'sin', got {kind!r}")
        freq = float(freq)
    return Term(float(entry["c"]), float(entry["k"]), float(entry.get("a", 0.0)), kind, freq)
