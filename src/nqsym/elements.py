"""Sparse quasisymmetric function elements over exact rationals.

An element is a basis tag ('M', 'L' or 'N') plus a map from compositions to
nonzero coefficients.  Coefficients are Python ints when integral and
fractions.Fraction otherwise, so exhaustive checks never lose exactness.
Elements are treated as immutable after construction.
"""

from fractions import Fraction

from .compositions import (
    as_composition,
    format_composition,
    term_order_key,
    weight,
)
from .errors import ValidationError

BASES = ("M", "L", "N")


def _norm_coeff(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise ValidationError(f"coefficients must be exact rationals, got {type(value)}")


def _normalized_terms(basis, terms, key):
    """Check the basis tag and merge (key, coefficient) pairs into a dict of
    nonzero normalized coefficients, with each key passed through `key`."""
    if basis not in BASES:
        raise ValidationError(f"unknown basis tag {basis!r}")
    clean = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for k, coeff in items:
        k = key(k)
        coeff = _norm_coeff(coeff)
        if coeff:
            clean[k] = clean.get(k, 0) + coeff
            if not clean[k]:
                del clean[k]
    return clean


def _tensor_key(pair):
    left, right = pair
    return as_composition(left), as_composition(right)


class QSymElement:
    """A finite linear combination of basis elements of one fixed basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=()):
        object.__setattr__(self, "terms", _normalized_terms(basis, terms, as_composition))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("QSymElement is immutable")

    # -- constructors

    @classmethod
    def zero(cls, basis="M"):
        return cls(basis, {})

    @classmethod
    def one(cls, basis="M"):
        return cls(basis, {(): 1})

    @classmethod
    def single(cls, basis, comp, coeff=1):
        return cls(basis, {as_composition(comp): coeff})

    # -- inspection

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, comp):
        return self.terms.get(tuple(comp), 0)

    def support(self):
        return frozenset(self.terms)

    def degrees(self):
        return sorted({weight(c) for c in self.terms})

    def degree(self):
        """Degree of a homogeneous element (error if mixed or zero)."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValidationError(f"element is not homogeneous, degrees {degs}")
        return degs[0]

    def is_integral(self):
        return all(isinstance(v, int) for v in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_order_key(kv[0]))

    # -- arithmetic (same-basis linear structure; the ring product lives in qsym)

    def _aligned(self, other):
        """Mixed-basis arithmetic falls back to the monomial basis."""
        if not isinstance(other, QSymElement):
            raise TypeError("expected a QSymElement")
        if self.basis == other.basis:
            return self, other
        from .qsym import convert

        return convert(self, "M"), convert(other, "M")

    def __add__(self, other):
        left, right = self._aligned(other)
        out = dict(left.terms)
        for comp, coeff in right.terms.items():
            out[comp] = out.get(comp, 0) + coeff
        return QSymElement(left.basis, out)

    def __sub__(self, other):
        left, right = self._aligned(other)
        out = dict(left.terms)
        for comp, coeff in right.terms.items():
            out[comp] = out.get(comp, 0) - coeff
        return QSymElement(left.basis, out)

    def __neg__(self):
        return QSymElement(self.basis, {c: -v for c, v in self.terms.items()})

    def scale(self, scalar):
        scalar = scalar if isinstance(scalar, (int, Fraction)) else Fraction(scalar)
        return QSymElement(self.basis, {c: v * scalar for c, v in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        from .qsym import mul, nbasis_product

        if isinstance(other, QSymElement):
            if self.basis == "N" and other.basis == "N":
                return nbasis_product(self, other)
            return mul(self, other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, QSymElement)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    # -- rendering and JSON

    def __repr__(self):
        return f"QSymElement({self.basis!r}, {dict(self.sorted_terms())!r})"

    def __str__(self):
        return format_element(self)

    def to_json(self):
        out = []
        for comp, coeff in self.sorted_terms():
            frac = Fraction(coeff)
            out.append({"comp": list(comp), "num": frac.numerator, "den": frac.denominator})
        return {"basis": self.basis, "terms": out}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "basis" not in data or "terms" not in data:
            raise ValidationError("element JSON needs 'basis' and 'terms'")
        terms = []
        for item in data["terms"]:
            comp = as_composition(item["comp"])
            den = int(item.get("den", 1))
            if den <= 0:
                raise ValidationError("denominators must be positive")
            terms.append((comp, Fraction(int(item["num"]), den)))
        return cls(data["basis"], terms)


def format_element(element):
    """Human-readable term list, e.g. 'L[14] + L[131] + 2 L[1121]'."""
    if not element.terms:
        return "0"
    pieces = []
    for comp, coeff in element.sorted_terms():
        name = f"{element.basis}[{format_composition(comp)}]"
        if comp == ():
            name = "1"
        if coeff == 1 and comp != ():
            text = name
        elif coeff == -1 and comp != ():
            text = f"-{name}"
        else:
            text = f"{coeff} {name}" if comp != () else f"{coeff}"
        pieces.append(text)
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


class TensorElement:
    """A sparse sum of two-sided tensors q1 (x) q2, both sides in one basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=()):
        object.__setattr__(self, "terms", _normalized_terms(basis, terms, _tensor_key))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, left, right):
        return self.terms.get((tuple(left), tuple(right)), 0)

    def __add__(self, other):
        if not isinstance(other, TensorElement) or other.basis != self.basis:
            raise ValidationError("tensor basis mismatch")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return TensorElement(self.basis, out)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (term_order_key(kv[0][0]), term_order_key(kv[0][1])),
        )

    def __repr__(self):
        return f"TensorElement({self.basis!r}, {dict(self.sorted_terms())!r})"
