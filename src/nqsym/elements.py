"""Sparse quasisymmetric function elements over exact rationals.

An element is a basis tag ('M', 'L' or 'N') plus a map from compositions to
nonzero coefficients.  Coefficients are Python ints when integral and
fractions.Fraction otherwise, so exhaustive checks never lose exactness.
Elements are treated as immutable after construction.
"""

from fractions import Fraction

from .compositions import (
    as_composition,
    composition_from_json,
    format_composition,
    json_int,
    json_iter,
    term_order_key,
    weight,
)
from .errors import ValidationError

BASES = ("M", "L", "N")


def _norm_coeff(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"coefficients must be exact rationals, got {type(value)}")


def _normalized_terms(basis, terms, key):
    """Check the basis tag and merge (key, coefficient) pairs into a dict of
    nonzero normalized coefficients, with each key passed through `key`."""
    if basis not in BASES:
        raise ValidationError(f"unknown basis tag {basis!r}")
    clean = {}
    items = terms.items() if isinstance(terms, dict) else json_iter(terms, "terms")
    for term in items:
        try:
            k, coeff = term
        except (TypeError, ValueError):
            raise ValidationError(f"a term must be a (key, coefficient) pair, got {term!r}") from None
        k = key(k)
        coeff = _norm_coeff(coeff)
        if not coeff:
            continue
        total = clean[k] + coeff if k in clean else coeff
        if total:
            clean[k] = _norm_coeff(total)
        else:
            del clean[k]
    return clean


def _tensor_key(pair):
    try:
        left, right = pair
    except (TypeError, ValueError):
        raise ValidationError(f"a tensor key must be a pair of compositions, got {pair!r}") from None
    return as_composition(left), as_composition(right)


class _TermMap:
    """The immutable basis tag and dict of nonzero terms that QSymElement
    and TensorElement share; an element only equals one of its own class."""

    __slots__ = ("basis", "terms")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.basis!r}, {dict(self.sorted_terms())!r})"


class QSymElement(_TermMap):
    """A finite linear combination of basis elements of one fixed basis."""

    __slots__ = ()

    def __init__(self, basis, terms=()):
        object.__setattr__(self, "terms", _normalized_terms(basis, terms, as_composition))
        object.__setattr__(self, "basis", basis)

    # -- constructors

    @classmethod
    def _trusted(cls, basis, terms):
        """Element built from a dict whose keys are already valid compositions
        and whose coefficients are ints or Fractions, as every internal
        builder produces; zero coefficients are dropped and integral
        Fractions become ints, but no key is revalidated."""
        self = object.__new__(cls)
        clean = {comp: _norm_coeff(coeff) for comp, coeff in terms.items() if coeff}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "basis", basis)
        return self

    @classmethod
    def _from_numerators(cls, basis, numerators, denom):
        """Element with coefficients v / denom for the int numerators v of a
        dict keyed by valid compositions, as the integer routes of qsym
        produce; zeros are dropped, a v that denom divides becomes the int
        quotient, and one Fraction is made per other term."""
        self = object.__new__(cls)
        if denom == 1:
            clean = {comp: v for comp, v in numerators.items() if v}
        else:
            clean = {}
            for comp, v in numerators.items():
                if v:
                    q, r = divmod(v, denom)
                    clean[comp] = Fraction(v, denom) if r else q
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "basis", basis)
        return self

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
        return QSymElement._trusted(left.basis, out)

    def __sub__(self, other):
        left, right = self._aligned(other)
        out = dict(left.terms)
        for comp, coeff in right.terms.items():
            out[comp] = out.get(comp, 0) - coeff
        return QSymElement._trusted(left.basis, out)

    def __neg__(self):
        return QSymElement._trusted(self.basis, {c: -v for c, v in self.terms.items()})

    def scale(self, scalar):
        if isinstance(scalar, bool) or not isinstance(scalar, (int, Fraction)):
            raise ValidationError(f"scalars must be exact rationals, got {type(scalar)}")
        return QSymElement._trusted(
            self.basis, {c: v * scalar for c, v in self.terms.items()}
        )

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

    # -- rendering and JSON

    def __str__(self):
        return format_element(self)

    def to_json(self):
        out = []
        for comp, coeff in self.sorted_terms():
            out.append(
                {"comp": list(comp), "num": coeff.numerator, "den": coeff.denominator}
            )
        return {"basis": self.basis, "terms": out}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "basis" not in data or "terms" not in data:
            raise ValidationError("element JSON needs 'basis' and 'terms'")
        if not isinstance(data["terms"], list):
            raise ValidationError("element JSON 'terms' must be an array")
        terms = []
        for item in data["terms"]:
            if not isinstance(item, dict) or "comp" not in item or "num" not in item:
                raise ValidationError("each element term needs 'comp' and 'num'")
            comp = composition_from_json(item["comp"])
            num = json_int(item["num"], "numerators")
            den = json_int(item.get("den", 1), "denominators")
            if den <= 0:
                raise ValidationError("denominators must be positive")
            terms.append((comp, Fraction(num, den)))
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


class TensorElement(_TermMap):
    """A sparse sum of two-sided tensors q1 (x) q2, both sides in one basis."""

    __slots__ = ()

    def __init__(self, basis, terms=()):
        object.__setattr__(self, "terms", _normalized_terms(basis, terms, _tensor_key))
        object.__setattr__(self, "basis", basis)

    def coefficient(self, left, right):
        return self.terms.get((tuple(left), tuple(right)), 0)

    def __add__(self, other):
        if not isinstance(other, TensorElement) or other.basis != self.basis:
            raise ValidationError("tensor basis mismatch")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return TensorElement(self.basis, out)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (term_order_key(kv[0][0]), term_order_key(kv[0][1])),
        )
