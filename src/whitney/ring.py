"""Exact truncated multivariate polynomial arithmetic.

A ``TruncatedPoly`` is a polynomial over exact rationals together with a
total-degree cap: it represents the jet of a function-germ at the origin up
to and including degree ``cap``.  Terms above the cap are unknown and never
stored.  All arithmetic tracks how much jet information survives:

  * sums and products carry the minimum cap of the operands,
  * a partial derivative loses one degree of information,
  * a formal integral gains one.

Coefficients are ``fractions.Fraction`` throughout; no floating point enters
the core.  Every variable carries a kind tag (``source``, ``p``, ``q``,
``r``, ``fiber``, ``param``) so that the weighted order on Darboux charts
(p, q of weight 1, r of weight 2) is a query on the stored data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from .errors import CapShortfallError, ParseError, VariableMismatchError, WhitneyError

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Fraction]

SOURCE, P, Q, R, FIBER, PARAM = "source", "p", "q", "r", "fiber", "param"
KINDS = (SOURCE, P, Q, R, FIBER, PARAM)

#: weights of the filtration on a Darboux chart
_WEIGHT = {P: 1, Q: 1, R: 2}

#: sentinel for the order of the zero polynomial
INF = float("inf")

#: bits of a 4,300-digit literal, the longest int() reads by default
_LITERAL_BITS = (10 ** 4300 - 1).bit_length()


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact rational coefficient expected, got {type(c).__name__}")


class TruncatedPoly:
    """Polynomial jet with exact rational coefficients and a degree cap.

    Values are immutable: every operation returns a fresh instance.  The
    ``terms`` dict maps exponent tuples to nonzero Fractions and never holds
    a term of total degree above ``cap``.
    """

    __slots__ = ("nvars", "cap", "kinds", "terms", "_hash")

    def __init__(self, nvars: int, cap: int, kinds: Sequence[str], terms: Terms):
        if len(kinds) != nvars:
            raise VariableMismatchError("one kind tag per variable required")
        self.nvars = nvars
        self.cap = cap
        self.kinds = tuple(kinds)
        clean = {}
        for mono, coeff in terms.items():
            if coeff == 0:
                continue
            if sum(mono) > cap:
                continue
            clean[mono] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, cap: int, kinds: Sequence[str]) -> "TruncatedPoly":
        return cls(nvars, cap, kinds, {})

    @classmethod
    def const(cls, value, nvars: int, cap: int, kinds: Sequence[str]) -> "TruncatedPoly":
        return cls(nvars, cap, kinds, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def var(cls, index: int, nvars: int, cap: int, kinds: Sequence[str]) -> "TruncatedPoly":
        if not 0 <= index < nvars:
            raise VariableMismatchError(f"variable index {index} out of range")
        mono = [0] * nvars
        mono[index] = 1
        return cls(nvars, cap, kinds, {tuple(mono): Fraction(1)})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def order(self):
        """Minimal total degree of a stored term; INF for the zero jet."""
        if not self.terms:
            return INF
        return min(sum(m) for m in self.terms)

    def degree(self) -> int:
        """Maximal total degree of a stored term; -1 for the zero jet."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def weighted_order(self):
        """Minimal weighted degree, with weight(p)=weight(q)=1, weight(r)=2.

        Only defined on charts whose variables all carry p/q/r tags.
        """
        weights = []
        for kind in self.kinds:
            if kind not in _WEIGHT:
                raise VariableMismatchError(
                    f"weighted order needs p/q/r-tagged variables, found {kind!r}"
                )
            weights.append(_WEIGHT[kind])
        if not self.terms:
            return INF
        return min(sum(w * e for w, e in zip(weights, mono)) for mono in self.terms)

    def coefficient(self, mono: Exponent) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def homogeneous_part(self, d: int) -> "TruncatedPoly":
        return TruncatedPoly(
            self.nvars, self.cap, self.kinds,
            {m: c for m, c in self.terms.items() if sum(m) == d},
        )

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.cap == other.cap
            and self.kinds == other.kinds
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.nvars, self.cap, self.kinds, tuple(sorted(self.terms.items())))
            )
        return self._hash

    def same_jet(self, other: "TruncatedPoly") -> bool:
        """Equality of the represented jets up to the common cap."""
        self._check_compatible(other)
        cap = min(self.cap, other.cap)
        a = {m: c for m, c in self.terms.items() if sum(m) <= cap}
        b = {m: c for m, c in other.terms.items() if sum(m) <= cap}
        return a == b

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "TruncatedPoly"):
        if self.nvars != other.nvars:
            raise VariableMismatchError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )
        if self.kinds != other.kinds:
            raise VariableMismatchError("variable kind tags differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedPoly.const(other, self.nvars, self.cap, self.kinds)
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        cap = min(self.cap, other.cap)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff
            else:
                terms[mono] = acc + coeff
        return TruncatedPoly(self.nvars, cap, self.kinds, terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPoly(
            self.nvars, self.cap, self.kinds, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedPoly.const(other, self.nvars, self.cap, self.kinds)
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "TruncatedPoly":
        c = _as_fraction(c)
        if c == 0:
            return TruncatedPoly.zero(self.nvars, self.cap, self.kinds)
        return TruncatedPoly(
            self.nvars, self.cap, self.kinds, {m: c * v for m, v in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        cap = min(self.cap, other.cap)
        # iterate over the smaller factor
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: Terms = {}
        for m1, c1 in a.items():
            d1 = sum(m1)
            for m2, c2 in b.items():
                if d1 + sum(m2) > cap:
                    continue
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                acc = terms.get(mono)
                if acc is None:
                    terms[mono] = c1 * c2
                else:
                    terms[mono] = acc + c1 * c2
        return TruncatedPoly(self.nvars, cap, self.kinds, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = TruncatedPoly.const(1, self.nvars, self.cap, self.kinds)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "TruncatedPoly":
        """Multiplicative inverse of a jet with nonzero constant term."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("inverse requires a nonzero constant term")
        # 1/(c0 + h) = (1/c0) * sum_k (-h/c0)^k, h of positive order
        h = (self - c0).scale(Fraction(-1, 1) / c0)
        result = TruncatedPoly.const(1, self.nvars, self.cap, self.kinds)
        power = TruncatedPoly.const(1, self.nvars, self.cap, self.kinds)
        for _ in range(self.cap):
            power = power * h
            if power.is_zero():
                break
            result = result + power
        return result.scale(Fraction(1, 1) / c0)

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "TruncatedPoly":
        """Exact termwise derivative; the cap drops by one."""
        if not 0 <= index < self.nvars:
            raise VariableMismatchError(f"variable index {index} out of range")
        terms: Terms = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            new = list(mono)
            new[index] = e - 1
            key = tuple(new)
            acc = terms.get(key)
            val = coeff * e
            terms[key] = val if acc is None else acc + val
        return TruncatedPoly(self.nvars, self.cap - 1, self.kinds, terms)

    def integral(self, index: int) -> "TruncatedPoly":
        """Termwise antiderivative vanishing at ``var = 0``; cap grows by one."""
        if not 0 <= index < self.nvars:
            raise VariableMismatchError(f"variable index {index} out of range")
        terms: Terms = {}
        for mono, coeff in self.terms.items():
            new = list(mono)
            new[index] = mono[index] + 1
            terms[tuple(new)] = coeff / (mono[index] + 1)
        return TruncatedPoly(self.nvars, self.cap + 1, self.kinds, terms)

    # -- substitution -------------------------------------------------------

    def substitute(
        self,
        images: Sequence["TruncatedPoly"],
        allow_constant_terms: bool = False,
    ) -> "TruncatedPoly":
        """Compose the jet with the given variable images.

        Germ composition at the origin: every image must vanish at 0, so
        that truncation of the result is honest.  Internal callers that
        substitute into exactly-known polynomials (tangent-chart pullbacks)
        may pass ``allow_constant_terms=True``.
        """
        if len(images) != self.nvars:
            raise VariableMismatchError(
                f"need {self.nvars} substitution images, got {len(images)}"
            )
        if not images:
            raise VariableMismatchError("substitution into a 0-variable jet")
        first = images[0]
        for g in images:
            if g.nvars != first.nvars or g.kinds != first.kinds:
                raise VariableMismatchError("substitution images live on different charts")
            if not allow_constant_terms and g.constant_term() != 0:
                raise VariableMismatchError(
                    "substitution image has a nonzero constant term"
                )
        cap = min([self.cap] + [g.cap for g in images])
        kinds = first.kinds
        nvars = first.nvars
        result = TruncatedPoly.zero(nvars, cap, kinds)
        # powers[i][k] is images[i]**(k+1) at this cap, grown on demand
        powers = {}

        for mono, coeff in self.terms.items():
            piece = TruncatedPoly.const(coeff, nvars, cap, kinds)
            for i, e in enumerate(mono):
                if e:
                    pw = powers.get(i)
                    if pw is None:
                        pw = powers[i] = [images[i].truncate(cap)]
                    while len(pw) < e:
                        pw.append(pw[-1] * images[i])
                    piece = piece * pw[e - 1]
                if piece.is_zero():
                    break
            result = result + piece
        return result

    def set_vars_zero(self, indices: Iterable[int]) -> "TruncatedPoly":
        """Restrict the jet to the subspace where the given variables vanish."""
        drop = set(indices)
        terms = {
            m: c for m, c in self.terms.items() if all(m[i] == 0 for i in drop)
        }
        return TruncatedPoly(self.nvars, self.cap, self.kinds, terms)

    def extend(
        self, nvars: int, kinds: Sequence[str], index_map: Sequence[int]
    ) -> "TruncatedPoly":
        """Re-embed into a larger variable list; old var i becomes index_map[i]."""
        if len(index_map) != self.nvars:
            raise VariableMismatchError("index map length mismatch")
        if len(set(index_map)) != len(index_map):
            raise VariableMismatchError("index map must be injective")
        terms: Terms = {}
        for mono, coeff in self.terms.items():
            new = [0] * nvars
            for i, e in enumerate(mono):
                new[index_map[i]] = e
            terms[tuple(new)] = coeff
        return TruncatedPoly(nvars, self.cap, kinds, terms)

    def project_vars(
        self, keep: Sequence[int], kinds: Sequence[str]
    ) -> "TruncatedPoly":
        """Restrict to the listed variables; all others must have exponent 0."""
        keep = list(keep)
        keep_set = set(keep)
        terms: Terms = {}
        for mono, coeff in self.terms.items():
            for i, e in enumerate(mono):
                if e and i not in keep_set:
                    raise VariableMismatchError(
                        f"variable {i} still occurs; cannot project it away")
            terms[tuple(mono[i] for i in keep)] = coeff
        return TruncatedPoly(len(keep), self.cap, kinds, terms)

    def truncate(self, cap: int) -> "TruncatedPoly":
        """Forget jet information above ``cap`` (cap may only shrink)."""
        if cap > self.cap:
            raise CapShortfallError(
                f"cannot raise cap from {self.cap} to {cap}: information lost"
            )
        return TruncatedPoly(self.nvars, cap, self.kinds, self.terms)

    # -- float evaluation (CLI front sampler only) --------------------------

    def evaluate_float(self, point: Sequence[float]) -> float:
        if len(point) != self.nvars:
            raise VariableMismatchError("evaluation point has wrong dimension")
        total = 0.0
        for mono, coeff in self.terms.items():
            term = float(coeff)
            for x, e in zip(point, mono):
                if e:
                    term *= x ** e
            total += term
        return total

    # -- printing ------------------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical graded-lexicographic order (earlier
        variables first within a degree)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def render(self, names: Sequence[str]) -> str:
        """Canonical text form, exact and re-parseable."""
        if len(names) != self.nvars:
            raise VariableMismatchError("one name per variable required")
        if not self.terms:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = _frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_frac_str(mag)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"TruncatedPoly(cap={self.cap}, {self.render(names)})"


def _frac_str(c: Fraction) -> str:
    try:
        return str(c)       # "a" or "a/b"
    except ValueError:      # past the digit limit of int -> str, 4,300 by default
        raise WhitneyError("a coefficient has too many digits to print") from None


# -- expression parser --------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_number(self) -> Fraction:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected digits at position {start}")
        num = int(self.text[start:self.pos])
        # a/b rational literal: '/' binds only number-to-number
        save = self.pos
        if self.peek() == "/":
            self.pos += 1
            if self.peek() is not None and self.text[self.pos].isdigit():
                dstart = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                den = int(self.text[dstart:self.pos])
                if den == 0:
                    raise ParseError("zero denominator in rational literal")
                return Fraction(num, den)
            self.pos = save
        return Fraction(num)

    def take_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


class _Parser(_Tokenizer):
    """Recursive-descent parser over the tokenizer; one instance per text."""

    def __init__(self, text: str, names: Sequence[str], cap: int,
                 kinds: Sequence[str]):
        super().__init__(text)
        self.nvars = len(names)
        self.index = {name: i for i, name in enumerate(names)}
        self.cap = cap
        self.kinds = kinds

    def parse_sum(self):
        value = self.parse_product()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.parse_product()
            elif ch == "-":
                self.pos += 1
                value = value - self.parse_product()
            else:
                return value

    def parse_product(self):
        value = self.parse_atom()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.parse_atom()
        return value

    def parse_atom(self):
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of expression")
        if ch == "-":
            self.pos += 1
            return -self.parse_atom()
        if ch == "(":
            self.pos += 1
            value = self.parse_sum()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis")
            self.pos += 1
            return self.parse_power_suffix(value)
        if ch.isdigit():
            value = TruncatedPoly.const(self.take_number(), self.nvars,
                                        self.cap, self.kinds)
            return self.parse_power_suffix(value)
        if ch.isalpha() or ch == "_":
            name = self.take_name()
            if name not in self.index:
                raise ParseError(f"unknown variable {name!r}")
            value = TruncatedPoly.var(self.index[name], self.nvars, self.cap,
                                      self.kinds)
            return self.parse_power_suffix(value)
        raise ParseError(f"unexpected character {ch!r} at position {self.pos}")

    def parse_power_suffix(self, value):
        while self.peek() == "^":
            self.pos += 1
            ch = self.peek()
            if ch is None or not ch.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            k = int(self.text[start:self.pos])
            bits = max((abs(x).bit_length() for c in value.terms.values()
                        for x in c.as_integer_ratio()), default=1)
            if k * (bits - 1) > _LITERAL_BITS:      # |c|^k has >= k(bits - 1) bits
                raise ParseError(f"power ^{k} would build a coefficient of over 4300 digits")
            if len(value.terms) == 1:
                # a single term c x^m is raised in one step to c^k x^(km); its
                # degree is checked first, so a power above the cap is free
                (mono, c), = value.terms.items()
                terms = ({tuple(k * e for e in mono): c ** k}
                         if k * sum(mono) <= self.cap else {})
                value = TruncatedPoly(self.nvars, self.cap, self.kinds, terms)
            else:
                value = value ** k
        return value


def parse_expression(
    text: str, names: Sequence[str], cap: int, kinds: Sequence[str]
) -> TruncatedPoly:
    """Parse ``text`` in the small grammar: rationals a/b, named variables,
    ``+ - * ^`` and parentheses.  Round-trips with :meth:`TruncatedPoly.render`.
    """
    parser = _Parser(text, names, cap, kinds)
    try:
        result = parser.parse_sum()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input at position {parser.pos}")
    return result


def monomials_upto(nvars: int, degree: int):
    """All exponent tuples of total degree <= degree, graded-lex order."""
    result = [()]
    for _ in range(nvars):
        result = [m + (e,) for m in result for e in range(degree - sum(m) + 1)]
    result.sort(key=lambda m: (sum(m), m))
    return result
