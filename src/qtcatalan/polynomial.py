"""Sparse multivariate Laurent polynomials with exact integer arithmetic.

A polynomial is stored as a dictionary mapping exponent tuples to nonzero
integer coefficients, together with a :class:`VarTable` fixing the variable
names and hence the tuple layout.  Coefficients are plain Python integers,
so arithmetic is exact at any size.  Zero coefficients are dropped in one
place, ``SparsePoly._owning``, which every operation builds its result
through.  Exponents may be negative (Laurent monomials); callers that
require ordinary polynomials assert nonnegativity themselves.

Multiplication packs each exponent tuple into one integer (Kronecker
substitution).  Digit i is the exponent of variable i minus its operand's
minimum, in base hi - lo + 1, where [lo, hi] bounds that exponent in the
product.  A digit of the sum of two keys stays below its base, so adding
keys adds exponent vectors without carry, and every product key lies below
L, the product of the bases.  When L <= len(a) * len(b) the product is
dense, and the variable is substituted too: each operand becomes one
integer with coefficient c in byte slot ``key`` (slots wide enough for
any product coefficient and its sign), the two integers are multiplied
once, in C, and each nonzero slot of the result is one product term.
Otherwise, for sparse operands such as x**(10**6) + 1, whose slot buffer
would outgrow the pair count, a term-pair loop does one integer addition
per pair.  Both decode each product key once with ``divmod``.  Python
integers are unbounded, so this is exact for any exponent range and
coefficient size, negative exponents included.

Canonical term order is *descending* lexicographic on exponent tuples
(leading term first).  Serialization, text and LaTeX output all follow it,
which keeps golden files byte-stable.
"""

from __future__ import annotations

import json
from math import prod
from struct import iter_unpack
from typing import Iterable, Iterator, Mapping


def _pack(terms: Mapping[tuple[int, ...], int], lows: list[int],
          bases: list[int]) -> list[tuple[int, int]]:
    """Each term as (key, coeff): key is the mixed-radix integer whose
    digits, most significant first, are exps[i] - lows[i] in base bases[i]."""
    packed = []
    for exps, coeff in terms.items():
        key = 0
        for e, lo, base in zip(exps, lows, bases):
            key = key * base + e - lo
        packed.append((key, coeff))
    return packed


def _unpack(keyed: Iterable[tuple[int, int]], lows: list[int],
            bases: list[int]) -> dict[tuple[int, ...], int]:
    """Inverse of :func:`_pack`: each (key, coeff) as exponent tuple -> coeff."""
    digits = list(zip(lows, bases))[::-1]
    res = {}
    for key, coeff in keyed:
        exps = []
        for lo, base in digits:
            key, d = divmod(key, base)
            exps.append(lo + d)
        res[tuple(exps[::-1])] = coeff
    return res


def _dense_product(pa: list[tuple[int, int]], pb: list[tuple[int, int]],
                   bound: int, size: int) -> Iterator[tuple[int, int]]:
    """The nonzero (key, coeff) of the product of two packed operands, whose
    product keys lie below ``size`` and coefficients within +-``bound``.

    Slot ``key`` of an integer is its nb bytes from byte nb * key on.  Each
    operand becomes the integer with its coefficients in their slots, so the
    product of the two holds the product's coefficients in its slots.  As
    bytes a slot holds its value plus ``half``, which keeps every slot
    nonnegative: an operand's slots are written as c + half and the half
    slots taken off again, and the product's are added before it is read."""
    nb = (bound.bit_length() + 8) // 8  # bound and a sign bit
    half = 1 << (8 * nb - 1)
    zero = half.to_bytes(nb, "little")

    def substituted(packed: list[tuple[int, int]]) -> int:
        count = max(key for key, _ in packed) + 1
        slots = bytearray(zero * count)
        for key, c in packed:
            slots[key * nb:(key + 1) * nb] = (c + half).to_bytes(nb, "little")
        return int.from_bytes(slots, "little") - int.from_bytes(zero * count, "little")

    offset = substituted(pa) * substituted(pb) + int.from_bytes(zero * size, "little")
    slots = iter_unpack(f"{nb}s", offset.to_bytes(size * nb, "little"))
    return ((key, int.from_bytes(slot, "little") - half)
            for key, (slot,) in enumerate(slots) if slot != zero)


class VarTable(tuple):
    """Ordered table of distinct variable names: the tuple of the names.

    The order is fixed at construction and defines the layout of exponent
    tuples in every polynomial built over this table; :meth:`exponents` lays
    a monomial given by name out in it.
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str]):
        # a bare string would be split into its letters, and a name that is
        # no str breaks rendering
        names = names if isinstance(names, str) else tuple(names)
        if isinstance(names, str) or any(type(n) is not str for n in names):
            raise ValueError(f"variable names must be an iterable of strings, got {names!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        return super().__new__(cls, names)

    names = property(tuple, doc="The names as a plain tuple.")

    def index(self, name: str) -> int:
        try:
            return super().index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} (have {self.names!r})") from None

    def exponents(self, exps: Mapping[str, int]) -> tuple[int, ...]:
        """The exponent tuple of prod(name**e) for the name -> e of ``exps``."""
        out = [0] * len(self)
        for name, e in exps.items():
            out[self.index(name)] = e
        return tuple(out)

    def __repr__(self) -> str:
        return f"VarTable({list(self)!r})"


class SparsePoly:
    """Exact sparse polynomial over a fixed :class:`VarTable`.

    ``terms`` is a plain dict without zero coefficients (empty for zero).
    The constructor takes the table as :class:`VarTable` does, checks a
    caller's mapping (``int`` exponents and coefficients, tuples of the
    table's length) and copies it; inside the package results are built by
    :meth:`_owning`, which both use to drop zeros.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: Mapping[tuple[int, ...], int] | None = None):
        vars = VarTable(vars)
        n = len(vars)
        own: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps!r} has length {len(exps)}, expected {n}")
            # products read exponents as integer digits; a bool is an int but no number
            if type(coeff) is not int or any(type(e) is not int for e in exps):
                raise ValueError(f"term {exps!r}: {coeff!r} needs int exponents and coefficient")
            own[exps] = coeff
        self.vars, self.terms = vars, SparsePoly._owning(vars, own).terms

    def __reduce__(self):
        # through the checked constructor, which protocols 0 and 1 need: the
        # class has slots and no __getstate__
        return SparsePoly, (self.vars, self.terms)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _owning(cls, vars: VarTable, terms: dict[tuple[int, ...], int]) -> "SparsePoly":
        """Package-internal: adopt the plain dict ``terms`` of well-formed
        exponent tuples, uncopied; its zero coefficients are deleted in place."""
        for exps in [exps for exps, coeff in terms.items() if not coeff]:
            del terms[exps]
        res = object.__new__(cls)
        res.vars, res.terms = vars, terms
        return res

    @classmethod
    def zero(cls, vars: VarTable) -> "SparsePoly":
        return cls(vars)

    @classmethod
    def constant(cls, vars: VarTable, value: int) -> "SparsePoly":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def one(cls, vars: VarTable) -> "SparsePoly":
        return cls.constant(vars, 1)

    @classmethod
    def monomial(cls, vars: Iterable[str], exps: Mapping[str, int],
                 coeff: int = 1) -> "SparsePoly":
        """Build coeff * prod(var**e) from a name -> exponent mapping."""
        vars = VarTable(vars)
        return cls(vars, {vars.exponents(exps): coeff})

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other: "SparsePoly | int") -> "SparsePoly":
        if type(other) is int:
            return SparsePoly.constant(self.vars, other)
        if not isinstance(other, SparsePoly):
            raise TypeError(f"cannot combine SparsePoly with {type(other).__name__}")
        if other.vars != self.vars:
            raise ValueError(f"variable table mismatch: {self.vars!r} vs {other.vars!r}")
        return other

    def __add__(self, other: "SparsePoly | int") -> "SparsePoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return SparsePoly._owning(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._owning(self.vars, {exps: -coeff for exps, coeff in self.terms.items()})

    def __sub__(self, other: "SparsePoly | int") -> "SparsePoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "SparsePoly":
        return -self + other

    def __mul__(self, other: "SparsePoly | int") -> "SparsePoly":
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if not (a and b):
            return SparsePoly._owning(self.vars, {})
        if len(a) > len(b):
            a, b = b, a
        # per variable: (min, max) exponent in a, then in b
        cols = [(min(x), max(x), min(y), max(y)) for x, y in zip(zip(*a), zip(*b))]
        bases = [ha + hb - la - lb + 1 for la, ha, lb, hb in cols]
        pa = _pack(a, [c[0] for c in cols], bases)
        pb = _pack(b, [c[2] for c in cols], bases)
        size = prod(bases)
        if size <= len(a) * len(b):
            bound = len(a) * max(map(abs, a.values())) * max(map(abs, b.values()))
            keyed = _dense_product(pa, pb, bound, size)
        else:
            out: dict[int, int] = {}
            get = out.get
            for ka, ca in pa:
                for kb, cb in pb:
                    key = ka + kb
                    out[key] = get(key, 0) + ca * cb
            keyed = out.items()
        lows = [la + lb for la, _, lb, _ in cols]
        return SparsePoly._owning(self.vars, _unpack(keyed, lows, bases))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SparsePoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if type(other) is int:  # as in arithmetic; a bool is no number here
            other = SparsePoly.constant(self.vars, other)
        return (isinstance(other, SparsePoly)
                and self.vars == other.vars
                and self.terms == other.terms)

    __hash__ = None  # mutable term dict

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # structural operations

    def swap_vars(self, u: str, v: str) -> "SparsePoly":
        """Exchange the exponents of u and v in every term."""
        iu, iv = self.vars.index(u), self.vars.index(v)
        out = {}
        for exps, coeff in self.terms.items():
            e = list(exps)
            e[iu], e[iv] = e[iv], e[iu]
            out[tuple(e)] = coeff
        return SparsePoly._owning(self.vars, out)

    def is_symmetric(self, u: str, v: str) -> bool:
        """True iff the polynomial is invariant under exchanging u and v."""
        return self.swap_vars(u, v) == self

    def coeff(self, partial: Mapping[str, int]) -> "SparsePoly":
        """Coefficient of a partial monomial.

        ``partial`` maps a subset of the variables to exponents; the result
        is the polynomial, over the remaining variables, that multiplies the
        specified monomial.
        """
        if any(type(e) is not int for e in partial.values()):
            raise ValueError(f"coeff needs int exponents, got {dict(partial)!r}")
        pinned = {self.vars.index(name): e for name, e in partial.items()}
        return SparsePoly._owning(self.vars, {
            exps: coeff for exps, coeff in self.terms.items()
            if all(exps[i] == e for i, e in pinned.items())}).eval_ones(partial)

    def eval_ones(self, names: Iterable[str]) -> "SparsePoly":
        """Substitute 1 for each named variable; result is over the rest."""
        if isinstance(names, str):  # else read as one-letter names
            raise ValueError(f"variable names must be an iterable of strings, got {names!r}")
        drop = {self.vars.index(name) for name in names}
        keep = [i for i in range(len(self.vars)) if i not in drop]
        out_vars = VarTable(self.vars[i] for i in keep)
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            key = tuple(exps[i] for i in keep)
            out[key] = out.get(key, 0) + coeff
        return SparsePoly._owning(out_vars, out)

    def constant_value(self) -> int:
        """Coefficient of the all-zero monomial."""
        return self.terms.get((0,) * len(self.vars), 0)

    def max_degree(self, name: str) -> int:
        """Largest exponent of a variable (0 for the zero polynomial)."""
        i = self.vars.index(name)
        return max((exps[i] for exps in self.terms), default=0)

    # ------------------------------------------------------------------
    # serialization and display

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical order: descending lex on exponent tuples."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"exps": list(exps), "coeff": coeff}
                      for exps, coeff in self.sorted_terms()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SparsePoly":
        if not isinstance(doc, Mapping):
            raise ValueError(f"JSON polynomial must be an object, got {doc!r}")
        names = doc.get("vars")
        if not (isinstance(names, (list, tuple)) and all(type(n) is str for n in names)):
            raise ValueError(f'JSON "vars" must be a list of strings, got {names!r}')
        items = doc.get("terms")
        if not isinstance(items, (list, tuple)):
            raise ValueError(f'JSON "terms" must be a list, got {items!r}')
        vars = VarTable(names)
        terms: dict[tuple[int, ...], int] = {}
        for item in items:
            if not (isinstance(item, Mapping) and "exps" in item and "coeff" in item):
                raise ValueError(f"JSON term {item!r} must be an object with exps and coeff")
            exps, coeff = item["exps"], item["coeff"]
            # int() would truncate 1.5 and accept true or "7"
            if not (isinstance(exps, (list, tuple)) and type(coeff) is int
                    and all(type(e) is int for e in exps)):
                raise ValueError(f"JSON term {item!r} needs integer exps and coeff")
            exps = tuple(exps)
            if exps in terms:
                raise ValueError(f"duplicate exponent tuple {exps!r} in JSON terms")
            terms[exps] = coeff
        return cls(vars, terms)

    @classmethod
    def from_json(cls, text: str) -> "SparsePoly":
        return cls.from_json_dict(json.loads(text))

    def _render(self, power: str, times: str, name_of) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [f"{name_of(n)}{power.format(e)}" if e != 1 else name_of(n)
                       for n, e in zip(self.vars, exps) if e != 0]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = times.join(factors)
            else:
                body = times.join([str(mag)] + factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        first = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([first] + parts[1:])

    def text(self) -> str:
        return self._render("^{0}", "*", lambda n: n)

    def latex(self) -> str:
        def name_of(n: str) -> str:
            base = n.rstrip("0123456789")
            return f"{base}_{{{n[len(base):]}}}" if base != n else n
        return self._render("^{{{0}}}", " ", name_of)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"SparsePoly({self.text()!r})"
