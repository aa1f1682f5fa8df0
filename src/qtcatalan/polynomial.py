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
keys adds exponent vectors without carry: the term-pair loop does one
integer addition per pair, and each product key is decoded once with
``divmod``.  Python integers are unbounded, so this is exact for any
exponent range, negative exponents included.

Canonical term order is *descending* lexicographic on exponent tuples
(leading term first).  Serialization, text and LaTeX output all follow it,
which keeps golden files byte-stable.
"""

from __future__ import annotations

import json
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


class VarTable:
    """Ordered table of distinct variable names.

    The order is fixed at construction and defines the layout of exponent
    tuples in every polynomial built over this table.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r} (have {self.names!r})") from None

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)!r})"


class SparsePoly:
    """Exact sparse polynomial over a fixed :class:`VarTable`.

    ``terms`` is a plain dict without zero coefficients (empty for zero).
    The constructor checks a caller's mapping (``int`` exponents and
    coefficients, tuples of the table's length) and copies it; inside the
    package results are built by :meth:`_owning`, which both use to drop zeros.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarTable, terms: Mapping[tuple[int, ...], int] | None = None):
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
    def monomial(cls, vars: VarTable, exps: Mapping[str, int], coeff: int = 1) -> "SparsePoly":
        """Build coeff * prod(var**e) from a name -> exponent mapping."""
        tup = [0] * len(vars)
        for name, e in exps.items():
            tup[vars.index(name)] = e
        return cls(vars, {tuple(tup): coeff})

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
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in pa:
            for kb, cb in pb:
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        digits = [(la + lb, base) for (la, _, lb, _), base in zip(cols, bases)][::-1]
        res: dict[tuple[int, ...], int] = {}
        for key, coeff in out.items():
            exps = []
            for lo, base in digits:
                key, d = divmod(key, base)
                exps.append(lo + d)
            res[tuple(exps[::-1])] = coeff
        return SparsePoly._owning(self.vars, res)

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
        pinned = {self.vars.index(name): e for name, e in partial.items()}
        keep = [i for i in range(len(self.vars)) if i not in pinned]
        out_vars = VarTable(self.vars.names[i] for i in keep)
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            if all(exps[i] == e for i, e in pinned.items()):
                out[tuple(exps[i] for i in keep)] = coeff
        return SparsePoly._owning(out_vars, out)

    def eval_ones(self, names: Iterable[str]) -> "SparsePoly":
        """Substitute 1 for each named variable; result is over the rest."""
        drop = {self.vars.index(name) for name in names}
        keep = [i for i in range(len(self.vars)) if i not in drop]
        out_vars = VarTable(self.vars.names[i] for i in keep)
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
            "vars": list(self.vars.names),
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
        # VarTable would split a bare string such as "qt" into its letters
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
                       for n, e in zip(self.vars.names, exps) if e != 0]
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
