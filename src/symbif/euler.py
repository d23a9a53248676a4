"""Exact arithmetic in the Euler ring of the circle group.

Elements are integer combinations of the unit class ``I`` (the class of the
full group) and the classes ``chi[k]`` of the finite cyclic subgroups ``Z_k``,
``k >= 1``.  Addition is coordinatewise.  The product is determined by

    I * x = x,        chi[j] * chi[k] = 0,

so ``(u_a; c_a) * (u_b; c_b) = (u_a*u_b; u_a*c_b + u_b*c_a)``: orbits of the
finite cyclic classes are positive dimensional circles whose products carry no
cells of nonzero Euler characteristic.  An element is invertible exactly when
its unit coefficient is +1 or -1, and then ``(u; c)^-1 = (u; -c)``.

Because the cyclic part squares to zero, powers have a closed form and cost
one element however large the exponent:

    (u; c)^n = (u^n; n * u^(n-1) * c)         for n >= 0,

and a negative power is the power of the inverse, which exists only when
u = +-1 (any other unit coefficient raises NotInvertible).

The module also provides the closed-form degree of ``-Id`` on a ball of an
orthogonal SO(2)-representation, the basic invariant behind every bifurcation
certificate emitted by this package:

    deg(-Id, B(V)) = (-1)^t * prod_k (I - chi[k])^{m_k} = (-1)^t * (I - sum_k m_k chi[k])

for ``V`` with trivial summand of dimension ``t`` and ``m_k`` copies of the
two-dimensional rotation representation with rotation number ``k``; it is
evaluated from the right-hand side, one element per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import NotInvertible, SchemaError, ValidationError

__all__ = ["EulerSO2", "SO2Rep", "deg_minus_id", "rep_equiv_mod_even_trivial"]


def _pruned(coeffs: Mapping[int, int], what: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, v in coeffs.items():
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValidationError(f"{what}: key {k!r} must be an integer >= 1")
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{what}: value {v!r} for key {k} must be an integer")
        if v != 0:
            out[k] = v
    return out


@dataclass(eq=False)
class EulerSO2:
    """Element of the Euler ring of SO(2), in zero-pruned canonical form.

    ``unit`` is the coefficient of the class of the full group; ``cyclic``
    maps ``k`` to the coefficient of the class of ``Z_k`` and never stores
    explicit zeros, so structural equality is semantic equality.  Coefficients
    are arbitrary-size integers.  Instances are treated as immutable values.
    """

    unit: int = 0
    cyclic: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.unit, int) or isinstance(self.unit, bool):
            raise ValidationError(f"unit coefficient must be an integer, got {self.unit!r}")
        self.cyclic = _pruned(self.cyclic, "cyclic coefficients")

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "EulerSO2":
        """The ring unit I."""
        return cls(1)

    @classmethod
    def zero(cls) -> "EulerSO2":
        """The additive zero."""
        return cls(0)

    @classmethod
    def chi(cls, k: int, coeff: int = 1) -> "EulerSO2":
        """``coeff`` times the basis class of the cyclic subgroup ``Z_k``."""
        return cls(0, {k: coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "EulerSO2") -> "EulerSO2":
        if not isinstance(other, EulerSO2):
            return NotImplemented
        coeffs = dict(self.cyclic)
        for k, v in other.cyclic.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return EulerSO2(self.unit + other.unit, coeffs)

    def __neg__(self) -> "EulerSO2":
        return EulerSO2(-self.unit, {k: -v for k, v in self.cyclic.items()})

    def __sub__(self, other: "EulerSO2") -> "EulerSO2":
        if not isinstance(other, EulerSO2):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, EulerSO2):
            coeffs: dict[int, int] = {}
            for k, v in other.cyclic.items():
                coeffs[k] = coeffs.get(k, 0) + self.unit * v
            for k, v in self.cyclic.items():
                coeffs[k] = coeffs.get(k, 0) + other.unit * v
            return EulerSO2(self.unit * other.unit, coeffs)
        if isinstance(other, int) and not isinstance(other, bool):
            # Z-module scaling
            return EulerSO2(other * self.unit, {k: other * v for k, v in self.cyclic.items()})
        return NotImplemented

    __rmul__ = __mul__

    def invert(self) -> "EulerSO2":
        """Multiplicative inverse; exists iff the unit coefficient is +-1."""
        if self.unit not in (1, -1):
            raise NotInvertible(
                f"unit coefficient {self.unit} is not +-1; element has no inverse"
            )
        return EulerSO2(self.unit, {k: -v for k, v in self.cyclic.items()})

    def __pow__(self, n: int) -> "EulerSO2":
        """Closed form ``(u; c)^n = (u^n; n u^(n-1) c)``; n < 0 inverts first."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValidationError(f"exponent must be an integer, got {n!r}")
        if n < 0:
            return self.invert() ** -n
        if n == 0:
            return EulerSO2.one()
        u = self.unit
        factor = n * u ** (n - 1)
        return EulerSO2(u**n, {k: factor * v for k, v in self.cyclic.items()})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0 and not self.cyclic

    def coefficient(self, k: int | None = None) -> int:
        """Coefficient of ``Z_k``, or of the unit class when ``k`` is None."""
        if k is None:
            return self.unit
        return self.cyclic.get(k, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EulerSO2):
            return NotImplemented
        return self.unit == other.unit and self.cyclic == other.cyclic

    def __hash__(self) -> int:
        return hash((self.unit, tuple(sorted(self.cyclic.items()))))

    def __str__(self) -> str:
        parts = []
        if self.unit:
            parts.append(f"{self.unit}*I" if self.unit != 1 else "I")
        for k in sorted(self.cyclic):
            v = self.cyclic[k]
            parts.append(f"{v:+d}*chi[{k}]" if parts else f"{v}*chi[{k}]")
        return " ".join(parts) if parts else "0"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Stable schema: ``{"unit": int, "cyclic": {"k": int, ...}}``."""
        return {"unit": self.unit, "cyclic": {str(k): v for k, v in sorted(self.cyclic.items())}}

    @classmethod
    def from_json(cls, doc) -> "EulerSO2":
        if not isinstance(doc, dict) or set(doc) - {"unit", "cyclic"}:
            raise SchemaError(f"EulerSO2 document must be {{unit, cyclic}}, got {doc!r}")
        try:
            cyclic = {int(k): v for k, v in dict(doc.get("cyclic", {})).items()}
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad cyclic coefficient table: {exc}") from exc
        return cls(doc.get("unit", 0), cyclic)


@dataclass(eq=True)
class SO2Rep:
    """Orthogonal SO(2)-representation: trivial summand plus rotation parts.

    ``rotation_mults`` maps the rotation number ``k >= 1`` to the real
    multiplicity of the two-dimensional irreducible on which SO(2) acts by
    k-fold rotations; total real dimension is ``trivial_dim + 2*sum(mults)``.
    """

    trivial_dim: int = 0
    rotation_mults: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.trivial_dim, int) or self.trivial_dim < 0:
            raise ValidationError(f"trivial_dim must be a nonnegative integer, got {self.trivial_dim!r}")
        mults = _pruned(self.rotation_mults, "rotation multiplicities")
        for k, m in mults.items():
            if m < 0:
                raise ValidationError(f"rotation {k} has negative multiplicity {m}")
        self.rotation_mults = mults

    @property
    def dim(self) -> int:
        return self.trivial_dim + 2 * sum(self.rotation_mults.values())

    def is_zero(self) -> bool:
        return self.trivial_dim == 0 and not self.rotation_mults

    def direct_sum(self, other: "SO2Rep") -> "SO2Rep":
        mults = dict(self.rotation_mults)
        for k, m in other.rotation_mults.items():
            mults[k] = mults.get(k, 0) + m
        return SO2Rep(self.trivial_dim + other.trivial_dim, mults)

    __add__ = direct_sum

    def rotations(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.rotation_mults.items()))

    def to_json(self) -> dict:
        """Stable schema: ``{"trivial": int, "rot": {"k": mult, ...}}``."""
        return {
            "trivial": self.trivial_dim,
            "rot": {str(k): m for k, m in sorted(self.rotation_mults.items())},
        }

    @classmethod
    def from_json(cls, doc) -> "SO2Rep":
        if not isinstance(doc, dict) or set(doc) - {"trivial", "rot"}:
            raise SchemaError(f"SO2Rep document must be {{trivial, rot}}, got {doc!r}")
        try:
            rot = {int(k): m for k, m in dict(doc.get("rot", {})).items()}
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad rotation multiplicity table: {exc}") from exc
        return cls(doc.get("trivial", 0), rot)


def deg_minus_id(rep: SO2Rep) -> EulerSO2:
    """Degree of ``-Id`` on the unit ball of ``rep``.

    Product of the base cases: ``(-1)^t`` for the trivial summand and
    ``I - chi[k]`` for each copy of the rotation-k irreducible.  Expanding by
    the ring rules gives ``(-1)^t * (I - sum_k m_k chi[k])``, which is what is
    evaluated.
    """
    sign = -1 if rep.trivial_dim % 2 else 1
    return EulerSO2(sign, {k: -sign * m for k, m in rep.rotation_mults.items()})


def rep_equiv_mod_even_trivial(v: SO2Rep, w: SO2Rep) -> bool:
    """Whether ``v + R^{2m}`` and ``w + R^{2n}`` coincide for some m, n.

    Equivalent to: identical rotation parts and trivial dimensions of equal
    parity.  This is exactly the fiber of ``deg_minus_id``: two
    representations have equal degree of ``-Id`` iff they are equivalent
    modulo even-dimensional trivial summands.
    """
    return (
        v.rotation_mults == w.rotation_mults
        and v.trivial_dim % 2 == w.trivial_dim % 2
    )
