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

:class:`SO2Rep` is the package's one representation class, exported
under that one name: spectral entries, kernel pieces and degrees all use it.
Its document is ``{"trivial": t, "irr": {"k": m, ...}}``; ``"rot"`` is read
in place of ``"irr"`` but never written.

Public construction (constructors, ``one``, ``zero``, ``chi``, ``trivial``,
``irr``, ``from_json``) checks its input; ring and representation operations
build results from checked values through ``_make``, which only drops zeros.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import (
    NotInvertible, SchemaError, ValidationError, _int, _is_int, _known_keys, _label_table, _Record, _show
)

__all__ = ["EulerSO2", "SO2Rep", "deg_minus_id", "rep_equiv_mod_even_trivial"]


def _pruned(coeffs: Mapping[int, int], label: str, value: str, least: int | None = None) -> dict[int, int]:
    """Checked copy without zeros of a mapping: integer labels >= 1 and integer values >= ``least``."""
    if not isinstance(coeffs, Mapping):
        raise ValidationError(f"{value} table must be a mapping of {label} to {value}, got {_show(coeffs)}")
    out: dict[int, int] = {}
    for k, v in coeffs.items():
        _int(k, label, 1)
        if _int(v, value, least) != 0:
            out[k] = v
    return out


class EulerSO2(_Record):
    """Element of the Euler ring of SO(2), in zero-pruned canonical form.

    ``unit`` is the coefficient of the class of the full group; ``cyclic``
    maps ``k`` to the coefficient of the class of ``Z_k`` and never stores
    explicit zeros, so structural equality is semantic equality.  Coefficients
    are arbitrary-size integers.  Instances are treated as immutable values.
    """

    _fields = ("unit", "cyclic")

    def __init__(self, unit: int = 0, cyclic: dict[int, int] | None = None) -> None:
        self.unit = unit
        self.cyclic = {} if cyclic is None else cyclic
        self.__post_init__()

    def __post_init__(self) -> None:
        _int(self.unit, "unit coefficient")
        self.cyclic = _pruned(self.cyclic, "cyclic class label", "cyclic coefficient")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, unit: int, cyclic: Mapping[int, int]) -> "EulerSO2":
        """Element from coefficients already checked; drops the zeros and checks nothing."""
        x = object.__new__(cls)
        x.unit, x.cyclic = unit, {k: v for k, v in cyclic.items() if v}
        return x

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
        return EulerSO2._make(self.unit + other.unit, coeffs)

    def __neg__(self) -> "EulerSO2":
        return EulerSO2._make(-self.unit, {k: -v for k, v in self.cyclic.items()})

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
            return EulerSO2._make(self.unit * other.unit, coeffs)
        if _is_int(other):
            # Z-module scaling
            return EulerSO2._make(other * self.unit, {k: other * v for k, v in self.cyclic.items()})
        return NotImplemented

    __rmul__ = __mul__

    def invert(self) -> "EulerSO2":
        """Multiplicative inverse; exists iff the unit coefficient is +-1."""
        if self.unit not in (1, -1):
            raise NotInvertible(
                f"unit coefficient {_show(self.unit)} is not +-1; element has no inverse"
            )
        return EulerSO2._make(self.unit, {k: -v for k, v in self.cyclic.items()})

    def __pow__(self, n: int) -> "EulerSO2":
        """Closed form ``(u; c)^n = (u^n; n u^(n-1) c)``; n < 0 inverts first."""
        if _int(n, "exponent") < 0:
            return self.invert() ** -n
        if n == 0:
            return EulerSO2.one()
        u = self.unit
        factor = n * u ** (n - 1)
        return EulerSO2._make(u**n, {k: factor * v for k, v in self.cyclic.items()})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0 and not self.cyclic

    def coefficient(self, k: int | None = None) -> int:
        """Coefficient of ``Z_k``, or of the unit class when ``k`` is None."""
        if k is None:
            return self.unit
        return self.cyclic.get(k, 0)

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
            raise SchemaError(f"EulerSO2 document must be {{unit, cyclic}}, got {_show(doc)}")
        return cls(doc.get("unit", 0), _label_table(doc.get("cyclic", {}), "cyclic coefficient table"))


class SO2Rep(_Record):
    """Orthogonal representation: a trivial summand plus nontrivial irreducibles.

    ``irreducibles`` maps a label ``k >= 1`` to the multiplicity of a
    nontrivial irreducible.  On the disk the label is the rotation number of
    the two-dimensional irreducible on which SO(2) acts by k-fold rotations,
    which is how :func:`deg_minus_id` reads it; for the N-ball it is the
    spherical-harmonic degree, and a custom domain names its own labels.
    Zero multiplicities are pruned, so equality is equality of contents.
    """

    _fields = ("trivial_dim", "irreducibles")

    def __init__(self, trivial_dim: int = 0, irreducibles: dict[int, int] | None = None) -> None:
        self.trivial_dim = trivial_dim
        self.irreducibles = {} if irreducibles is None else irreducibles
        self.__post_init__()

    def __post_init__(self) -> None:
        _int(self.trivial_dim, "trivial_dim", 0)
        self.irreducibles = _pruned(self.irreducibles, "irreducible label", "irreducible multiplicity", 0)

    @classmethod
    def _make(cls, trivial_dim: int, irreducibles: Mapping[int, int]) -> "SO2Rep":
        """Representation from parts already checked; drops zero multiplicities and checks nothing."""
        rep = object.__new__(cls)
        rep.trivial_dim, rep.irreducibles = trivial_dim, {k: m for k, m in irreducibles.items() if m}
        return rep

    @classmethod
    def zero(cls) -> "SO2Rep":
        return cls(0, {})

    @classmethod
    def trivial(cls, dim: int) -> "SO2Rep":
        return cls(dim, {})

    @classmethod
    def irr(cls, label: int, mult: int = 1) -> "SO2Rep":
        return cls(0, {label: mult})

    def is_zero(self) -> bool:
        return self.trivial_dim == 0 and not self.irreducibles

    def has_nontrivial(self) -> bool:
        return bool(self.irreducibles)

    def direct_sum(self, other: "SO2Rep") -> "SO2Rep":
        irr = dict(self.irreducibles)
        for k, m in other.irreducibles.items():
            irr[k] = irr.get(k, 0) + m
        return SO2Rep._make(self.trivial_dim + other.trivial_dim, irr)

    __add__ = direct_sum

    def total_dim(self, irr_dims: Mapping[int, int] | None = None) -> int:
        """Real dimension; labels missing from ``irr_dims`` have dimension 2 (disk)."""
        dim = self.trivial_dim
        for k, m in self.irreducibles.items():
            per = 2 if irr_dims is None else irr_dims.get(k, 2)
            dim += per * m
        return dim

    def describe(self) -> str:
        parts = []
        if self.trivial_dim:
            parts.append(f"{self.trivial_dim}*triv")
        for k in sorted(self.irreducibles):
            parts.append(f"{self.irreducibles[k]}*irr({k})")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        """Stable schema: ``{"trivial": int, "irr": {"k": mult, ...}}``."""
        return {"trivial": self.trivial_dim, "irr": {str(k): m for k, m in sorted(self.irreducibles.items())}}

    @classmethod
    def from_json(cls, doc) -> "SO2Rep":
        """Read ``{"trivial", "irr"}``; ``"rot"`` is accepted in place of ``"irr"``, not beside it."""
        if not isinstance(doc, dict):
            raise SchemaError(f"representation must be an object, got {_show(doc)}")
        _known_keys(doc, {"trivial", "irr", "rot"}, "representation")
        if "irr" in doc and "rot" in doc:
            raise SchemaError("representation carries both 'irr' and 'rot'")
        irr = _label_table(doc.get("irr", doc.get("rot", {})), "irreducible table")
        trivial = _int(doc.get("trivial", 0), "trivial dimension", 0, SchemaError, ValidationError)
        return cls._make(trivial, _pruned(irr, "irreducible label", "irreducible multiplicity", 0))


def deg_minus_id(rep: SO2Rep) -> EulerSO2:
    """Degree of ``-Id`` on the unit ball of ``rep``.

    Product of the base cases: ``(-1)^t`` for the trivial summand and
    ``I - chi[k]`` for each copy of the rotation-k irreducible.  Expanding by
    the ring rules gives ``(-1)^t * (I - sum_k m_k chi[k])``, which is what is
    evaluated.
    """
    sign = -1 if rep.trivial_dim % 2 else 1
    return EulerSO2._make(sign, {k: -sign * m for k, m in rep.irreducibles.items()})


def rep_equiv_mod_even_trivial(v: SO2Rep, w: SO2Rep) -> bool:
    """Whether ``v + R^{2m}`` and ``w + R^{2n}`` coincide for some m, n.

    Equivalent to: identical rotation parts and trivial dimensions of equal
    parity.  This is exactly the fiber of ``deg_minus_id``: two
    representations have equal degree of ``-Id`` iff they are equivalent
    modulo even-dimensional trivial summands.
    """
    return (
        v.irreducibles == w.irreducibles
        and v.trivial_dim % 2 == w.trivial_dim % 2
    )
