"""Catalog of quaternionic test functions.

Every member evaluates through a single generic body that runs over either
algebra: plain Quaternions for point evaluation, QJets for derivative
propagation.  Points are just order-0 jets conceptually, but the point path
stays independent so the two can cross-check each other.

Inventory: integer powers p^n (negative n through the quaternionic
inverse), finite power series and Laurent sums with right coefficients,
the unit imaginary direction iota, the three arctan/arctanh pairs

    arctan(x/y) + iota*arctanh(z/r)     and its cyclic relabelings,

plus two deliberately non-regular controls (conj, a bare coordinate).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import jets as jm
from .errors import BadParams, DomainError, UnknownFunction
from .jets import QJet, RJet
from .quaternion import Quaternion, SampleDomain, UNRESTRICTED, check_off_axis

_ATANH_MARGIN = 1.0 - 1e-6


# -- algebra-generic helpers ----------------------------------------------

def _real_elem(p, w):
    """Lift a real-valued scalar (array or RJet) into the algebra of p,
    with the algebra's structural zero for the imaginary parts."""
    zero = p._zero()
    if isinstance(p, QJet):
        return QJet(w, zero, zero, zero)
    return Quaternion(np.asarray(w, dtype=float), zero, zero, zero)


def _values(a):
    return a.value if isinstance(a, RJet) else np.asarray(a)


def _ipow(p, n: int):
    if n == 0:
        return _real_elem(p, p.t * 0.0 + 1.0)
    base = p if n > 0 else p.inverse()
    out = base
    for _ in range(abs(n) - 1):
        out = out * base
    return out


def iota_of(p):
    """iota = (x i + y j + z k)/r in the algebra of p: a Quaternion for a
    point, a QJet for a jet, its real part the algebra's structural zero;
    refused on the real axis (OnRealAxis)."""
    x, y, z = p.x, p.y, p.z
    r2 = x * x + y * y + z * z
    check_off_axis(np.sqrt(_values(r2)), _values(p.t))
    s = jm.recip(jm.sqrt(r2))
    return type(p)(p._zero(), x * s, y * s, z * s)


# -- bodies ----------------------------------------------------------------

def _power_body(n: int):
    def body(p):
        return _ipow(p, n)
    return body


def _series_body(coeffs):
    def body(p):
        # Right-Horner: a0 + p*(a1 + p*(a2 + ...)) keeps every
        # coefficient on the right of its power of p.
        out = p._coerce(coeffs[-1])
        for a in reversed(coeffs[:-1]):
            out = p._coerce(a) + p * out
        return out
    return body


def _laurent_body(terms):
    def body(p):
        out = None
        for deg, a in terms:
            piece = _ipow(p, deg) * p._coerce(a)
            out = piece if out is None else out + piece
        return out
    return body


def _arctan_body(k: int):
    def body(p):
        comps = (p.x, p.y, p.z)
        num = comps[(k - 1) % 3]
        den = comps[k % 3]
        axial = comps[(k + 1) % 3]
        r = jm.sqrt(num * num + den * den + axial * axial)
        if np.any(np.abs(_values(axial)) > _ATANH_MARGIN * _values(r)):
            raise DomainError(
                "arctanh argument outside the 1 - 1e-6 safety margin")
        w = jm.atan(num * jm.recip(den))
        v = jm.atanh(axial * jm.recip(r))
        # iota scaled by the real v: a Hamilton product with v lifted
        # into the algebra would multiply 12 zero pairs.
        return _real_elem(p, w) + iota_of(p) * v
    return body


def _conj_body(p):
    return p.conjugate()


def _coord_body(which: str):
    def body(p):
        return _real_elem(p, getattr(p, which) * 1.0)
    return body


# -- the catalog entry -----------------------------------------------------

@dataclass(frozen=True)
class QFunction:
    """A catalog member: id, generic evaluator, domain and one claim,
    expected_regular; the other expectations follow from it."""

    fid: str
    body: object
    domain: SampleDomain = field(default_factory=lambda: UNRESTRICTED)
    expected_regular: bool = True

    @property
    def expected_hyperholomorphic(self) -> bool:
        return self.expected_regular

    @property
    def control(self) -> bool:
        return not self.expected_regular

    def eval_point(self, p: Quaternion) -> Quaternion:
        return self.body(p)

    def eval_jet(self, g: QJet) -> QJet:
        return self.body(g)


def product(f: QFunction, g: QFunction) -> QFunction:
    """Pointwise product f*g, expected neither regular nor
    hyperholomorphic."""
    return QFunction(fid=f"({f.fid})*({g.fid})",
                     body=lambda p: f.body(p) * g.body(p),
                     domain=f.domain.merge(g.domain), expected_regular=False)


def iota_times(f: QFunction) -> QFunction:
    """iota*f; Cullen-regular exactly when f is, off the real axis."""
    return QFunction(fid=f"iota*({f.fid})",
                     body=lambda p: iota_of(p) * f.body(p),
                     domain=f.domain, expected_regular=f.expected_regular)


def inv_r2(p):
    """1/r^2, r the imaginary radius, in the algebra of p."""
    return jm.recip(p.x * p.x + p.y * p.y + p.z * p.z)


def over_r2(f: QFunction) -> QFunction:
    """f divided by the squared imaginary radius (for item-4 checks)."""
    return QFunction(fid=f"({f.fid})/r^2",
                     body=lambda p: f.body(p) * inv_r2(p), domain=f.domain,
                     expected_regular=False)


# -- quaternion literals ---------------------------------------------------

_TERM = re.compile(r"(?P<sign>[+-])?"
                   r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)?"
                   r"(?P<unit>[ijk])?")


def parse_quaternion_literal(text: str) -> Quaternion:
    """Parse strings like '1', '-i', '0.5j', '1+2i-0.5k' into a constant."""
    s = text.strip().replace(" ", "")
    if not s:
        raise BadParams("empty quaternion literal")
    comps = {"": 0.0, "i": 0.0, "j": 0.0, "k": 0.0}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == pos or (m.group("num") is None
                                           and m.group("unit") is None):
            raise BadParams(f"cannot parse quaternion literal {text!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        mag = float(m.group("num")) if m.group("num") is not None else 1.0
        comps[m.group("unit") or ""] += sign * mag
        pos = m.end()
    return Quaternion(comps[""], comps["i"], comps["j"], comps["k"])


def _format_const(q: Quaternion) -> str:
    """q as a literal that parses back to q exactly: each component in %g
    where that is exact, else in its shortest round-trip form."""
    parts = []
    for val, unit in zip((q.t, q.x, q.y, q.z), ("", "i", "j", "k")):
        v = float(val)
        if v == 0.0:
            continue
        text = f"{v:+g}"
        parts.append((text if float(text) == v else f"{v:+}") + unit)
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


# -- sampling exclusions for the arctan members ----------------------------

def _cut_exclusion(den_coord: str, axial_coord: str):
    def pred(q: Quaternion):
        r = q.imag_norm()
        near_cut = np.abs(getattr(q, den_coord)) < 0.05
        steep = np.abs(getattr(q, axial_coord)) > 0.95 * r
        return near_cut | steep
    return pred


_ARCTAN_COORDS = {1: ("x", "y", "z"), 2: ("y", "z", "x"), 3: ("z", "x", "y")}


# -- construction ----------------------------------------------------------

def _parse_int(text, what):
    try:
        return int(text)
    except (TypeError, ValueError):
        raise BadParams(f"{what} must be an integer, got {text!r}") from None


def _coerce_coeffs(text):
    """The coefficients of a series id's text, '1,1i,0.5j'; at least one."""
    toks = [tk for tk in (text or "").split(",") if tk.strip()]
    if not toks:
        raise BadParams("series needs at least one coefficient")
    return tuple(parse_quaternion_literal(tk) for tk in toks)


def _coerce_laurent(text):
    """The (degree, coefficient) terms of a laurent id's text, '-2=k,1=i';
    a bare degree '-1' has coefficient 1.  At least one term."""
    terms = []
    for tk in (text or "").split(","):
        tk = tk.strip()
        if not tk:
            continue
        d, c = tk.split("=", 1) if "=" in tk else (tk, "1")
        terms.append((_parse_int(d, "laurent degree"),
                      parse_quaternion_literal(c)))
    if not terms:
        raise BadParams("laurent needs at least one term")
    return tuple(terms)


_SHELL = SampleDomain(t_range=(-np.inf, np.inf), r_range=(1e-300, np.inf),
                      s_min=1e-300, p_norm_range=(0.2, np.inf))


def catalog_get(name: str, params: str | None = None) -> QFunction:
    """Build a catalog member from the parts of its id: the name and the
    text after the colon, or None for an id without one."""
    name = name.strip()
    if params is not None and not isinstance(params, str):
        raise BadParams(f"{name} parameters must be id text, got {params!r}")
    if name == "power":
        n = _parse_int(params, "power exponent")
        dom = UNRESTRICTED if n >= 0 else _SHELL
        return QFunction(f"power:{n}", _power_body(n), dom)
    if name == "series":
        coeffs = _coerce_coeffs(params)
        fid = "series:" + ",".join(_format_const(a) for a in coeffs)
        return QFunction(fid, _series_body(coeffs), UNRESTRICTED)
    if name == "laurent":
        terms = _coerce_laurent(params)
        fid = "laurent:" + ",".join(f"{d}={_format_const(c)}"
                                    for d, c in terms)
        return QFunction(fid, _laurent_body(terms), _SHELL)
    if name == "iota":
        if params is not None:
            raise BadParams("iota takes no parameters")
        return QFunction("iota", iota_of, UNRESTRICTED)
    if name == "arctan_ex":
        k = _parse_int(params, "arctan_ex index")
        if k not in (1, 2, 3):
            raise BadParams("arctan_ex index must be 1, 2 or 3")
        _, den, axial = _ARCTAN_COORDS[k]
        dom = SampleDomain(
            t_range=(-np.inf, np.inf), r_range=(1e-300, np.inf),
            s_min=1e-300,
            exclusions=((f"{den}-cut/{axial}-margin",
                         _cut_exclusion(den, axial)),))
        return QFunction(f"arctan_ex:{k}", _arctan_body(k), dom)
    if name == "conj":
        if params is not None:
            raise BadParams("conj takes no parameters")
        return QFunction("conj", _conj_body, UNRESTRICTED,
                         expected_regular=False)
    if name == "coord":
        which = (params or "").strip()
        if which not in ("t", "x", "y", "z"):
            raise BadParams("coord needs one of t, x, y, z")
        return QFunction(f"coord:{which}", _coord_body(which), UNRESTRICTED,
                         expected_regular=False)
    raise UnknownFunction(f"no catalog member named {name!r}")


def from_string(spec: str) -> QFunction:
    """Resolve CLI-style ids: 'power:3', 'laurent:-2=k', 'series:1,i,0.5j'."""
    spec = spec.strip()
    if ":" in spec:
        name, params = spec.split(":", 1)
        return catalog_get(name, params)
    return catalog_get(spec, None)


def split_ids(text: str) -> tuple:
    """The ids in a comma list such as a config's functions=.  A token
    continues the series or laurent id before it unless it has a ':' or
    names a member without parameters (iota, conj)."""
    ids = []
    for tok in filter(None, (tk.strip() for tk in text.split(","))):
        name, colon, _ = ids[-1].partition(":") if ids else ("", "", "")
        if (colon and name.strip() in ("series", "laurent")
                and ":" not in tok and tok not in ("iota", "conj")):
            ids[-1] += "," + tok
        else:
            ids.append(tok)
    return tuple(ids)


_INVENTORY = ("power:-3", "power:-2", "power:-1", "power:1", "power:2",
              "power:3", "power:4", "power:5", "series:1,1i,0.5j",
              "laurent:-2=1k", "iota", "arctan_ex:1", "arctan_ex:2",
              "arctan_ex:3", "conj", "coord:x")


def default_inventory() -> tuple:
    """The standard member list exercised by the verification suites."""
    return tuple(from_string(fid) for fid in _INVENTORY)
