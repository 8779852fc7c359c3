"""Config field domains, declared once beside each field, and the one checker
that reads them. A domain is an interval such as "[0, 1)" or "(0, inf)" (never holding
NaN), a tuple of choices, or a function that names a value's fault or returns None."""

import operator
from dataclasses import MISSING, field, fields

from .errors import ContractError, DimensionError

# (field, other field, holds(value, other value), error, breach); binds each config with both
RELATIONS = (
    ("width", "heads", lambda a, b: a % b == 0, DimensionError, "is not divisible by"),
    ("image_size", "patch_size", lambda a, b: a % b == 0, DimensionError, "is not divisible by"),
    ("crop_scale_lo", "crop_scale_hi", operator.le, ContractError, "exceeds"),
    ("warmup_steps", "total_steps", operator.le, ContractError, "exceeds"),
)


def within(domain, default=MISSING):
    """A dataclass field whose values must lie in ``domain``."""
    return field(default=default, metadata={"domain": domain})


def _breach(domain, value) -> str | None:
    """What puts ``value`` outside ``domain``, or None if it lies inside."""
    if callable(domain):
        return domain(value)
    if isinstance(domain, tuple):
        inside = value in domain
    else:
        lo, hi = (float(end) for end in domain[1:-1].split(","))
        inside = (lo < value if domain[0] == "(" else lo <= value) and (
            value < hi if domain[-1] == ")" else value <= hi)
    return None if inside else f"{value!r} is not in {domain}"


def check(config) -> None:
    """Raise for ``config``'s first field outside its domain, then its first broken relation;
    the error keeps the ``fields`` it names and ``render(*names)`` to reword it with other names."""
    names = [f.name for f in fields(config)]
    for f in fields(config):
        domain = f.metadata.get("domain")
        if domain is not None and (why := _breach(domain, getattr(config, f.name))):
            _reject(ContractError, lambda a: f"{a}: {why}", f.name)
    for a, b, holds, error, breach in RELATIONS:
        if a in names and b in names and not holds(va := getattr(config, a), vb := getattr(config, b)):
            _reject(error, lambda x, y: f"{x}: {va!r} {breach} {y} {vb!r}", a, b)


def _reject(error: type, render, *names: str):
    err = error(render(*names))
    err.fields, err.render = names, render
    raise err
