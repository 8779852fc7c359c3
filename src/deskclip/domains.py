"""Config field domains, declared once beside each field, and the one checker
that reads them. A domain is an interval such as "[0, 1)" or "(0, inf)", whose
ends are open or closed and which never holds NaN, or a tuple of choices."""

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


def within(domain: str | tuple, default=MISSING):
    """A dataclass field whose values must lie in ``domain``."""
    return field(default=default, metadata={"domain": domain})


def _admits(domain: str | tuple, value) -> bool:
    if isinstance(domain, tuple):
        return value in domain
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    return (lo < value if domain[0] == "(" else lo <= value) and (
        value < hi if domain[-1] == ")" else value <= hi)


def check(config) -> None:
    """Raise for ``config``'s first field outside its domain, then its first broken relation;
    the error keeps the ``fields`` it names and ``render(*names)`` to reword it with other names."""
    names = [f.name for f in fields(config)]
    for f in fields(config):
        value, domain = getattr(config, f.name), f.metadata.get("domain")
        if domain is not None and not _admits(domain, value):
            _reject(ContractError, lambda a: f"{a}: {value!r} is not in {domain}", f.name)
    for a, b, holds, error, breach in RELATIONS:
        if a in names and b in names and not holds(va := getattr(config, a), vb := getattr(config, b)):
            _reject(error, lambda x, y: f"{x}: {va!r} {breach} {y} {vb!r}", a, b)


def _reject(error: type, render, *names: str):
    err = error(render(*names))
    err.fields, err.render = names, render
    raise err
