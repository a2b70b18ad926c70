"""hfverify rule families: confinement, ordering, lockorder."""

from . import confinement, lockorder, ordering  # noqa: F401

ALL_RULES = ("confinement", "ordering", "lockorder")


def run_rule(rule: str, program, **kwargs):
    if rule == "confinement":
        return confinement.check(program)
    if rule == "ordering":
        return ordering.check(program, **kwargs)
    if rule == "lockorder":
        return lockorder.check(program, **kwargs)
    raise ValueError(f"unknown rule {rule!r}")
