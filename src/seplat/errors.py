"""Exception types.

Validation errors always name the first violated law and carry a concrete
witness so a failing check can be reproduced by hand.
"""

from __future__ import annotations


class SeplatError(Exception):
    """Base class for all library errors."""


class ValidationError(SeplatError):
    """A lattice (or candidate family) violates a structural invariant."""

    def __init__(self, law: str, witness=None, detail: str = ""):
        self.law = law
        self.witness = witness
        msg = f"violated: {law}"
        if witness is not None:
            msg += f" (witness: {witness})"
        if detail:
            msg += f" -- {detail}"
        super().__init__(msg)


class OrthoViolation(ValidationError):
    """A candidate orthocomplementation violates one of its laws."""


class RelationError(ValidationError):
    """An atom orthogonality relation is not symmetric, anti-reflexive
    and separating."""


class ForeignElementError(SeplatError):
    """An atom set that is not a member of the lattice was passed to an
    operation expecting a lattice element."""

    def __init__(self, mask: int):
        self.mask = mask
        super().__init__(f"atom set {bin(mask)} is not an element of the lattice")


class SizeCapError(SeplatError):
    """A size guard was exceeded.  The message names the cap."""


class CoveringError(SeplatError):
    """A covering passed to a connectivity check is malformed or is not a
    connected covering where one is required."""

    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        msg = reason if witness is None else f"{reason} (witness: {witness})"
        super().__init__(msg)


class FactorizationError(SeplatError):
    """An automorphism of a product does not decompose into factor maps."""

    def __init__(self, step: str, witness=None):
        self.step = step
        self.witness = witness
        msg = f"factorization failed at step: {step}"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class CharacterizationError(SeplatError):
    """A step of the product characterization failed; carries the step name
    and a witness for the first violation."""

    def __init__(self, step: str, witness=None, detail: str = ""):
        self.step = step
        self.witness = witness
        msg = f"characterization failed at step: {step}"
        if witness is not None:
            msg += f" (witness: {witness})"
        if detail:
            msg += f" -- {detail}"
        super().__init__(msg)
