"""Exception and warning types shared across the package."""


class DomainViolationError(ValueError):
    """Evaluation point lies outside the admissible domain of the structure."""


class StructureError(ValueError):
    """Colligation blocks do not conform to the domain structure."""


class ComplexityError(ValueError):
    """Requested computation exceeds the combinatorial budget."""


class DegenerateGramWarning(UserWarning):
    """Gram matrix built from duplicate or near-duplicate points."""
