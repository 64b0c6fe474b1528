"""Exception types shared across the package."""


class SectionLabError(Exception):
    """Base class for all sectionlab errors."""


class DegenerateInput(SectionLabError):
    """Input points are not full-dimensional."""


class InvalidBody(SectionLabError):
    """Convex body failed validation."""


class EmptySample(SectionLabError):
    """Operation requires a nonempty sample."""


class NonPositiveBandwidth(SectionLabError):
    """Bandwidth must be strictly positive."""


class ZeroVariance(SectionLabError):
    """Sample has zero variance, no data-driven bandwidth exists."""


class OutOfSupport(SectionLabError):
    """Argument lies outside the distribution's support."""


class InfiniteMean(SectionLabError):
    """Size distribution must have a finite positive mean."""


class ZeroLocation(SectionLabError):
    """Step CDF locations must be strictly positive."""


class AllZeroLikelihood(SectionLabError):
    """Some observation has zero density under every mixture atom."""


class UnknownShape(SectionLabError):
    """Shape is neither a built-in name nor a readable body file."""
