"""Exception and warning types shared across the package."""


class OsgoodError(Exception):
    """Base class for package errors."""


class NonPositiveArgument(OsgoodError):
    """An argument required to be positive (or >= 0), or finite, was not."""


class SearchDivergence(OsgoodError):
    """The Yudovich search found log Theta finite at no point of its grid."""


class HypothesisViolated(OsgoodError):
    """A sampled hypothesis check failed beyond the configured slack."""


class InvalidModulus(OsgoodError):
    """Modulus is non-positive or non-monotone on sample points."""


class InvalidExponent(OsgoodError):
    """Lebesgue exponent outside [1, inf] (or nan), a band exponent or index
    kappa not finite or with a weight past the float range, or a p0 past
    the float range."""


class NonZeroMean(OsgoodError):
    """Field must be mean-free for the requested spectral operation."""


class EmptySequence(OsgoodError):
    """Band sequence has no entries."""


class InvalidFieldFile(OsgoodError, ValueError):
    """A field file whose header or payload is malformed."""


class InvalidField(OsgoodError, ValueError):
    """Field samples that are not a square power-of-two grid of finite values."""


class InvalidArgument(OsgoodError, ValueError):
    """An argument outside what its entry accepts that no narrower type names:
    a malformed growth table, an r grid empty or not above e^(2 p0), band
    norms negative or out of order, an unknown norm choice, a norm form
    whose sampled ratio passes the float range."""


class AliasRisk(UserWarning):
    """Top frequency band touches the Nyquist annulus."""
