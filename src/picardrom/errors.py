"""Exception types raised across the package."""


class PicardRomError(Exception):
    """Base class for all library errors."""


class SingularMatrix(PicardRomError):
    """Direct solver detected numerical singularity while pivoting."""


class DimensionMismatch(PicardRomError):
    """Operand shapes are inconsistent."""


class TooFewSnapshots(PicardRomError):
    """Basis construction requires at least two snapshots."""


class SvdFailure(PicardRomError):
    """The SVD kernel failed; the reduced model has no basis, as if its system were singular."""


class SingularReducedSystem(PicardRomError):
    """The projected low-order system is singular; force a full-order step."""


class InvalidRange(PicardRomError):
    """Index arguments outside the valid system range."""


class MissingConstants(PicardRomError):
    """A run needs constants it will never have; raised before any solve."""


class NonPositiveDiffusion(PicardRomError):
    """Diffusion field must be strictly positive."""


class ViscosityOutOfRange(PicardRomError):
    """Temperature too close to the singularity of the viscosity law."""


class ConfigError(PicardRomError):
    """Invalid problem or run configuration."""


class MaxIterationsExceeded(PicardRomError):
    """The iteration budget was exhausted before convergence."""


class TooFewSamples(PicardRomError):
    """Runtime statistics require a minimal sample count."""
