"""Exception types shared across the package."""


class BanditLabError(Exception):
    """Base class for all package errors."""


class StructuralError(BanditLabError):
    """A value does not belong to the structure it was used with."""


class UnsupportedCapabilityError(BanditLabError):
    """The space does not provide the oracle or structure required."""


class ResolutionError(BanditLabError):
    """The requested operation needs finer resolution than the representation has."""


class InvalidScheduleError(BanditLabError):
    """A schedule or parameter sequence violates its validity conditions."""


class ValidationError(BanditLabError):
    """A configuration or descriptor failed validation."""


def required(d, key, where):
    """d[key]; a missing key is a ValidationError that names it."""
    try:
        return d[key]
    except KeyError:
        raise ValidationError(f"{where} needs the field {key!r}") from None


def known(d, keys, where):
    """A key of d outside keys is a ValidationError that names it."""
    for key in d:
        if key not in keys:
            raise ValidationError(f"{where} has the unknown field {key!r}")
