"""The package's one input error and the field checks that raise it: a
point outside its space, a space without the structure an algorithm needs,
a request finer than a space's resolution or a schedule that breaks its
rule is a `ValidationError`, and the command line exits 1 on it."""

import inspect
import numbers


class BanditLabError(Exception):
    """Base class for all package errors."""


class ValidationError(BanditLabError):
    """A config, descriptor, option or argument failed validation."""


def _object(d, where):
    if not isinstance(d, dict):
        raise ValidationError(
            f"{where} must be a JSON object, not {type(d).__name__}")


def required(d, key, where):
    """d[key]; a missing key, or a d that is not a JSON object, is a
    ValidationError."""
    _object(d, where)
    try:
        return d[key]
    except KeyError:
        raise ValidationError(f"{where} needs the field {key!r}") from None


def known(d, keys, where):
    """A key of d outside keys, or a d that is not a JSON object, is a
    ValidationError."""
    _object(d, where)
    for key in d:
        if key not in keys:
            raise ValidationError(f"{where} has the unknown field {key!r}")


def count(value, what, least=1):
    """value as an int >= least; a bool or a non-int names what in an error."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValidationError(f"{what} must be an int >= {least}, not {value!r}")
    return int(value)


def build(cls, fields, where):
    """cls(**fields), with the signature of cls as the schema: a field cls
    does not take, or a parameter without a default that fields lacks, is a
    ValidationError that names it, and so is a value of the wrong type or
    form that cls fails on with TypeError, ValueError or OverflowError (an
    integer too large for a float).  A parameter whose default is a bool
    takes only a bool, and every other parameter takes none, as Python
    would read true as 1 and 1 as true.  Every default lives in cls alone."""
    params = inspect.signature(cls).parameters
    known(fields, params, where)
    for name, param in params.items():
        if param.default is param.empty and name not in fields:
            raise ValidationError(f"{where} needs the field {name!r}")
        flag = isinstance(param.default, bool)
        if name in fields and isinstance(fields[name], bool) != flag:
            raise ValidationError(f"{where} field {name!r} must "
                                  f"{'' if flag else 'not '}be a bool")
    try:
        return cls(**fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
