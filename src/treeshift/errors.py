"""Exception types shared across the package."""


class TreeShiftError(Exception):
    """Base class for all library errors."""


class InvalidAddressError(TreeShiftError):
    """A vertex address is malformed, out of arity bounds, or not canonical."""


class RootedTreeError(TreeShiftError):
    """An operation that needs an unrooted tree was given a rooted one."""


class EmptyIndexSetError(TreeShiftError):
    """A simplex instance or a criteria sample set has an empty index set."""


class EmptyFiberError(TreeShiftError):
    """A descendant fiber Chi^n(v) is empty (leaf cutoff)."""


class CriterionTooWeakError(TreeShiftError):
    """No term of a vector synthesis could meet its budget at this truncation."""


class FloatRangeError(TreeShiftError):
    """A value that float arithmetic must carry lies beyond float range."""


class WorkBudgetError(TreeShiftError):
    """A construction would materialise more entries than its work budget."""


class UnknownPresetError(TreeShiftError):
    """A preset name is not in the catalog."""


class TreeSpecError(TreeShiftError):
    """A tree-spec document could not be parsed or describes an invalid tree."""
