"""Exception types shared across the package, and the one admission.

The CLI maps these onto exit codes, so constructors and parsers should
raise the most specific one that applies.  Every stage estimates its
bytes or its work from its parameters and calls admit before it runs.
"""

BYTE_BUDGET = 1 << 28        # bytes one stage may hold at once
WORK_BUDGET = 10_000_000     # steps one stage may take


class ParameterError(ValueError):
    """Arguments are structurally invalid (wrong domain, wrong parity, ...)."""


class FormatError(ValueError):
    """A file or text stream does not parse, or its header lies."""


class BudgetError(RuntimeError):
    """The request is well-formed but a stage's estimate passes its cap."""


def power(base: int, e: int) -> int:
    """base^e in an estimate, e clipped to [0, 64]: for base >= 2 it still
    passes every cap where base^e does, and a huge e costs nothing."""
    return base ** min(max(e, 0), 64)


def admit(what: str, size: int, unit: str = "bytes", cap=None) -> None:
    """BudgetError when the size estimated for what passes cap, by default
    BYTE_BUDGET for bytes and WORK_BUDGET for steps; from 2^64 up the
    size is named by its bit length, never formatted."""
    cap = cap or (BYTE_BUDGET if unit == "bytes" else WORK_BUDGET)
    if size > cap:
        shown = f"2^{size.bit_length() - 1} or more" if size >> 64 else size
        raise BudgetError(f"{what} needs {shown} {unit}, past the cap {cap}")
