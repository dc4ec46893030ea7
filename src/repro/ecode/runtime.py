"""ECode runtime support.

Objects and helpers the generated Python code (and the interpreter) rely
on: C-style integer division/modulo, the builtin function table, and
:class:`AutoList` — the auto-growing array used for transform *output*
records, mirroring how ECode transforms write into PBIO variable arrays
without an explicit allocation step (paper Figure 5 assigns into
``old.src_list[src_count]`` with no malloc).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ECodeRuntimeError


class AutoList(list):
    """A list that grows on out-of-range index access.

    Reading or writing index ``i >= len`` extends the list with elements
    produced by the element *factory* (a fresh default record for complex
    arrays, the type's zero value for scalar arrays).  Negative indices
    keep normal Python semantics.
    """

    __slots__ = ("_factory",)

    def __init__(self, factory: Callable[[], Any], initial: Optional[List[Any]] = None) -> None:
        super().__init__(initial or ())
        self._factory = factory

    def _grow_to(self, index: int) -> None:
        while len(self) <= index:
            self.append(self._factory())

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, int) and index >= len(self):
            self._grow_to(index)
        return list.__getitem__(self, index)

    def __setitem__(self, index, value):  # type: ignore[override]
        if isinstance(index, int) and index >= len(self):
            self._grow_to(index)
        list.__setitem__(self, index, value)


def grow(items: List[Any], index: Any, factory: Callable[[], Any]) -> List[Any]:
    """:class:`AutoList` growth for a plain list: extend *items* with
    *factory* elements until *index* is in range (only for an int
    *index*, like ``AutoList``), and return *items*.  Fused routes call
    it from an inline ``len`` check, so in-range accesses cost no call."""
    if isinstance(index, int):
        while len(items) <= index:
            items.append(factory())
    return items


def c_div(a: Any, b: Any) -> Any:
    """C division: truncation toward zero for two ints, float division
    otherwise.  Integer division by zero raises
    :class:`ECodeRuntimeError` (like a SIGFPE, but catchable)."""
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) and not isinstance(b, bool):
        if b == 0:
            raise ECodeRuntimeError("integer division by zero")
        quotient = a // b
        if quotient < 0 and quotient * b != a:
            quotient += 1
        return quotient
    try:
        return a / b
    except ZeroDivisionError:
        raise ECodeRuntimeError("division by zero") from None


def c_mod(a: Any, b: Any) -> Any:
    """C remainder: sign follows the dividend for ints, ``fmod`` for
    floats."""
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) and not isinstance(b, bool):
        if b == 0:
            raise ECodeRuntimeError("integer modulo by zero")
        return a - c_div(a, b) * b
    try:
        return math.fmod(a, b)
    except (ZeroDivisionError, ValueError):
        raise ECodeRuntimeError("modulo by zero") from None


def _printf(fmt: str, *args: Any) -> int:
    """Minimal printf: strips C length modifiers then delegates to
    Python %-formatting.  Returns the number of characters written."""
    cleaned = []
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        cleaned.append(ch)
        if ch == "%":
            i += 1
            while i < len(fmt) and fmt[i] in "lhqjzt":
                i += 1  # drop length modifiers: %ld -> %d
            if i < len(fmt):
                cleaned.append(fmt[i])
        i += 1
    try:
        text = "".join(cleaned) % args
    except (TypeError, ValueError) as exc:
        raise ECodeRuntimeError(f"printf format error: {exc}") from None
    print(text, end="")
    return len(text)


def _strcmp(a: str, b: str) -> int:
    return (a > b) - (a < b)


#: Functions callable from ECode source.  The semantic checker rejects
#: calls to anything not in this table.
BUILTINS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "fabs": abs,
    "min": min,
    "max": max,
    "floor": lambda x: int(math.floor(x)),
    "ceil": lambda x: int(math.ceil(x)),
    "sqrt": math.sqrt,
    "pow": pow,
    "exp": math.exp,
    "log": math.log,
    "atoi": lambda s: int(str(s).strip() or 0),
    "atof": lambda s: float(str(s).strip() or 0.0),
    "strlen": lambda s: len(s),
    "strcmp": _strcmp,
    "strcat": lambda a, b: a + b,
    "printf": _printf,
}

#: C scalar sizes used by ``sizeof`` (the paper's 32-bit-era ABI).
C_SIZEOF: Dict[str, int] = {
    "char": 1,
    "short": 2,
    "short int": 2,
    "int": 4,
    "unsigned": 4,
    "unsigned int": 4,
    "long": 8,
    "long int": 8,
    "long long": 8,
    "unsigned long": 8,
    "float": 4,
    "double": 8,
}


def sizeof(type_name: str) -> int:
    normalized = " ".join(type_name.split())
    try:
        return C_SIZEOF[normalized]
    except KeyError:
        raise ECodeRuntimeError(f"sizeof: unknown type {type_name!r}") from None


#: Zero values used to initialize uninitialized declarations, keyed by the
#: leading keyword of the declared type.
DEFAULT_INITIALIZERS: Dict[str, Any] = {
    "int": 0,
    "long": 0,
    "short": 0,
    "unsigned": 0,
    "signed": 0,
    "char": "",
    "float": 0.0,
    "double": 0.0,
}


def default_for_type(type_name: str) -> Any:
    head = type_name.split()[0] if type_name.split() else "int"
    return DEFAULT_INITIALIZERS.get(head, 0)
