"""Exceptions shared across the package, and the record reader of its text formats."""


class Infeasible(Exception):
    """Raised when an augmentation instance admits no feasible solution."""


class SizeGuardError(Exception):
    """Raised when an input exceeds the documented size bound of an exact routine."""


class StreamFormatError(Exception):
    """Raised on malformed stream text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def records(text: str):
    """Yield (line_no, raw, fields) for each line that is neither blank nor a # comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and fields[0][0] != "#":
            yield line_no, raw, fields


def int_fields(line_no: int, raw: str, fields, what: str) -> list[int]:
    """The fields as ints, or a StreamFormatError saying ``what`` with the raw line."""
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise StreamFormatError(line_no, f"{what}: {raw!r}") from exc
