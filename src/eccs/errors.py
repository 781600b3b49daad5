"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised when serialized material (points, keys, envelopes) is malformed."""


class PackageDataError(Exception):
    """Raised when the package's own data fails its check: a registry spec
    off its pinned digest, or a shipped table file that is unreadable or
    off its pinned digest.  The install is damaged; no input is at fault.

    Not a ``ValueError``, so no handler for bad input can mistake it for
    one: it reaches the caller, and the CLI reports it as exit 3.
    """


class InvalidCiphertext(Exception):
    """Raised on any decryption failure.

    Deliberately carries a single fixed message so callers cannot
    distinguish a failed validity check from a malformed chunk.  It is no
    ``ValueError``, so the handlers that raise it never catch it again.
    """

    def __init__(self) -> None:
        super().__init__("invalid ciphertext")
