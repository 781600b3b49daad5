"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised when serialized material (points, keys, envelopes) is malformed."""


class PackageDataError(ValueError):
    """Raised when the package's own data fails its check: a registry spec
    off its pinned digest, or a shipped table file that is unreadable or
    off its pinned digest.  The install is damaged; no input is at fault.
    """


class InvalidCiphertext(Exception):
    """Raised on any decryption failure.

    Deliberately carries a single fixed message so callers cannot
    distinguish a failed validity check from a malformed chunk.
    """

    def __init__(self) -> None:
        super().__init__("invalid ciphertext")
