"""Command-line front end: keygen, encrypt, decrypt, inspect, selftest, bench.

The grammar is ``eccs COMMAND [--opt VALUE | --opt=VALUE | --flag]...``, with
options in any order, never abbreviated, the last of a repeated one winning;
``-h``/``--help`` prints the usage.  Exit codes are a stable contract:

* 0 - success
* 2 - usage or parse problems: a usage error prints the usage line and
  ``eccs: error: REASON`` before any file is touched; an output path that
  names an input or key file, and malformed key material, print ``error: ...``
* 3 - environment problems (unreadable/unwritable files, rng failure, and
  the package's own registry spec or table file failing its check)
* 4 - invalid ciphertext (exactly the line ``error: invalid ciphertext``)

Message and key I/O is raw bytes; diagnostics go to stderr; nothing
secret is ever printed.  ``--seed`` exists for reproducible test runs
and is refused unless the build is explicitly marked as a test build,
so release installs always draw from the operating system's entropy.
"""

from __future__ import annotations

import os
import random
import stat
import sys
import time
from types import SimpleNamespace

from . import bench as bench_mod  # eager: perfbench's tests rely on `import eccs.cli` loading it
from . import curve as curve_mod
from .curve import CurveParams, curve_by_id, get_curve, sha3_256
from .ecs import (
    Ciphertext,
    chunk_header,
    decrypt,
    decrypt_chunk,
    encrypt,
    encrypt_chunk,
    keygen,
    sample_scalar,
)
from .errors import InvalidCiphertext, PackageDataError, ParseError
from .wire import (
    KIND_PRIVATE_KEY,
    KIND_PUBLIC_KEY,
    LABEL_CIPHERTEXT,
    LABEL_PRIVATE_KEY,
    LABEL_PUBLIC_KEY,
    armor,
    parse_ciphertext,
    parse_envelope,
    parse_private_key,
    parse_public_key,
    serialize_ciphertext,
    serialize_private_key,
    serialize_public_key,
    unarmor,
)

# Builds intended for test harnesses set this to "1"; everywhere else
# --seed is rejected so randomness stays centralized in the OS source.
TEST_BUILD_ENV = "ECCS_TEST_BUILD"


class _Fail(Exception):
    """A command's failure, raised as ``_Fail(code, reason)``: ``main``
    prints ``error: REASON`` to stderr and returns the exit code."""


def _read(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise _Fail(3, f"cannot read {what}: {exc}")


def _write_file(path: str, data: bytes, *, private: bool = False) -> None:
    """Write data to path, replacing a regular file atomically.

    A path that is missing or a regular file gets a new file beside it,
    created exclusively with mode 0600 when private and otherwise given
    the mode of the file it replaces; the data is synced to disk before
    the new file is renamed onto path, and a failed write removes it and
    leaves path as it was, so no partial output remains.  Anything else,
    such as a symlink or /dev/stdout, is written through as it is; when
    private, a regular file behind it is set to 0600 before the write.
    """
    try:
        old_mode = os.lstat(path).st_mode
    except FileNotFoundError:
        old_mode = None
    if old_mode is not None and not stat.S_ISREG(old_mode):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600 if private else 0o666)
        with open(fd, "wb") as handle:
            if private and stat.S_ISREG(os.fstat(fd).st_mode):
                os.fchmod(fd, 0o600)
            handle.write(data)
        return
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    mode = 0o666 if old_mode is None and not private else 0o600
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with open(fd, "wb") as handle:
            if old_mode is not None and not private:
                os.fchmod(fd, old_mode & 0o777)
            handle.write(data)
            handle.flush()
            os.fsync(fd)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _write(path: str, data: bytes, *, private: bool = False) -> None:
    try:
        _write_file(path, data, private=private)
    except OSError as exc:
        raise _Fail(3, f"write failed: {exc}")


def _key(path: str, what: str, parse):
    raw = _read(path, what)
    try:
        return parse(unarmor(raw))
    except ParseError as exc:
        raise _Fail(2, f"bad {what}: {exc}")


def _make_rng(seed: int | None):
    """rng selection, None for the system's entropy; a pinned seed is a
    test-build-only facility."""
    if seed is None:
        return None
    if os.environ.get(TEST_BUILD_ENV) != "1":
        raise _Fail(2, "--seed is only available in test builds")
    return random.Random(seed)


def _distinct(out_flag: str, out: str, *others: tuple[str, str]) -> None:
    """Refuse an output path that names the file of another (flag, path).

    Two paths name one file when they are equal, when either is missing
    and they resolve to the same path, or when both are one regular file,
    as through a symlink or a hard link.  Two names of one terminal or
    device, such as /dev/stdin and /dev/stdout, overwrite nothing.
    """
    for flag, path in others:
        try:
            found = os.stat(out)
            same = stat.S_ISREG(found.st_mode) and os.path.samestat(found, os.stat(path))
        except OSError:
            same = os.path.realpath(path) == os.path.realpath(out)
        if same or os.path.abspath(path) == os.path.abspath(out):
            raise _Fail(2, f"{flag} and {out_flag} must be different paths")


def _preflight_writable(path: str) -> bool:
    parent = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


# --- commands -------------------------------------------------------------


def cmd_keygen(args: SimpleNamespace) -> int:
    _distinct("--priv", args.priv, ("--pub", args.pub))
    for path in (args.pub, args.priv):
        if not _preflight_writable(path):
            raise _Fail(2, f"cannot write to {path}")
    rng = _make_rng(args.seed)
    try:
        priv, pub = keygen(get_curve("secp256k1"), rng)
    except OSError:
        raise _Fail(3, "randomness source failure")
    pub_blob = serialize_public_key(pub)
    priv_blob = serialize_private_key(priv)
    if args.armor:
        pub_blob = armor(pub_blob, LABEL_PUBLIC_KEY).encode("ascii")
        priv_blob = armor(priv_blob, LABEL_PRIVATE_KEY).encode("ascii")
    _write(args.pub, pub_blob)
    _write(args.priv, priv_blob, private=True)
    return 0


def cmd_encrypt(args: SimpleNamespace) -> int:
    _distinct("--out", args.out, ("--in", args.infile), ("--pub", args.pub))
    pub = _key(args.pub, "public key", parse_public_key)
    message = _read(args.infile, "message")
    rng = _make_rng(args.seed)
    try:
        ciphertext = encrypt(pub, message, rng)
    except OSError:
        raise _Fail(3, "randomness source failure")
    except ValueError as exc:
        raise _Fail(2, str(exc))
    blob = serialize_ciphertext(ciphertext)
    if args.armor:
        blob = armor(blob, LABEL_CIPHERTEXT).encode("ascii")
    _write(args.out, blob)
    return 0


def cmd_decrypt(args: SimpleNamespace) -> int:
    _distinct("--out", args.out, ("--in", args.infile), ("--priv", args.priv))
    priv = _key(args.priv, "private key", parse_private_key)
    raw = _read(args.infile, "ciphertext")
    # From here on, every content failure is the same opaque error.
    try:
        message = decrypt(priv, parse_ciphertext(unarmor(raw)))
    except (ParseError, InvalidCiphertext):
        raise _Fail(4, "invalid ciphertext")
    _write(args.out, message)
    return 0


def cmd_inspect(args: SimpleNamespace) -> int:
    raw = _read(args.infile, "input")
    try:
        data = unarmor(raw)
        envelope = parse_envelope(data)
        params = curve_by_id(envelope.curve_id)
        if envelope.kind == KIND_PUBLIC_KEY:
            parse_public_key(data)
            line = f"public key, {params.name}, {len(data)} bytes"
        elif envelope.kind == KIND_PRIVATE_KEY:
            parse_private_key(data)
            line = f"private key (scalars withheld), {params.name}, {len(data)} bytes"
        else:
            ciphertext = parse_ciphertext(data)
            count = len(ciphertext.chunks)
            plural = "" if count == 1 else "s"
            line = (
                f"ciphertext, {params.name}, {len(data)} bytes, "
                f"{count} chunk{plural}"
            )
    except ParseError as exc:
        raise _Fail(2, f"unrecognized input: {exc}")
    print(line)
    return 0


def cmd_selftest(_args: SimpleNamespace) -> int:
    return 0 if run_selftest(sys.stdout) else 1


def cmd_bench(args: SimpleNamespace) -> int:
    try:
        report = bench_mod.run_suite(iterations=args.iters)
    except ValueError as exc:
        raise _Fail(2, str(exc))
    print(bench_mod.format_report(report), end="")
    return 0


# --- selftest suite -------------------------------------------------------

_SHA3_VECTORS = (
    (b"", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"),
    (b"abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376",
    ),
)


def run_selftest(stream) -> bool:
    """Execute the built-in verification suite; True iff everything passed.

    Covers the hash primitive (standard known-answer vectors), a fresh
    re-validation of the registry constants with every proof, a check of
    their pinned digests, a rebuild of the shipped generator tables
    checked against their files and digests, a re-run of the small-curve
    search, the brute-force group table against the group law, the
    correctness identity for every ephemeral scalar on the small curve,
    and a ciphertext bit-flip sweep.
    """
    started = time.perf_counter()
    passed = True

    def step(name: str, fn) -> None:
        nonlocal passed
        try:
            fn()
        except Exception as exc:  # report and continue with later steps
            passed = False
            print(f"{name}: FAIL ({exc})", file=stream)
        else:
            print(f"{name}: ok", file=stream)

    def check_sha3() -> None:
        for message, digest in _SHA3_VECTORS:
            got = sha3_256(message).hexdigest()
            if got != digest:
                raise AssertionError(f"sha3-256({message!r}) = {got}")

    def check_registry() -> None:
        # construct from the frozen constants, re-running all validation,
        # and check that each still matches the digest loading compares;
        # rebuild the shipped generator tables from the proved curve and
        # check them against their file and pinned digest
        for curve_id, spec in curve_mod._REGISTRY_SPECS.items():
            params = CurveParams(**spec)
            if curve_mod._spec_digest(spec) != curve_mod._REGISTRY_DIGESTS[curve_id]:
                raise AssertionError(f"{spec['name']} does not match its pinned digest")
            tables = curve_mod._generator_table_bytes(params)
            digest = sha3_256(tables).hexdigest()
            shipped = curve_mod._shipped_table_bytes(curve_id)
            if shipped != tables or digest != curve_mod._TABLE_DIGESTS[curve_id]:
                raise AssertionError(f"{spec['name']} generator tables do not match their build")
        found = curve_mod.toy_curve_search()
        if found != CurveParams(**curve_mod._REGISTRY_SPECS[curve_mod.TOY_ID]):
            raise AssertionError("small-curve search no longer reproduces registry")

    # toy table is shared by three steps; built lazily inside the first
    # guarded step so a broken registry fails a step instead of crashing
    state: dict = {}

    def toy_table():
        if "table" not in state:
            from .oracle import enumerate_points  # only selftest needs it

            state["toy"] = get_curve("toy")
            state["table"] = enumerate_points(state["toy"])
        return state["toy"], state["table"]

    def check_group_table() -> None:
        toy, table = toy_table()
        rng = random.Random(0x5E1F)
        points = [table.to_point(t) for t in table.points]
        for P in points:
            if table.add(P, curve_mod.IDENTITY) != P:
                raise AssertionError("identity row broken")
            if table.add(P, table.negate(P)) != curve_mod.IDENTITY:
                raise AssertionError("inverse row broken")
        for _ in range(100_000):
            P = rng.choice(points)
            Q = rng.choice(points)
            if table.add(P, Q) != curve_mod.point_add(toy, P, Q):
                raise AssertionError(f"table disagrees with group law at {P}, {Q}")

    def check_exhaustive_r() -> None:
        toy, table = toy_table()
        rng = random.Random(0x5EED)
        for _ in range(2):
            priv, pub = keygen(toy, rng)
            m_point = table.to_point(table.points[rng.randrange(1, table.order)])
            header = chunk_header(0, 1)
            for r in range(1, toy.n):
                chunk = encrypt_chunk(pub, m_point, header, r)
                if decrypt_chunk(priv, chunk, header) != m_point:
                    raise AssertionError(f"roundtrip failed at r={r}")

    def check_tamper_sweep() -> None:
        toy, table = toy_table()
        rng = random.Random(0x7A3)
        for _ in range(5):
            priv, pub = keygen(toy, rng)
            m_point = table.to_point(table.points[rng.randrange(1, table.order)])
            chunk = encrypt_chunk(pub, m_point, chunk_header(0, 1), sample_scalar(toy.n, rng))
            blob = serialize_ciphertext(Ciphertext(toy.curve_id, (chunk,)))
            for bit in range(len(blob) * 8):
                mutated = bytearray(blob)
                mutated[bit // 8] ^= 1 << (bit % 8)
                try:
                    parsed = parse_ciphertext(bytes(mutated))
                    decrypt(priv, parsed)
                except (ParseError, InvalidCiphertext):
                    continue
                raise AssertionError(f"bit flip {bit} was not rejected")

    step("sha3-256 known answers", check_sha3)
    step("registry parameter validation", check_registry)
    step("group table vs group law", check_group_table)
    step("correctness for every ephemeral scalar", check_exhaustive_r)
    step("ciphertext bit-flip sweep", check_tamper_sweep)

    elapsed = time.perf_counter() - started
    print(f"selftest: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s)", file=stream)
    return passed


# --- argument parsing -----------------------------------------------------

# flag -> (destination, kind, default): a kind is str, int or bool (a flag,
# which takes no value), and a default of ... marks a required option
_OPTIONS = {
    "--pub": ("pub", str, ...),
    "--priv": ("priv", str, ...),
    "--in": ("infile", str, ...),
    "--out": ("out", str, ...),
    "--armor": ("armor", bool, False),
    "--seed": ("seed", int, None),
    "--iters": ("iters", int, 25),
}
COMMANDS = {  # name -> (handler, help, options)
    "keygen": (cmd_keygen, "generate a key pair", ("--pub", "--priv", "--armor", "--seed")),
    "encrypt": (cmd_encrypt, "encrypt a file", ("--pub", "--in", "--out", "--armor", "--seed")),
    "decrypt": (cmd_decrypt, "decrypt a file", ("--priv", "--in", "--out")),
    "inspect": (cmd_inspect, "describe a key or ciphertext file", ("--in",)),
    "selftest": (cmd_selftest, "run the built-in verification suite", ()),
    "bench": (cmd_bench, "measure scheme and baseline performance", ("--iters",)),
}


def _usage(name: str | None) -> str:
    if name not in COMMANDS:
        return "usage: eccs COMMAND [--opt VALUE | --opt=VALUE | --flag]..."
    words = ["usage: eccs", name]
    for flag in COMMANDS[name][2]:
        dest, kind, default = _OPTIONS[flag]
        word = flag if kind is bool else f"{flag} {dest.upper()}"
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words)


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Fill a namespace from the tables above, or print the help and return None."""
    name = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        for command in [name] if name in COMMANDS else COMMANDS:
            print(_usage(command), f"    {COMMANDS[command][1]}", sep="\n")
        return None
    if name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}" if argv else "a command is required")
    func, _, flags = COMMANDS[name]
    args = SimpleNamespace(func=func, **{_OPTIONS[f][0]: _OPTIONS[f][2] for f in flags})
    words = iter(argv[1:])
    for word in words:
        flag, joined, value = word.partition("=")
        if flag not in flags:
            raise ValueError(f"unrecognized argument {word!r}")
        dest, kind, _ = _OPTIONS[flag]
        if kind is not bool and not joined:
            value = next(words, "--")
            if value.startswith("--"):  # the next option, or the end
                raise ValueError(f"{flag} expects a value")
        if kind is bool and joined or kind is int and not value.removeprefix("-").isdecimal():
            raise ValueError(f"{flag}: invalid value {value!r}")
        setattr(args, dest, True if kind is bool else int(value) if kind is int else value)
    if missing := [flag for flag in flags if getattr(args, _OPTIONS[flag][0]) is ...]:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except ValueError as exc:  # a usage error, with its reason
        print(_usage(argv[0] if argv else None), f"eccs: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    if args is None:
        return 0
    try:
        return args.func(args)
    except _Fail as fail:
        code, reason = fail.args
    except PackageDataError as exc:  # a damaged install, whichever command met it
        code, reason = 3, str(exc)
    print(f"error: {reason}", file=sys.stderr)
    return code
