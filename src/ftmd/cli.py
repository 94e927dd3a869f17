"""Command-line interface.

Subcommands: ``solve`` (minimum-weight fault-tolerant resolving set),
``check`` (test a given set), ``gen`` (random cograph instance) and
``bench`` (solver scaling table).

Exit codes: 0 success / YES, 1 I/O, parse or usage error or out of memory,
2 not a cograph, 3 check answered NO.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from collections import Counter, defaultdict
from operator import lt
from typing import TYPE_CHECKING, BinaryIO, Callable, Sequence, TextIO

from .cotree import LABEL_LIMIT, EmptyGraphError, NotCographError, build_cotree
from .cotree import format_cotree, neighbour_rows, random_cotree, realises
from .dp import solve
from .graph import Graph
from .oracle import MAX_VERTICES, oracle_min_ft
from .resolving import MODES, certify, cotree_weak_pair, first_failing_pair

if TYPE_CHECKING:
    from fractions import Fraction


class FileFormatError(Exception):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


def _number(token: str, decimal: bool = False) -> int | float | Fraction:
    """``int(token)``, except that the ``_`` digit separator that ``int``
    and ``float`` accept is a ``ValueError`` too.

    With ``decimal``, a token that ``int`` refuses but ``float`` takes comes
    back as its exact ``Fraction``, or as the float when that is not finite
    (``nan``, ``inf``, ``1e400``), for the caller to reject. Plain digits
    beyond ``int``'s digit limit stay a ``ValueError``.
    """
    if "_" in token:
        raise ValueError(f"digit separator in {token!r}")
    try:
        return int(token)
    except ValueError:
        if not decimal or token.isdecimal():
            raise
    approx = float(token)
    if not math.isfinite(approx):
        return approx
    # Imported here because it costs startup time and most weights are integers.
    from fractions import Fraction

    return Fraction(token)


# Characters of a file read at a time. A slice's tokens are alive together,
# as str objects of about 15 bytes per character of the slice, so larger
# slices raise the peak of a small solve and read no faster.
_SLICE = 1 << 14
# A piece of a slice shorter than this is read line by line, not halved.
_PIECE = 1 << 9
_NOT_DIGITS = str.maketrans("", "", "0123456789")


class _Lines:
    """The records of a file, read in order in whole-line pieces.

    The file is read in slices of about ``_SLICE`` characters (``_PIECE``
    until the first record), each cut after a newline. ``add`` takes the
    tokens of a piece of plain ``digits space digits`` lines and adds all of
    their records, returning ``True``, or adds none and returns ``False``.
    Any other piece is halved down to ``_PIECE`` characters and then read
    line by line: ``check`` takes the fields of a line that is neither blank
    nor a comment, a header too, and adds its record or returns its error
    message. So messages and line numbers do not depend on where the slices
    fall.

    ``count`` is the number of such lines, good or bad. ``error`` is the
    first bad line's error; no record after it is added, only counted. A
    decoding error anywhere in the file is raised while reading, before
    the caller sees ``error``, as a ``FileFormatError`` at the line and the
    input offset of the first non-ASCII byte.
    """

    def __init__(
        self,
        path: str,
        add: Callable[[list[str]], bool],
        check: Callable[[list[str]], str | None],
    ):
        self.path = path
        self.line_no = 0  # of the last line read
        self.count = 0
        self.error: FileFormatError | None = None
        self.add = add
        self.check = check

    def read(self, handle: TextIO) -> None:
        """Read the rest of the file."""
        # Short pieces until the first record, so that a header, which the
        # bulk adder may refuse, does not send a whole slice to be halved.
        try:
            while text := handle.read(_SLICE if self.count else _PIECE):
                if text[-1] != "\n":
                    text += handle.readline()
                self.read_piece(text)
        except UnicodeDecodeError:
            raise _decoding_error(self.path, handle.buffer) from None

    def read_piece(self, text: str) -> None:
        """Take the next whole lines of the file; only the file's last line
        may lack its newline."""
        newlines = text.count("\n")
        # Exactly lines of digits, one space, digits: each line has one
        # space, and two tokens per line means digits on both sides of it.
        if text.translate(_NOT_DIGITS) == " \n" * newlines:
            tokens = text.split()
            if len(tokens) == 2 * newlines and (
                self.error is not None or self.add(tokens)
            ):
                self.line_no += newlines
                self.count += newlines
                return
        # Halve a long piece, so that a comment or one bad line sends only
        # a short piece around it line by line.
        half = len(text) // 2
        cut = text.find("\n", half, -1) + 1 or text.rfind("\n", 0, half) + 1
        if len(text) >= _PIECE and cut:
            self.read_piece(text[:cut])
            self.read_piece(text[cut:])
            return
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        for line in lines:
            self.line_no += 1
            fields = line.split()
            if fields and fields[0][0] != "#":
                self.count += 1
                if self.error is None and (message := self.check(fields)):
                    self.error = FileFormatError(self.path, self.line_no, message)


def _decoding_error(path: str, raw: BinaryIO) -> FileFormatError:
    """The error for the first non-ASCII byte of ``raw``, found by reading
    it again from the start. The text layer's own error counts its position
    from the start of the chunk it was decoding, and names no line. Lines
    end as the text layer ends them, at ``\\n``, ``\\r\\n`` or ``\\r``."""
    raw.seek(0)
    offset = breaks = 0
    while chunk := raw.read(_SLICE):
        if chunk.endswith(b"\r"):  # so that no chunk ends inside a "\r\n"
            chunk += raw.read(1)
        good = len(chunk)
        if not chunk.isascii():
            good = next(i for i, b in enumerate(chunk) if b > 127)
        head = chunk[:good]
        offset += good
        breaks += head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        if good < len(chunk):
            break
    message = f"'ascii' codec can't decode byte 0x{chunk[good]:02x} at offset {offset}"
    return FileFormatError(path, breaks + 1, message)


def _open_ascii(path: str) -> TextIO:
    """``path`` as ASCII text that can seek. Input that cannot, such as a
    pipe, is first read into memory as its bytes, about one byte per
    character; it is decoded as it is read, like a file."""
    handle = open(path, "r", encoding="ascii")
    if handle.seekable():
        return handle
    with handle:
        return io.TextIOWrapper(io.BytesIO(handle.buffer.read()), encoding="ascii")


def read_edge_list(path: str) -> Graph:
    """Parse the ``n m`` header plus ``m`` edge lines ``u v`` with u < v.

    The file is opened once and read by ``_Lines``: the header and any
    other irregular line by the line-by-line checks, slices of plain ``u v``
    lines in bulk once the header is known. Neighbour lists are keyed by
    vertex as met, so that a header with a huge ``n`` costs nothing before
    the edge count is checked, and equal ids share one ``int``
    (``_VertexIds``). An ``n`` above ``cotree.LABEL_LIMIT``, more vertices
    than a cotree can label, makes a bad header. A bad header is reported
    before a wrong edge count, a wrong edge count before any bad edge line,
    a duplicate edge before any later bad line, and a decoding error
    anywhere before all of them. Only a duplicate edge or a decoding error
    needs a second reading, from the start of the same handle, so a pipe is
    held in memory (``_open_ascii``).
    """
    n = m = header_no = -1  # until the header is read
    ids = _VertexIds()
    # May hold a duplicate edge, found below by comparing sizes.
    adj: defaultdict[int, list[int]] = defaultdict(list)

    def add(tokens: list[str]) -> bool:
        if n < 0:  # the header is checked line by line
            return False
        try:
            ends = list(map(ids.__getitem__, tokens))
        except ValueError:  # more digits than int() converts
            return False
        us, vs = ends[::2], ends[1::2]
        if not (all(map(lt, us, vs)) and max(vs) < n):
            return False
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
        return True

    def check(fields: list[str]) -> str | None:
        nonlocal n, m, header_no
        if n < 0:  # the first record; none follows a bad header
            header_no = lines.line_no
            if len(fields) != 2:
                return "header must be 'n m'"
            try:
                counts = _number(fields[0]), _number(fields[1])
            except ValueError:
                return "header must be two integers"
            if min(counts) < 0:
                return "n and m must be non-negative"
            if counts[0] > LABEL_LIMIT:
                return f"n must be at most {LABEL_LIMIT}, the most vertices a cotree holds"
            n, m = counts
            return None
        if len(fields) != 2:
            return "edge line must be 'u v'"
        try:
            u, v = ids[fields[0]], ids[fields[1]]
        except ValueError:
            return "edge endpoints must be integers"
        if not 0 <= u < v < n:
            return f"need 0 <= u < v < {n}"
        adj[u].append(v)
        adj[v].append(u)
        return None

    with _open_ascii(path) as handle:
        lines = _Lines(path, add, check)
        lines.read(handle)
        if n < 0:  # no header, or a bad one
            raise lines.error or FileFormatError(path, 1, "missing 'n m' header line")
        edges = lines.count - 1
        if edges != m:
            message = f"header announces {m} edges, file has {edges}"
            raise FileFormatError(path, header_no, message)
        # Freezing a set, not the list, sizes each frozenset as the
        # line-by-line reader's sets did (from a list it can be twice as
        # large); each list is freed as soon as it is frozen. A row smaller
        # than its list holds a repeated edge.
        rows, repeats = {}, set()
        for v in list(adj):
            listed = adj.pop(v)
            rows[v] = row = frozenset(set(listed))
            if len(row) < len(listed):
                repeats.update((v, w) for w, k in Counter(listed).items() if k > 1 and v < w)
        if repeats:
            # Every edge listed comes before the first other bad line.
            raise _first_duplicate(path, handle, ids, repeats)
    if lines.error is not None:
        raise lines.error
    none: frozenset[int] = frozenset()
    return Graph._unchecked(n, tuple(rows.pop(v, none) for v in range(n)))


def _first_duplicate(
    path: str, handle: TextIO, ids: _VertexIds, repeats: set[tuple[int, int]]
) -> FileFormatError:
    """The error for the first edge line that repeats an earlier edge, read
    again from the start of ``handle`` with the ids of the first reading.
    ``repeats`` holds every edge ``(u, v)``, u < v, listed more than once,
    and every edge line before the first repeat must be good. A piece that
    holds none of them is passed over in bulk; a piece that does is refused
    and halved down to the line, so only lines of ``repeats`` are kept."""
    met: set[tuple[int, int]] = set()

    def add(tokens: list[str]) -> bool:
        try:
            ends = list(map(ids.__getitem__, tokens))
        except ValueError:  # more digits than int() converts
            return False
        return repeats.isdisjoint(zip(ends[::2], ends[1::2]))

    def check(fields: list[str]) -> str | None:
        # The header's pair (n, m) is no edge in ``repeats``, as ends are
        # below n.
        edge = tuple(map(ids.__getitem__, fields))
        if edge in met:
            return f"duplicate edge {edge[0]} {edge[1]}"
        if edge in repeats:
            met.add(edge)
        return None

    handle.seek(0)
    lines = _Lines(path, add, check)
    lines.read(handle)
    return lines.error


class _VertexIds(dict):
    """Maps an endpoint token to its vertex id. A new id is also stored
    under its decimal spelling, whose ``int`` every later spelling shares,
    so ``7``, ``07`` and ``+7`` give one object, and a file that writes its
    ids in decimal keeps one entry per vertex."""

    def __missing__(self, token: str) -> int:
        v = _number(token)
        v = self[token] = self.setdefault(str(v), v)
        return v


def read_weights(path: str, n: int) -> list[int | Fraction]:
    """Parse ``v w`` lines; unlisted vertices default to weight 1.

    Integer weights stay ``int``; any other decimal is read exactly as a
    ``Fraction``, so sums and comparisons in the solver carry no rounding.
    The lines are read by ``_Lines``: slices of plain ``v w`` lines in bulk,
    a piece whose ids ascend with no gaps by one slice assignment, any
    other line by the line-by-line checks. The first bad line is
    reported, with the first of its format, range, repeat, non-finite and
    negative errors; a decoding error anywhere comes before it. A pipe is
    held in memory, as for ``read_edge_list``.
    """
    weights: list[int | Fraction] = [1] * n
    listed = bytearray(n)

    def add(tokens: list[str]) -> bool:
        try:
            vs = list(map(int, tokens[::2]))
            ws = list(map(int, tokens[1::2]))
        except ValueError:  # more digits than int() converts
            return False
        first, end = vs[0], vs[-1] + 1
        if end - first == len(vs) and vs == list(range(first, end)):
            # The ids first .. end - 1 in order: one slice, no repeat in it.
            if end > n or listed.find(1, first, end) >= 0:
                return False
            weights[first:end] = ws
            listed[first:end] = b"\1" * len(vs)
            return True
        if max(vs) >= n or len(set(vs)) < len(vs) or any(map(listed.__getitem__, vs)):
            return False
        for v, w in zip(vs, ws):
            weights[v] = w
            listed[v] = 1
        return True

    def check(fields: list[str]) -> str | None:
        try:
            v_text, w_text = fields
            v, w = _number(v_text), _number(w_text, decimal=True)
        except ValueError:
            return "weight line must be 'v w'"
        if not 0 <= v < n:
            return f"vertex {v} out of range for n={n}"
        if listed[v]:
            return f"vertex {v} listed twice"
        if isinstance(w, float):  # only a non-finite weight is a float
            return f"non-finite weight for vertex {v}"
        if w < 0:
            return f"negative weight for vertex {v}"
        weights[v] = w
        listed[v] = 1
        return None

    with _open_ascii(path) as handle:
        lines = _Lines(path, add, check)
        lines.read(handle)
    if lines.error is not None:
        raise lines.error
    return weights


def _integer_text(i: int) -> str:
    """``str(i)`` at any length."""
    try:
        return str(i)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        # Imported here because it costs startup time and such sums are rare.
        from decimal import Decimal

        return str(Decimal(i))


def format_weight(w: int | Fraction) -> str:
    """An integral weight as an integer, any other as its exact decimal
    expansion, at any length. The denominator must divide a power of 10, as
    it does for sums of weights read by ``read_weights``: it is 2**a * 5**b,
    which takes max(a, b) places."""
    d = w.denominator
    if d == 1:
        return _integer_text(w.numerator)
    twos = (d & -d).bit_length() - 1
    # 5**b has floor(b * log2(5)) + 1 bits, so b is within 0.22 of this.
    fives = round(((d >> twos).bit_length() - 0.5) / math.log2(5))
    places = max(twos, fives)
    scaled, rest = divmod(w.numerator * 10**places, d)
    if rest:
        raise ValueError(f"{w} has no finite decimal expansion")
    digits = _integer_text(scaled).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def cmd_solve(args) -> int:
    g = read_edge_list(args.graph)
    weights = read_weights(args.weights, g.n) if args.weights else None
    solution = solve(g, weights)
    print(format_weight(solution.weight))
    print(" ".join(map(str, solution.vertices)))
    if args.cotree:
        print(format_cotree(solution.tree))
    if args.verify and (reason := certify(solution.tree, g, solution.vertices)):
        print(f"error: solution failed fault-tolerance verification: {reason}", file=sys.stderr)
        return 1
    if args.oracle:
        try:
            reference = oracle_min_ft(g, weights)
        except ValueError as err:  # more vertices than the oracle enumerates
            print(f"error: --oracle: {err}", file=sys.stderr)
            return 1
        if reference.weight != solution.weight:
            print(
                f"error: oracle weight {format_weight(reference.weight)} "
                f"!= solver weight {format_weight(solution.weight)}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_check(args) -> int:
    """Print ``YES`` (exit 0) or ``NO: u v`` with the least failing pair
    (exit 3). On a cograph every mode answers on the cotree in O(n + m):
    ``build_cotree``, ``realises`` to certify the tree, then
    ``cotree_weak_pair``. On any other graph, on the empty graph, and if the
    tree were not the graph's, ``first_failing_pair``'s definitional search
    answers."""
    g = read_edge_list(args.graph)
    for v in args.vertices:
        if not 0 <= v < g.n:
            print(f"error: vertex {v} out of range for n={g.n}", file=sys.stderr)
            return 1
    try:
        tree = build_cotree(g)
        certified = realises(tree, g) is None
    except (NotCographError, EmptyGraphError):
        certified = False
    if certified:
        pair = cotree_weak_pair(tree, args.vertices, args.mode)
    else:
        pair = first_failing_pair(g, args.vertices, args.mode)
    if pair is None:
        print("YES")
        return 0
    print(f"NO: {pair[0]} {pair[1]}")
    return 3


def cmd_gen(args) -> int:
    tree = random_cotree(args.n, args.seed)
    rows = neighbour_rows(tree)
    write = sys.stdout.write
    write(f"{len(rows)} {sum(map(len, rows)) // 2}\n")
    # The lines of realize(tree).edges(), one write per vertex and no list.
    for u, row in enumerate(rows):
        if above := sorted(v for v in row if v > u):
            write(f"{u} " + f"\n{u} ".join(map(str, above)) + "\n")
    # As a comment so that the output is directly consumable by `solve`.
    print(f"# cotree: {format_cotree(tree)}")
    return 0


def cmd_bench(args) -> int:
    from .bench import run_scaling  # only this command needs it

    rows = run_scaling(range(10, args.max_exp + 1), args.seed, args.repeats)
    print("n nodes seconds")
    for row in rows:
        print(f"{row.n} {row.nodes} {row.seconds:.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    # Keep exit code 2 reserved for the not-a-cograph outcome.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _vertex_count(text: str) -> int:
    value = _positive_int(text)
    if value > LABEL_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be at most {LABEL_LIMIT}, the most vertices a cotree holds"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ftmd",
        description="Exact minimum-weight fault-tolerant resolving sets on cographs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve an edge-list instance")
    p_solve.add_argument("graph", help="edge-list file ('n m' header, 'u v' lines)")
    p_solve.add_argument("--weights", help="weight file ('v w' lines, default 1)")
    p_solve.add_argument(
        "--verify", action="store_true", help="re-check the set for fault tolerance"
    )
    p_solve.add_argument(
        "--oracle",
        action="store_true",
        help=f"cross-check the weight by brute force (n <= {MAX_VERTICES})",
    )
    p_solve.add_argument(
        "--cotree", action="store_true", help="also print the cotree s-expression"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="test whether a set satisfies a predicate")
    p_check.add_argument("graph")
    p_check.add_argument("mode", choices=MODES)
    p_check.add_argument("vertices", nargs="*", type=int, help="the candidate set")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="emit a random cograph instance")
    p_gen.add_argument(
        "n", type=_vertex_count, help=f"number of vertices, 1 .. {LABEL_LIMIT}"
    )
    p_gen.add_argument("seed", type=int)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time the solver on growing cotrees")
    p_bench.add_argument(
        "--max-exp",
        type=int,
        choices=range(10, 21),
        metavar="K",
        default=17,
        help="largest size 2**K (10..20, default 17)",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=_positive_int, default=3)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileFormatError, OSError, EmptyGraphError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:  # a header n larger than the machine can hold
        print("error: out of memory", file=sys.stderr)
        return 1
    except NotCographError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
