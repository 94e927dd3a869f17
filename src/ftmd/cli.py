"""Command-line interface.

Subcommands: ``solve`` (minimum-weight fault-tolerant resolving set),
``check`` (test a given set), ``gen`` (random cograph instance) and
``bench`` (solver scaling table).

Exit codes: 0 success / YES, 1 I/O, parse or usage error, 2 not a cograph,
3 check answered NO.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import defaultdict
from operator import lt
from typing import TYPE_CHECKING, Iterator, Sequence, TextIO

from .cotree import EmptyGraphError, NotCographError, format_cotree
from .cotree import random_cotree, realize
from .dp import solve
from .graph import Graph
from .oracle import MAX_VERTICES, oracle_min_ft
from .resolving import first_low_h_pair, first_unresolved_pair, weak_pair

if TYPE_CHECKING:
    from fractions import Fraction


class FileFormatError(Exception):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


def _records(handle: TextIO) -> Iterator[tuple[int, list[str]]]:
    """Line number and fields of every line that is neither blank nor a
    comment, one line at a time."""
    for line_no, line in enumerate(handle, 1):
        fields = line.split()
        if fields and fields[0][0] != "#":
            yield line_no, fields


def _finish_decoding(handle: TextIO) -> None:
    """Decode the rest of a file before a format error in it is reported,
    so that a decoding error anywhere in the file takes precedence."""
    for _ in handle:
        pass


def _integer(token: str) -> int:
    """``int(token)``, except that the ``_`` digit separator that ``int``
    accepts is a ``ValueError`` too."""
    if "_" in token:
        raise ValueError(f"digit separator in {token!r}")
    return int(token)


# Characters of an edge list read at a time. A slice's tokens are alive
# together, as str objects of about 15 bytes per character of the slice, so
# larger slices raise the peak of a small solve and read no faster.
_SLICE = 1 << 14
# A piece of a slice shorter than this is read line by line, not halved.
_PIECE = 1 << 9
_NOT_DIGITS = str.maketrans("", "", "0123456789")


def read_edge_list(path: str) -> Graph:
    """Parse the ``n m`` header plus ``m`` edge lines ``u v`` with u < v.

    After the header the file is read in slices of about ``_SLICE``
    characters, each cut after a newline (``_EdgeLines``). A slice of plain
    ``digits space digits`` lines is checked and added in bulk; any other
    line, and every bad one, takes the line-by-line path, so messages and
    line numbers do not depend on where the slices fall. A wrong edge count
    is reported before any bad edge line, and a decoding error anywhere
    before either.
    """
    with open(path, "r", encoding="ascii") as handle:
        try:
            header_no, parts = next(_records(handle), (1, None))
            if parts is None:
                raise FileFormatError(path, 1, "missing 'n m' header line")
            if len(parts) != 2:
                raise FileFormatError(path, header_no, "header must be 'n m'")
            try:
                n, m = _integer(parts[0]), _integer(parts[1])
            except ValueError:
                raise FileFormatError(
                    path, header_no, "header must be two integers"
                ) from None
            if n < 0 or m < 0:
                raise FileFormatError(path, header_no, "n and m must be non-negative")
            edges = _EdgeLines(path, n, header_no)
            while text := handle.read(_SLICE):
                if text[-1] != "\n":
                    text += handle.readline()
                edges.read(text)
            if edges.count != m:
                raise FileFormatError(
                    path,
                    header_no,
                    f"header announces {m} edges, file has {edges.count}",
                )
        except FileFormatError:
            _finish_decoding(handle)
            raise
    adj = edges.adj
    listed = sum(map(len, adj.values()))
    # Freezing a set, not the list, sizes each frozenset as the line-by-line
    # reader's sets did (from a list it can be twice as large); each list is
    # freed as soon as it is frozen.
    rows = {v: frozenset(set(adj.pop(v))) for v in list(adj)}
    if sum(map(len, rows.values())) != listed:
        # Every edge listed comes before the first other bad line.
        raise _first_duplicate(path)
    if edges.error is not None:
        raise edges.error
    none: frozenset[int] = frozenset()
    return Graph._unchecked(n, tuple(rows.pop(v, none) for v in range(n)))


class _EdgeLines:
    """The edge lines of one file, read in order in whole-line pieces.

    Neighbour lists are keyed by vertex as met, so that a header with a huge
    ``n`` costs nothing before the edge count is checked. Lists may hold a
    duplicate edge; the caller finds it by comparing sizes. ``error`` is the
    first other bad line; no edge after it is added, only counted.
    """

    def __init__(self, path: str, n: int, line_no: int):
        self.path = path
        self.n = n
        self.line_no = line_no  # of the last line read
        self.count = 0  # edge lines, good or bad
        self.error: FileFormatError | None = None
        self.ids = _VertexIds()
        self.adj: defaultdict[int, list[int]] = defaultdict(list)

    def read(self, text: str) -> None:
        """Take the next whole lines of the file; only the file's last line
        may lack its newline."""
        newlines = text.count("\n")
        # Exactly lines of digits, one space, digits: each line has one
        # space, and two tokens per line means digits on both sides of it.
        if text.translate(_NOT_DIGITS) == " \n" * newlines:
            tokens = text.split()
            if len(tokens) == 2 * newlines and (
                self.error is not None or self._add(tokens)
            ):
                self.line_no += newlines
                self.count += newlines
                return
        # Halve a long piece, so that a comment or one bad line sends only
        # a short piece around it line by line.
        half = len(text) // 2
        cut = text.find("\n", half, -1) + 1 or text.rfind("\n", 0, half) + 1
        if len(text) >= _PIECE and cut:
            self.read(text[:cut])
            self.read(text[cut:])
            return
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        for line in lines:
            self.line_no += 1
            fields = line.split()
            if fields and fields[0][0] != "#":
                self.count += 1
                if self.error is None:
                    self.error = self._edge(fields)

    def _add(self, tokens: list[str]) -> bool:
        """Add the edges of ``u v`` digit tokens if all are good; if any is
        not, add none and return ``False``."""
        try:
            ends = list(map(self.ids.__getitem__, tokens))
        except ValueError:  # more digits than int() converts
            return False
        us, vs = ends[::2], ends[1::2]
        if not (all(map(lt, us, vs)) and max(vs) < self.n):
            return False
        adj = self.adj
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
        return True

    def _edge(self, fields: list[str]) -> FileFormatError | None:
        """Add the edge of one line's fields, or return its error."""
        if len(fields) != 2:
            return FileFormatError(self.path, self.line_no, "edge line must be 'u v'")
        try:
            u, v = self.ids[fields[0]], self.ids[fields[1]]
        except ValueError:
            return FileFormatError(
                self.path, self.line_no, "edge endpoints must be integers"
            )
        if not 0 <= u < v < self.n:
            return FileFormatError(
                self.path, self.line_no, f"need 0 <= u < v < {self.n}"
            )
        self.adj[u].append(v)
        self.adj[v].append(u)
        return None


def _first_duplicate(path: str) -> FileFormatError:
    """The error for the first edge line that repeats an earlier edge, read
    again from the file. Every edge line before it must be good."""
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="ascii") as handle:
        records = _records(handle)
        next(records)  # the header
        for line_no, (u, v) in records:
            edge = int(u), int(v)
            if edge in seen:
                message = f"duplicate edge {edge[0]} {edge[1]}"
                return FileFormatError(path, line_no, message)
            seen.add(edge)
    raise AssertionError(f"{path} has no duplicate edge")


class _VertexIds(dict):
    """Maps an endpoint token to its vertex id, and an id to itself, so that
    equal ids share one ``int`` however they are written."""

    def __missing__(self, token: str) -> int:
        v = _integer(token)
        v = self[token] = self.setdefault(v, v)
        return v


def _parse_number(token: str) -> int | float | Fraction:
    """An ``int`` for an integer token, else the exact ``Fraction`` of a
    decimal token. A token that is not finite as a float (``nan``, ``inf``,
    ``1e400``) comes back as that float, for the caller to reject."""
    if "_" in token:
        raise ValueError(f"digit separator in {token!r}")
    try:
        return int(token)
    except ValueError:
        pass
    approx = float(token)
    if not math.isfinite(approx):
        return approx
    # Imported here because it costs startup time and most weights are integers.
    from fractions import Fraction

    return Fraction(token)


def read_weights(path: str, n: int) -> list[int | Fraction]:
    """Parse ``v w`` lines; unlisted vertices default to weight 1.

    Integer weights stay ``int``; any other decimal is read exactly as a
    ``Fraction``, so sums and comparisons in the solver carry no rounding.
    The file is streamed; the first bad line is reported.
    """
    weights: list[int | Fraction] = [1] * n
    listed = bytearray(n)
    with open(path, "r", encoding="ascii") as handle:
        try:
            for line_no, line in enumerate(handle, 1):
                fields = line.split()
                try:
                    v_text, w_text = fields
                    v = int(v_text) if v_text.isdecimal() else -1
                except ValueError:  # blank, comment or malformed: checked below
                    v = -1  # fails the range test before w_text is read
                # Most lines list a new vertex with a plain integer weight,
                # both in plain digits; any other line is checked below.
                if 0 <= v < n and w_text.isdecimal() and not listed[v]:
                    w = int(w_text)
                else:
                    checked = _checked_weight(path, line_no, fields, n, listed)
                    if checked is None:
                        continue
                    v, w = checked
                listed[v] = 1
                weights[v] = w
        except FileFormatError:
            _finish_decoding(handle)
            raise
    return weights


def _checked_weight(
    path: str, line_no: int, fields: list[str], n: int, listed: bytearray
) -> tuple[int, int | float | Fraction] | None:
    """Vertex and weight of any line of a weight file; ``None`` for a blank
    or comment line. Raises the first of its format errors."""
    if not fields or fields[0][0] == "#":
        return None
    try:
        v_text, w_text = fields
        v = _integer(v_text)
        w = int(w_text) if w_text.isdecimal() else _parse_number(w_text)
    except ValueError:
        raise FileFormatError(path, line_no, "weight line must be 'v w'") from None
    if not 0 <= v < n:
        raise FileFormatError(path, line_no, f"vertex {v} out of range for n={n}")
    if listed[v]:
        raise FileFormatError(path, line_no, f"vertex {v} listed twice")
    if isinstance(w, float) and not math.isfinite(w):
        raise FileFormatError(path, line_no, f"non-finite weight for vertex {v}")
    if w < 0:
        raise FileFormatError(path, line_no, f"negative weight for vertex {v}")
    return v, w


def format_weight(w: int | Fraction) -> str:
    """An integral weight as an integer, any other as its exact decimal
    expansion. The denominator must divide a power of 10, as it does for
    sums of weights read by ``read_weights``."""
    if w.denominator == 1:
        return str(w.numerator)
    places = 1
    while 10**places % w.denominator:
        places += 1
    digits = str(w.numerator * 10**places // w.denominator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def cmd_solve(args) -> int:
    g = read_edge_list(args.graph)
    weights = read_weights(args.weights, g.n) if args.weights else None
    solution = solve(g, weights)
    print(format_weight(solution.weight))
    print(" ".join(map(str, solution.vertices)))
    if args.cotree:
        print(format_cotree(solution.tree))
    if args.verify:
        pair = weak_pair(g, solution.vertices)
        if pair is not None:
            print(
                "error: solution failed fault-tolerance verification: "
                f"pair {pair[0]} {pair[1]} separated fewer than twice",
                file=sys.stderr,
            )
            return 1
    if args.oracle:
        if g.n > MAX_VERTICES:
            print(
                f"error: --oracle is limited to {MAX_VERTICES} vertices", file=sys.stderr
            )
            return 1
        reference = oracle_min_ft(g, weights)
        if reference.weight != solution.weight:
            print(
                f"error: oracle weight {format_weight(reference.weight)} "
                f"!= solver weight {format_weight(solution.weight)}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_check(args) -> int:
    g = read_edge_list(args.graph)
    for v in args.vertices:
        if not 0 <= v < g.n:
            print(f"error: vertex {v} out of range for n={g.n}", file=sys.stderr)
            return 1
    r = frozenset(args.vertices)
    if args.mode == "resolving":
        pair = first_unresolved_pair(g, r, 1)
    elif args.mode == "ft":
        pair = first_unresolved_pair(g, r, 2)
    else:
        pair = first_low_h_pair(g, r)
    if pair is None:
        print("YES")
        return 0
    print(f"NO: {pair[0]} {pair[1]}")
    return 3


def cmd_gen(args) -> int:
    tree = random_cotree(args.n, args.seed)
    g = realize(tree)
    edges = g.edges()
    print(f"{g.n} {len(edges)}")
    for u, v in edges:
        print(f"{u} {v}")
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
    p_check.add_argument("mode", choices=["resolving", "ft", "2nr"])
    p_check.add_argument("vertices", nargs="*", type=int, help="the candidate set")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="emit a random cograph instance")
    p_gen.add_argument("n", type=_positive_int, help="number of vertices")
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
    except (FileFormatError, OSError, UnicodeDecodeError, EmptyGraphError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NotCographError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
