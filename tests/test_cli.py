import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import ftmd
from ftmd import parse_cotree, realize, from_edges
from ftmd import cli
from ftmd.cli import format_weight, main
from ftmd.graph import connected_components
from ftmd.resolving import MODES, first_failing_pair
import reference_cotree
from strategies import relabel


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    return write(tmp_path, "k2.txt", "2 1\n0 1\n")


@pytest.fixture
def p3_file(tmp_path):
    return write(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_k2(capsys, k2_file):
    code, out, _ = run(capsys, ["solve", k2_file])
    assert code == 0
    assert out == "2\n0 1\n"


def test_solve_two_isolated_with_weights(capsys, tmp_path):
    graph = write(tmp_path, "g.txt", "2 0\n")
    weights = write(tmp_path, "w.txt", "0 4\n1 9\n")
    code, out, _ = run(capsys, ["solve", graph, "--weights", weights])
    assert code == 0
    assert out == "13\n0 1\n"


def test_solve_p4_exits_2(capsys, tmp_path):
    graph = write(tmp_path, "p4.txt", "4 3\n0 1\n1 2\n2 3\n")
    code, _, err = run(capsys, ["solve", graph])
    assert code == 2
    assert "not a cograph" in err


def test_solve_cotree_flag(capsys, p3_file):
    code, out, _ = run(capsys, ["solve", p3_file, "--cotree"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2"
    assert lines[1] == "0 2"
    assert realize(parse_cotree(lines[2])) == from_edges(3, [(0, 1), (1, 2)])


def test_solve_cotree_builds_one_cotree(capsys, tmp_path, monkeypatch):
    import ftmd.cli
    import ftmd.dp

    calls = []
    original = ftmd.dp.build_cotree

    def counting(g):
        calls.append(g.n)
        return original(g)

    for module in (ftmd.cli, ftmd.dp):
        monkeypatch.setattr(module, "build_cotree", counting, raising=False)
    # K2, P3 and two isolated vertices.
    graph = write(tmp_path, "g.txt", "7 3\n0 1\n2 3\n3 4\n")
    code, out, _ = run(capsys, ["solve", graph, "--cotree"])
    assert code == 0
    assert calls == [7]
    lines = out.splitlines()
    assert lines[:2] == ["6", "0 1 2 4 5 6"]
    assert realize(parse_cotree(lines[2])) == from_edges(7, [(0, 1), (2, 3), (3, 4)])


def test_solve_verify_and_oracle(capsys, p3_file):
    code, out, err = run(capsys, ["solve", p3_file, "--verify", "--oracle"])
    assert code == 0
    assert err == ""
    assert out == "2\n0 2\n"


def test_solve_verify_names_the_failing_pair(capsys, monkeypatch, p3_file):
    import ftmd.cli

    original = ftmd.cli.solve

    def wrong(g, weights=None):
        return original(g, weights)._replace(vertices=(0, 1))

    monkeypatch.setattr(ftmd.cli, "solve", wrong)
    code, out, err = run(capsys, ["solve", p3_file, "--verify"])
    assert code == 1
    assert out == "2\n0 1\n"
    assert err == (
        "error: solution failed fault-tolerance verification: "
        "pair 0 2 separated fewer than twice\n"
    )


def test_solve_verify_rejects_a_cotree_of_another_graph(capsys, monkeypatch, p3_file):
    import ftmd.cli

    original = ftmd.cli.solve
    k3 = parse_cotree("(C (U L0 (U L1 L2)))")

    def wrong(g, weights=None):
        return original(g, weights)._replace(tree=k3)

    monkeypatch.setattr(ftmd.cli, "solve", wrong)
    code, out, err = run(capsys, ["solve", p3_file, "--verify"])
    assert code == 1
    assert out == "2\n0 2\n"
    assert err == (
        "error: solution failed fault-tolerance verification: "
        "the graph lacks the cotree's edge 0 2\n"
    )


def test_solve_oracle_names_a_weight_mismatch(capsys, monkeypatch, p3_file):
    original = cli.oracle_min_ft

    def heavier(g, weights=None):
        return original(g, weights)._replace(weight=Fraction(5, 2))

    monkeypatch.setattr(cli, "oracle_min_ft", heavier)
    code, out, err = run(capsys, ["solve", p3_file, "--oracle"])
    assert (code, out) == (1, "2\n0 2\n")
    assert err == "error: oracle weight 2.5 != solver weight 2\n"


def test_solve_decimal_weights_are_exact(capsys, tmp_path):
    # As floats the solver summed 1.1 and the oracle 1.0999999999999999.
    graph = write(tmp_path, "k3.txt", "3 3\n0 1\n0 2\n1 2\n")
    weights = write(tmp_path, "w.txt", "0 0.3\n1 0.1\n2 0.7\n")
    code, out, err = run(capsys, ["solve", graph, "--weights", weights, "--oracle"])
    assert (code, out, err) == (0, "1.1\n0 1 2\n", "")


def test_solve_prints_integral_decimal_total_as_integer(capsys, k2_file, tmp_path):
    weights = write(tmp_path, "w.txt", "0 0.25\n1 .75\n")
    code, out, _ = run(capsys, ["solve", k2_file, "--weights", weights])
    assert (code, out) == (0, "1\n0 1\n")


@pytest.mark.parametrize(
    "weight,text",
    [
        (7, "7"),
        (Fraction(6, 2), "3"),
        (Fraction("1.1"), "1.1"),
        (Fraction("0.0625"), "0.0625"),
        (Fraction("12.50"), "12.5"),
        (Fraction("1e-3"), "0.001"),
        (Fraction("123456789.000000000000000001"), "123456789.000000000000000001"),
    ],
)
def test_format_weight(weight, text):
    assert format_weight(weight) == text


def _looped_format_weight(w):
    """``format_weight`` as a search for the least number of places."""
    if w.denominator == 1:
        return str(w.numerator)
    places = 1
    while 10**places % w.denominator:
        places += 1
    digits = str(w.numerator * 10**places // w.denominator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def test_format_weight_matches_the_place_search():
    rng = random.Random(17)
    for _ in range(2000):
        twos, fives = rng.randrange(300), rng.randrange(300)
        w = Fraction(rng.randrange(10 ** rng.randrange(1, 40)), 2**twos * 5**fives)
        assert format_weight(w) == _looped_format_weight(w)
    for k in range(1, 400):
        for d in (2**k, 5**k, 10**k, 2**k * 5 ** (k // 2), 5**k * 2 ** (k // 3)):
            assert format_weight(Fraction(1, d)) == _looped_format_weight(Fraction(1, d))


@pytest.mark.parametrize("denominator", [3, 6, 7, 15, 96, 5**20 * 3])
def test_format_weight_rejects_a_fraction_with_no_decimal_expansion(denominator):
    with pytest.raises(ValueError, match="no finite decimal expansion"):
        format_weight(Fraction(1, denominator))


# Weight tokens for vertex 0 of P3, with the output or the error they give.
WEIGHT_TOKENS = [
    # Totals longer than int()'s 4300-digit string limit print in full.
    ("9" * 4300, "1" + "0" * 4300 + "\n0 2\n", ""),
    ("1e-4400", "1." + "0" * 4399 + "1\n0 2\n", ""),
    ("1e-30000", "1." + "0" * 29999 + "1\n0 2\n", ""),
    ("1e400", "", "non-finite weight for vertex 0"),
    ("nan", "", "non-finite weight for vertex 0"),
    ("inf", "", "non-finite weight for vertex 0"),
    (".5", "1.5\n0 2\n", ""),
    ("5.", "6\n0 2\n", ""),
    ("1_0", "", "weight line must be 'v w'"),
]


@pytest.mark.parametrize("token,out,err", WEIGHT_TOKENS, ids=[t[:12] for t, _, _ in WEIGHT_TOKENS])
def test_solve_prints_any_weight_token_or_one_error(tmp_path, p3_file, token, out, err):
    weights = write(tmp_path, "w.txt", f"0 {token}\n")
    src = Path(ftmd.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "ftmd.cli", "solve", p3_file, "--weights", weights],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=2,
    )
    if err:
        err = f"error: {weights}:1: {err}\n"
    assert (result.returncode, result.stdout, result.stderr) == (bool(err), out, err)


# int()'s string limit; Python 3.10 before 3.10.7 has none to ask for.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
# Numerals for a reader to answer or refuse in one line: digit strings near
# the limit, exponents up to +-5000, signs, leading zeros, and spellings
# that int() or float() take and the files do not.
NUMERALS = st.one_of(
    st.integers(-2, 9).map(str),
    st.builds(
        "{}{}".format,
        st.sampled_from(["", "-", "+", "0"]),
        st.integers(_DIGIT_LIMIT - 2, _DIGIT_LIMIT + 2).map("9".__mul__),
    ),
    st.builds(
        "{}{}e{}".format,
        st.sampled_from(["", "-", "+"]),
        st.sampled_from(["1", "2.5", ".5", "5.", "0"]),
        st.integers(-5000, 5000),
    ),
    st.sampled_from(
        [".5", "5.", "1_0", "nan", "inf", "-inf", "NaN", "007", "-0", "1e400", "0x1", "\u0663"]
    ),
)
BAD_LINES = ["x", "1", "1 2 3", "# a comment", "", "  ", "0 0", "0 1", "0 1 # c"]


@st.composite
def instances(draw):
    """A small edge list and weight file. The edges are distinct and make
    cographs and non-cographs; now and then a bad line or a hostile numeral
    joins them. The weights are numerals for vertices 0, 1, ..., and at
    most one past the last vertex."""
    n = draw(st.integers(0, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    if draw(st.booleans()):
        bad = draw(st.one_of(st.sampled_from(BAD_LINES), NUMERALS.map("0 {}".format)))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    weights = draw(st.lists(NUMERALS, max_size=n + 1))
    return n, lines, [f"{v} {w}" for v, w in enumerate(weights)]


@settings(max_examples=300, deadline=2000)
@given(instances(), st.sampled_from(["solve", "--verify", "--cotree", "--oracle", *MODES]))
def test_main_answers_or_prints_one_error_line(instance, command):
    """Every small file gets an answer or one ``error:`` line and an exit
    code of 0 to 3, within the example's 2 s deadline; an exception would
    escape ``main`` as a traceback does from the command."""
    n, lines, weight_lines = instance
    with tempfile.TemporaryDirectory() as directory:
        graph, weights = os.path.join(directory, "g.txt"), os.path.join(directory, "w.txt")
        Path(graph).write_text("\n".join(lines) + "\n", encoding="utf-8")
        Path(weights).write_text("".join(f"{line}\n" for line in weight_lines), encoding="utf-8")
        if command in MODES:
            argv = ["check", graph, command, *map(str, range(0, n, 2))]
        else:
            argv = ["solve", graph, "--weights", weights]
            if command != "solve":
                argv.append(command)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_integer_solve_leaves_decimal_unimported(p3_file):
    # decimal prints only totals beyond int()'s digit limit; importing it
    # costs startup time.
    src = Path(ftmd.__file__).resolve().parent.parent
    code = (
        "import sys; from ftmd.cli import main; "
        f"main(['solve', {p3_file!r}]); print('decimal' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "2\n0 2\nFalse\n"


def test_solve_oracle_rejected_beyond_limit(capsys, tmp_path):
    graph = write(tmp_path, "big.txt", "21 0\n")
    code, _, err = run(capsys, ["solve", graph, "--oracle"])
    assert code == 1
    assert "--oracle" in err


def test_solve_oracle_names_its_limit_and_the_vertex_count(capsys, tmp_path):
    body = "".join(f"0 {v}\n" for v in range(1, 21))
    graph = write(tmp_path, "star.txt", f"21 20\n{body}")
    code, out, err = run(capsys, ["solve", graph, "--oracle"])
    assert (code, out.splitlines()[0]) == (1, "20")
    assert err == "error: --oracle: oracle enumeration is limited to 20 vertices, got 21\n"


def test_solve_is_deterministic(capsys, p3_file):
    _, first, _ = run(capsys, ["solve", p3_file, "--cotree"])
    _, second, _ = run(capsys, ["solve", p3_file, "--cotree"])
    assert first == second


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["solve", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("", "header"),
        ("2\n", "header"),
        ("x y\n", "integers"),
        ("-1 0\n", "n and m must be non-negative"),
        ("2 -1\n", "n and m must be non-negative"),
        ("2 1\n", "announces"),
        ("2 1\n0 1\n0 1\n", "announces"),
        ("2 2\n0 1\n0 1\n", "duplicate"),
        ("2 1\n1 0\n", "0 <= u < v"),
        ("2 1\n0 0\n", "0 <= u < v"),
        ("2 1\n0 5\n", "0 <= u < v"),
        ("2 1\n0 one\n", "integers"),
        ("2 1_0\n", "integers"),
        ("1_1 1\n0 1\n", "integers"),
        ("11 1\n0 1_0\n", "integers"),
        ("11 1\n0_1 5\n", "integers"),
        pytest.param(f"2 1\n0 {'1' * 5000}\n", "integers", id="5000-digit endpoint"),
        pytest.param(
            f"2 3\n0 1\n0 1\n0 {'1' * 5000}\n",
            "bad.txt:3: duplicate edge 0 1",
            id="5000-digit endpoint after a duplicate",
        ),
    ],
)
def test_edge_list_parse_errors(capsys, tmp_path, body, fragment):
    graph = write(tmp_path, "bad.txt", body)
    code, _, err = run(capsys, ["solve", graph])
    assert code == 1
    assert "bad.txt:" in err
    assert fragment in err


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("0\n", "'v w'"),
        ("0 1 2\n", "'v w'"),
        ("5 1\n", "out of range"),
        ("0 -1\n", "negative"),
        ("0 1\n0 2\n", "twice"),
        ("0 x\n", "'v w'"),
        ("0 nan\n", "non-finite"),
        ("0 inf\n", "non-finite"),
        ("0 -Infinity\n", "non-finite"),
        ("0 1e400\n", "non-finite"),
        ("0 1_000\n", "'v w'"),
        ("0 2_0.5\n", "'v w'"),
        ("0 1_0e1\n", "'v w'"),
        ("0_1 1\n", "'v w'"),
        pytest.param(
            f"0 {'1' * 5000}\n", "1: weight line must be 'v w'", id="5000-digit weight"
        ),
    ],
)
def test_weight_file_parse_errors(capsys, tmp_path, k2_file, body, fragment):
    weights = write(tmp_path, "w.txt", body)
    code, _, err = run(capsys, ["solve", k2_file, "--weights", weights])
    assert code == 1
    assert fragment in err


def test_comments_and_blank_lines_ignored(capsys, tmp_path):
    graph = write(tmp_path, "g.txt", "# a comment\n\n2 1\n# another\n0 1\n")
    code, out, _ = run(capsys, ["solve", graph])
    assert code == 0
    assert out == "2\n0 1\n"


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def test_crlf_files(capsys, tmp_path):
    graph = write_bytes(tmp_path, "g.txt", b"3 2\r\n0 1\r\n1 2\r\n")
    weights = write_bytes(tmp_path, "w.txt", b"0 5\r\n2 0.5\r\n")
    code, out, err = run(capsys, ["solve", graph, "--weights", weights, "--oracle"])
    assert (code, out, err) == (0, "5.5\n0 2\n", "")


def test_indented_comment_lines_ignored(capsys, tmp_path):
    graph = write(tmp_path, "g.txt", "  # n m\n2 1\n\t# edges\n   #\n0 1\n")
    weights = write(tmp_path, "w.txt", " # v w\n0 3\n    # vertex 1 keeps 1\n")
    code, out, _ = run(capsys, ["solve", graph, "--weights", weights])
    assert (code, out) == (0, "4\n0 1\n")


@pytest.mark.parametrize(
    "body,message",
    [
        ("# c\n\n2 x\n", "3: header must be two integers"),
        ("# c\n\n2 1\n  # c\n0 5\n", "5: need 0 <= u < v < 2"),
        ("3 1\n\n# c\nx y\n0 1\n", "1: header announces 1 edges, file has 2"),
        ("# c\n\n2 0\n0 1\n", "3: header announces 0 edges, file has 1"),
        ("3 3\n0 1\n\n0 x\n1 7\n", "4: edge endpoints must be integers"),
        # No cotree labels more leaves: refused before a row per vertex.
        (
            "2147483649 0\n",
            "1: n must be at most 2147483648, the most vertices a cotree holds",
        ),
    ],
)
def test_edge_list_error_line_numbers(capsys, tmp_path, body, message):
    graph = write(tmp_path, "g.txt", body)
    code, _, err = run(capsys, ["solve", graph])
    assert (code, err) == (1, f"error: {graph}:{message}\n")


@pytest.mark.parametrize(
    "body,message",
    [
        ("# c\n\n0 x\n", "3: weight line must be 'v w'"),
        ("0 1\n  # c\n\n0 2\n", "4: vertex 0 listed twice"),
        ("\r\n1 -2\r\n", "2: negative weight for vertex 1"),
        # A line breaking several rules reports the first of format, range,
        # repeat, non-finite and negative.
        ("5 x\n", "1: weight line must be 'v w'"),
        ("0 1\n0 x\n", "2: weight line must be 'v w'"),
        ("0 1 2\n", "1: weight line must be 'v w'"),
        ("5 -1\n", "1: vertex 5 out of range for n=2"),
        ("-1 nan\n", "1: vertex -1 out of range for n=2"),
        ("0 1\n0 -1\n", "2: vertex 0 listed twice"),
        ("1 2\n1 inf\n", "2: vertex 1 listed twice"),
        ("0 -inf\n", "1: non-finite weight for vertex 0"),
        ("+1 -0.5\n", "1: negative weight for vertex 1"),
    ],
)
def test_weight_file_error_line_numbers(capsys, tmp_path, k2_file, body, message):
    weights = write_bytes(tmp_path, "w.txt", body.encode())
    code, _, err = run(capsys, ["solve", k2_file, "--weights", weights])
    assert (code, err) == (1, f"error: {weights}:{message}\n")


def test_weight_lines_off_the_common_path_are_read(capsys, tmp_path, p3_file):
    weights = write(tmp_path, "w.txt", "#0 9\n+0 2.5\n 1 007\n2 0\n")
    code, out, _ = run(capsys, ["solve", p3_file, "--weights", weights])
    assert (code, out) == (0, "2.5\n0 2\n")


def test_cli_import_skips_dataclasses_and_bench():
    # -S keeps site hooks from importing either module first.
    src = Path(ftmd.__file__).resolve().parent.parent
    code = (
        "import sys; import ftmd.cli; "
        "print(sorted({'dataclasses', 'fractions', 'ftmd.bench'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize(
    "body,out,err",
    [
        ("2 1\n0 1\n", "2\n0 1\n", ""),
        ("2 2\n0 1\n0 1\n", "", "error: /dev/stdin:3: duplicate edge 0 1\n"),
    ],
)
def test_edge_list_from_a_pipe(body, out, err):
    # A pipe cannot seek, yet the duplicate search reads the input again.
    src = Path(ftmd.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "ftmd.cli", "solve", "/dev/stdin"],
        input=body,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (bool(err), out, err)


def test_decoding_error_in_a_pipe_reported_before_an_earlier_bad_line():
    # The bad line 2 is read long before the non-ASCII byte: a pipe is
    # decoded as it is read, and the decoding error still wins.
    body = b"2 1\n0 5\n" + b"# padding\n" * 4000 + b"# caf\xc3\xa9\n"
    src = Path(ftmd.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "ftmd.cli", "solve", "/dev/stdin"],
        input=body,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
    )
    assert result.returncode == 1 and result.stdout == b""
    assert b"codec can't decode" in result.stderr


def test_edge_list_from_a_pipe_costs_about_its_text_over_a_file(tmp_path):
    # A pipe is held as its bytes, one per character; a StringIO of the
    # text would hold four.
    edges = slice_test_lines(random.Random(8), 2000, 30_000)
    text = f"2000 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    graph = write(tmp_path, "g.txt", text)
    data = text.encode()

    def peak(path):
        tracemalloc.start()
        try:
            cli.read_edge_list(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def feed(fd):
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)

    read_end, write_end = os.pipe()
    writer = threading.Thread(target=feed, args=(write_end,))
    writer.start()
    try:
        piped = peak(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)  # a writer still blocked on a full pipe fails
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert piped - peak(graph) < 1.5 * len(data)


def test_decoding_error_reported_before_format_errors(capsys, tmp_path, k2_file):
    graph = write_bytes(tmp_path, "g.txt", b"2 1\n0 5\n# caf\xc3\xa9\n")
    code, _, err = run(capsys, ["solve", graph])
    assert code == 1 and "codec can't decode" in err
    weights = write_bytes(tmp_path, "w.txt", b"0 x\n# caf\xc3\xa9\n")
    code, _, err = run(capsys, ["solve", k2_file, "--weights", weights])
    assert code == 1 and "codec can't decode" in err


# The only non-ASCII byte is on line 4,003, far past the start of the chunk
# that the text layer was decoding when it failed.
FAR_NON_ASCII = b"2 1\n0 1\n" + b"# padding line\n" * 4000 + b"# caf\xc3\xa9\n"


def decoding_error(path, line_no, data, byte=b"\xc3"):
    message = f"'ascii' codec can't decode byte 0x{byte.hex()}"
    return f"error: {path}:{line_no}: {message} at offset {data.index(byte)}\n"


def test_decoding_error_names_its_file_line_and_offset(capsys, tmp_path, k2_file):
    graph = write_bytes(tmp_path, "g.txt", FAR_NON_ASCII)
    expected = decoding_error(graph, 4003, FAR_NON_ASCII)
    assert run(capsys, ["solve", graph]) == (1, "", expected)
    # Lines end at CRLF and at a lone CR, as the text layer ends them, also
    # where a CRLF straddles two of the chunks read to find the byte.
    head = b"2 1\r\n0 1\r\n"
    data = head + b"#" * (cli._SLICE - len(head) - 1) + b"\r\n# x\r# caf\xc3\xa9\n"
    assert data[cli._SLICE - 1 : cli._SLICE + 1] == b"\r\n"
    graph = write_bytes(tmp_path, "crlf.txt", data)
    assert run(capsys, ["solve", graph]) == (1, "", decoding_error(graph, 5, data))
    data = b"0 x\n" + b"# padding\n" * 3000 + b"1 2 \xff\n"
    weights = write_bytes(tmp_path, "w.txt", data)
    code, out, err = run(capsys, ["solve", k2_file, "--weights", weights])
    assert (code, out, err) == (1, "", decoding_error(weights, 3002, data, b"\xff"))


def test_decoding_error_in_a_pipe_names_its_line_and_offset(k2_file):
    src = Path(ftmd.__file__).resolve().parent.parent
    weights = b"0 x\n" + b"# padding\n" * 3000 + b"1 2 \xff\n"
    for argv, data, line_no, byte in (
        (["/dev/stdin"], FAR_NON_ASCII, 4003, b"\xc3"),
        ([k2_file, "--weights", "/dev/stdin"], weights, 3002, b"\xff"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "ftmd.cli", "solve", *argv],
            input=data,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
        )
        expected = decoding_error("/dev/stdin", line_no, data, byte)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode() == expected


def slice_test_lines(rng, n, count):
    """``count`` distinct edges ``u v`` of ``n`` vertices, shuffled."""
    edges = set()
    while len(edges) < count:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    edges = sorted(edges)
    rng.shuffle(edges)
    return edges


def line_by_line_copy(tmp_path, n, edges):
    """The edges as a file whose every line is off the bulk path (a tab)."""
    body = "".join(f"{u}\t{v}\n" for u, v in edges)
    return write(tmp_path, "tabs.txt", f"{n} {len(edges)}\n{body}")


@pytest.mark.parametrize("lead", [0, 1, 7, 4099])
def test_edge_list_slices_match_line_by_line(tmp_path, lead):
    # Over 64 KiB, so many slices; the leading comment moves where they cut.
    rng = random.Random(lead)
    n = 400
    edges = slice_test_lines(rng, n, 30_000)
    lines = [f"{u} {v}" for u, v in edges]
    # Irregular lines in some slices, none in others.
    for i in rng.sample(range(len(lines) // 2), 60):
        u, v = edges[i]
        odd = rng.choice(
            (f"{u}\t{v}", f"+{u} {v}", f"{u} 00{v}", f" {u} {v} ", f"{u}  {v}")
        )
        lines[i] = rng.choice(("", "# note", "  ", "\t# x")) + "\n" + odd
    text = f"#{'c' * lead}\n{n} {len(edges)}\n" + "\n".join(lines)
    text = text.replace("\n", "\r\n", 3000)  # CRLF in the first slices only
    graph = write_bytes(tmp_path, "g.txt", text.encode())  # no final newline
    assert len(text) > max(2**16, 3 * cli._SLICE)
    g = cli.read_edge_list(graph)
    reference = from_edges(n, edges)
    per_line = cli.read_edge_list(line_by_line_copy(tmp_path, n, edges))
    assert g.adj == reference.adj == per_line.adj
    sizes = sum(map(sys.getsizeof, g.adj))
    assert sizes == sum(map(sys.getsizeof, reference.adj))
    assert sizes == sum(map(sys.getsizeof, per_line.adj))
    # One int object per vertex id, however it is written.
    assert len({id(v) for nbrs in g.adj for v in nbrs}) <= n


def count_line_by_line(monkeypatch):
    """A list that records the fields of every line that the shared reader
    sends to its per-line check."""
    calls = []

    class Counting(cli._Lines):
        def __init__(self, path, add, check):
            def counting(fields):
                calls.append(fields)
                return check(fields)

            super().__init__(path, add, counting)

    monkeypatch.setattr(cli, "_Lines", Counting)
    return calls


def test_edge_list_comment_keeps_its_slice_in_bulk(tmp_path, monkeypatch):
    # As in `ftmd gen` output, a long comment shares a slice with many edges.
    edges = slice_test_lines(random.Random(9), 300, 14_000)
    lines = [f"{u} {v}" for u, v in edges]
    lines.insert(7_000, "")
    lines.append("# cotree: " + "(U L0 L1) " * 300)
    graph = write(tmp_path, "g.txt", f"300 {len(edges)}\n" + "\n".join(lines) + "\n")
    calls = count_line_by_line(monkeypatch)
    assert cli.read_edge_list(graph) == from_edges(300, edges)
    assert len(calls) < 200


def test_edge_list_duplicate_search_reads_in_bulk(tmp_path, monkeypatch):
    # Naming the repeat reads the file again, in bulk up to the piece that
    # holds it.
    edges = slice_test_lines(random.Random(11), 300, 14_000)
    lines = [f"{u} {v}" for u, v in edges]
    u, v = edges[10]
    lines.insert(10_000, f"{u} {v}")
    graph = write(tmp_path, "g.txt", f"300 {len(lines)}\n" + "\n".join(lines) + "\n")
    calls = count_line_by_line(monkeypatch)
    with pytest.raises(cli.FileFormatError) as exc:
        cli.read_edge_list(graph)
    assert str(exc.value) == f"{graph}:10002: duplicate edge {u} {v}"
    assert len(calls) < 200


def test_edge_list_duplicate_search_holds_only_the_repeats(tmp_path, monkeypatch):
    # A file that ends with a repeat: a search that kept every edge read
    # before it would hold all 60,000.
    edges = slice_test_lines(random.Random(12), 1_000, 60_000)
    lines = [f"{u} {v}" for u, v in edges] + ["{} {}".format(*edges[0])]
    graph = write(tmp_path, "g.txt", f"1000 {len(lines)}\n" + "\n".join(lines) + "\n")
    original = cli._first_duplicate
    peaks = []

    def measured(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        error = original(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return error

    monkeypatch.setattr(cli, "_first_duplicate", measured)
    tracemalloc.start()
    try:
        with pytest.raises(cli.FileFormatError) as exc:
            cli.read_edge_list(graph)
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{graph}:{len(lines) + 1}: duplicate edge {lines[-1]}"
    assert peaks[0] < 2**20


@pytest.mark.parametrize(
    "bad,at,message",
    [
        ("{u} {v}", 10_000, "duplicate edge {u} {v}"),
        ("{v} {u}", 10_000, "need 0 <= u < v < 300"),
        ("{u} {u}", 12_500, "need 0 <= u < v < 300"),
        ("{u} 300", 10_000, "need 0 <= u < v < 300"),
        ("{u} 3{v:03d}", 13_500, "need 0 <= u < v < 300"),
        ("{u} x", 10_000, "edge endpoints must be integers"),
        ("{u} 1_0", 10_000, "edge endpoints must be integers"),
        ("{u} {v} 1", 10_000, "edge line must be 'u v'"),
        ("{u} {v}", 10_000, "header announces 14000 edges, file has 14001"),
    ],
)
def test_edge_list_errors_after_the_first_slice(capsys, tmp_path, bad, at, message):
    rng = random.Random(at)
    edges = slice_test_lines(rng, 300, 14_000)
    u, v = edges[10]
    lines = [f"{a} {b}" for a, b in edges]
    lines.insert(at, bad.format(u=u, v=v))
    m = len(edges) + ("announces" not in message)
    graph = write(tmp_path, "g.txt", f"300 {m}\n" + "\n".join(lines) + "\n")
    assert len("\n".join(lines[:at])) > cli._SLICE
    line_no = 1 if "announces" in message else at + 2
    code, _, err = run(capsys, ["solve", graph])
    assert (code, err) == (1, f"error: {graph}:{line_no}: {message.format(u=u, v=v)}\n")


@pytest.mark.parametrize("first,second", [(0, 1), (1, 0)])
def test_edge_list_first_bad_line_wins_across_slices(capsys, tmp_path, first, second):
    # A duplicate edge and a range error in different slices: the earlier
    # line is reported, whichever of the two it is.
    edges = slice_test_lines(random.Random(5), 300, 14_000)
    u, v = edges[0]
    bad = [f"{u} {v}", f"{u} 999"]
    messages = [f"duplicate edge {u} {v}", "need 0 <= u < v < 300"]
    lines = [f"{a} {b}" for a, b in edges]
    lines.insert(12_500, bad[second])
    lines.insert(10_000, bad[first])
    graph = write(tmp_path, "g.txt", f"300 {len(lines)}\n" + "\n".join(lines) + "\n")
    code, _, err = run(capsys, ["solve", graph])
    assert (code, err) == (1, f"error: {graph}:10002: {messages[first]}\n")
    # A decoding error in a later slice still comes first.
    with open(graph, "ab") as handle:
        handle.write(b"# caf\xc3\xa9\n")
    code, _, err = run(capsys, ["solve", graph])
    assert code == 1 and "codec can't decode" in err


def test_edge_list_huge_header_costs_nothing_before_the_count(tmp_path):
    rng = random.Random(3)
    spread = [rng.randrange(10**6) for _ in range(2_000)]
    edges = sorted({tuple(sorted(rng.sample(spread, 2))) for _ in range(12_000)})
    body = "".join(f"{u} {v}\n" for u, v in edges)
    graph = write(tmp_path, "g.txt", f"{10**6} {len(edges) + 1}\n{body}")
    tracemalloc.start()
    try:
        with pytest.raises(cli.FileFormatError, match="header announces"):
            cli.read_edge_list(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "argv, target",
    [
        (["solve", "G"], "ftmd.cli.read_edge_list"),
        (["solve", "G", "--cotree", "--verify"], "ftmd.cli.read_edge_list"),
        (["solve", "G", "--oracle"], "ftmd.cli.read_edge_list"),
        (["check", "G", "ft", "0", "1"], "ftmd.cli.read_edge_list"),
        (["gen", "5", "0"], "ftmd.cli.random_cotree"),
        (["bench", "--max-exp", "10"], "ftmd.bench.run_scaling"),
    ],
)
def test_out_of_memory_is_an_error_line(capsys, monkeypatch, argv, target):
    # A header n that the machine cannot hold ends in MemoryError; raised
    # here by hand, so that no test takes the memory.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", "error: out of memory\n")


def weight_test_lines(rng, n, count):
    """``count`` distinct vertices of ``n``, shuffled, each with an integer
    weight."""
    return [(v, rng.randrange(10**6)) for v in rng.sample(range(n), count)]


@pytest.mark.parametrize("lead", [0, 1, 7, 4099])
def test_weight_file_slices_match_line_by_line(tmp_path, lead):
    # Over 3 slices; the leading comment moves where they cut.
    rng = random.Random(lead)
    n = 20_000
    pairs = weight_test_lines(rng, n, n - 500)  # 500 vertices keep weight 1
    texts = [str(w) for _, w in pairs]
    for i in rng.sample(range(len(texts)), 40):
        texts[i] += rng.choice((".5", ".25", ".125", ".0"))
    lines = [f"{v} {w}" for (v, _), w in zip(pairs, texts)]
    # Irregular lines in some slices, none in others.
    for i in rng.sample(range(len(lines) // 2), 60):
        v, w = pairs[i][0], texts[i]
        odd = rng.choice(
            (f"{v}\t{w}", f"+{v} {w}", f"{v} 00{w}", f" {v} {w} ", f"{v}  {w}")
        )
        lines[i] = rng.choice(("", "# note", "  ", "\t# x")) + "\n" + odd
    text = f"#{'c' * lead}\n" + "\n".join(lines)
    text = text.replace("\n", "\r\n", 3000)  # CRLF in the first slices only
    weights = write_bytes(tmp_path, "w.txt", text.encode())  # no final newline
    assert len(text) > 3 * cli._SLICE
    expected = [1] * n
    for (v, _), w in zip(pairs, texts):
        expected[v] = Fraction(w) if "." in w else int(w)
    body = "".join(f"{v}\t{w}\n" for (v, _), w in zip(pairs, texts))
    tabs = write(tmp_path, "tabs.txt", body)  # every line off the bulk path
    got = cli.read_weights(weights, n)
    assert got == expected == cli.read_weights(tabs, n)
    # Integer weights stay int, in bulk and line by line alike.
    assert list(map(type, got)) == list(map(type, expected))


def test_weight_file_comment_keeps_its_slice_in_bulk(tmp_path, monkeypatch):
    pairs = weight_test_lines(random.Random(9), 14_000, 14_000)
    lines = [f"{v} {w}" for v, w in pairs]
    lines[3_000] += ".5"
    lines.insert(7_000, "# " + "note " * 600)
    weights = write(tmp_path, "w.txt", "\n".join(lines) + "\n")
    calls = count_line_by_line(monkeypatch)
    expected = [0] * 14_000
    for v, w in pairs:
        expected[v] = w
    expected[pairs[3_000][0]] += Fraction(1, 2)
    assert cli.read_weights(weights, 14_000) == expected
    assert len(calls) < 200


def test_weight_file_runs_of_ids_are_stored_by_slice(tmp_path, monkeypatch):
    # A piece whose ids ascend with no gaps is stored by slice assignment;
    # any other piece by the per-vertex loop. Neither reads line by line.
    rng = random.Random(32)
    n = 20_000
    ws = [rng.randrange(10**6) for _ in range(n)]
    order = list(range(3_000, n)) + rng.sample(range(3_000), 3_000)
    calls = count_line_by_line(monkeypatch)
    path = write(tmp_path, "w.txt", "".join(f"{v} {ws[v]}\n" for v in order))
    assert cli.read_weights(path, n) == ws
    assert not calls
    # Vertex 15000 listed on line 1, many slices before the run that lists
    # it again on line 15002; and a run that goes past n.
    lines = [f"{v} {ws[v]}" for v in range(n)]
    for body, message in [
        (["15000 7"] + lines, "15002: vertex 15000 listed twice"),
        (lines + ["20000 7", "20001 7"], "20001: vertex 20000 out of range for n=20000"),
    ]:
        path = write(tmp_path, "w.txt", "\n".join(body) + "\n")
        assert len("\n".join(body[:15_000])) > 8 * cli._SLICE
        with pytest.raises(cli.FileFormatError) as exc:
            cli.read_weights(path, n)
        assert str(exc.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "bad,message",
    [
        ("{v} 5", "vertex {v} listed twice"),
        ("{r} 5", "vertex {r} listed twice"),
        ("20000 5", "vertex 20000 out of range for n=20000"),
        ("{u} x", "weight line must be 'v w'"),
        ("{u} 1_0", "weight line must be 'v w'"),
        ("{u} 5 1", "weight line must be 'v w'"),
        ("{u} " + "1" * 5000, "weight line must be 'v w'"),
        ("{u} inf", "non-finite weight for vertex {u}"),
        ("{u} -7", "negative weight for vertex {u}"),
    ],
)
def test_weight_file_errors_after_the_first_slice(tmp_path, bad, message):
    # Vertex u is listed nowhere else, v on line 11, r on line 9,991 (in
    # the same slice as line 10,001).
    pairs = weight_test_lines(random.Random(4), 20_000, 19_000)
    u = min(set(range(20_000)) - {v for v, _ in pairs})
    v, r = pairs[10][0], pairs[9_990][0]
    lines = [f"{a} {w}" for a, w in pairs]
    lines.insert(10_000, bad.format(u=u, v=v, r=r))
    weights = write(tmp_path, "w.txt", "\n".join(lines) + "\n")
    assert len("\n".join(lines[:10_000])) > cli._SLICE
    with pytest.raises(cli.FileFormatError) as exc:
        cli.read_weights(weights, 20_000)
    assert str(exc.value) == f"{weights}:10001: {message.format(u=u, v=v, r=r)}"


@pytest.mark.parametrize("first,second", [(0, 1), (1, 0)])
def test_weight_file_first_bad_line_wins_across_slices(capsys, tmp_path, first, second):
    # A repeated vertex and a range error in different slices: the earlier
    # line is reported, whichever of the two it is.
    pairs = weight_test_lines(random.Random(6), 20_000, 14_000)
    v = pairs[0][0]
    bad = [f"{v} 3", "20000 3"]
    messages = [f"vertex {v} listed twice", "vertex 20000 out of range for n=20000"]
    lines = [f"{a} {w}" for a, w in pairs]
    lines.insert(12_500, bad[second])
    lines.insert(10_000, bad[first])
    weights = write(tmp_path, "w.txt", "\n".join(lines) + "\n")
    graph = write(tmp_path, "g.txt", "20000 0\n")
    code, _, err = run(capsys, ["solve", graph, "--weights", weights])
    assert (code, err) == (1, f"error: {weights}:10001: {messages[first]}\n")
    # A decoding error in a later slice still comes first.
    with open(weights, "ab") as handle:
        handle.write(b"# caf\xc3\xa9\n")
    code, _, err = run(capsys, ["solve", graph, "--weights", weights])
    assert code == 1 and "codec can't decode" in err


def test_integer_weights_leave_fractions_unimported(tmp_path):
    # The lazy import of fractions saves startup time on integer weights.
    src = Path(ftmd.__file__).resolve().parent.parent
    for body, weights, imported in [
        ("0 3\n# c\n+1 4\n 2 007\n", [3, 4, 7], False),
        ("0 3\n1 2.5\n", [3, "5/2", 1], True),
    ]:
        path = write(tmp_path, "w.txt", body)
        code = (
            "import sys; from ftmd import cli; "
            f"print(list(map(str, cli.read_weights({path!r}, 3))), "
            "'fractions' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == f"{list(map(str, weights))} {imported}\n"


def test_check_yes(capsys, p3_file):
    code, out, _ = run(capsys, ["check", p3_file, "ft", "0", "2"])
    assert code == 0
    assert out == "YES\n"


def test_check_no_reports_pair(capsys, p3_file):
    code, out, _ = run(capsys, ["check", p3_file, "ft", "0", "1"])
    assert code == 3
    assert out.startswith("NO: ")
    u, v = map(int, out.split(":")[1].split())
    assert (u, v) == (0, 2)


@pytest.mark.parametrize(
    "graph,mode,vertices,pair,search",
    [
        ("p3", "resolving", ["1"], "0 2", "cotree_weak_pair"),
        ("p3", "ft", ["0", "1"], "0 2", "cotree_weak_pair"),
        ("p3", "2nr", ["0", "1"], "0 2", "cotree_weak_pair"),
        ("c5", "resolving", ["0"], "1 4", "first_unresolved_pair"),
        ("c5", "ft", ["0", "1"], "0 2", "first_unresolved_pair"),
        ("c5", "2nr", ["0", "2"], "0 4", "first_low_h_pair"),
    ],
)
def test_check_runs_one_pair_search(
    capsys, monkeypatch, tmp_path, p3_file, graph, mode, vertices, pair, search
):
    # One search per answer: the cotree walk on a cograph, the definition
    # on the 5-cycle. Counted also where the predicates look the searches
    # up, so that a predicate evaluated beside the search would count.
    searches = ("cotree_weak_pair", "first_unresolved_pair", "first_low_h_pair")
    calls = {name: count_calls(monkeypatch, name) for name in searches}
    path = p3_file if graph == "p3" else write(tmp_path, "c5.txt", C5)
    code, out, _ = run(capsys, ["check", path, mode, *vertices])
    assert (code, out) == (3, f"NO: {pair}\n")
    assert {name: len(c) for name, c in calls.items()} == {s: int(s == search) for s in searches}


def test_check_modes(capsys, p3_file):
    assert run(capsys, ["check", p3_file, "resolving", "0"])[0] == 0
    assert run(capsys, ["check", p3_file, "2nr", "0", "1", "2"])[0] == 0
    assert run(capsys, ["check", p3_file, "resolving"])[0] == 3


def test_check_out_of_range_vertex(capsys, p3_file):
    code, _, err = run(capsys, ["check", p3_file, "ft", "7"])
    assert code == 1
    assert "out of range" in err


def count_calls(monkeypatch, name):
    """A list that records every call of ``ftmd.resolving``'s function
    ``name``, also where ``ftmd.cli`` looks it up if it imports it."""
    import ftmd.resolving

    calls = []
    original = getattr(ftmd.resolving, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ftmd.resolving, name, counting)
    if hasattr(cli, name):
        monkeypatch.setattr(cli, name, counting)
    return calls


DEFINITIONAL = ("first_unresolved_pair", "first_low_h_pair")


@pytest.mark.parametrize(
    "n,mode",
    # Mode ft keeps the bare ids [3] and [2048].
    [pytest.param(n, m, id=str(n) if m == "ft" else f"{n}-{m}") for n in (3, 2**11) for m in MODES],
)
def test_check_ft_yes_on_a_cograph_runs_no_pair_search(capsys, monkeypatch, tmp_path, n, mode):
    # A star with every leaf chosen; at 2^11 the pair search took minutes.
    body = "".join(f"0 {v}\n" for v in range(1, n))
    graph = write(tmp_path, "star.txt", f"{n} {n - 1}\n{body}")
    calls = [count_calls(monkeypatch, name) for name in DEFINITIONAL]
    code, out, _ = run(capsys, ["check", graph, mode, *map(str, range(1, n))])
    assert (code, out, calls) == (0, "YES\n", [[], []])


def test_check_ft_matches_the_pair_search_on_random_cographs(capsys, tmp_path):
    rng = random.Random(25)
    disconnected = []
    for _ in range(300):
        n = rng.randint(1, 14)
        tree = relabel(ftmd.random_cotree(n, rng.randrange(2**32)), rng.sample(range(n), n))
        g = realize(tree)
        disconnected.append(len(connected_components(g)) > 1)
        edges = g.edges()
        body = "".join(f"{u} {v}\n" for u, v in edges)
        graph = write(tmp_path, "g.txt", f"{n} {len(edges)}\n{body}")
        best = ftmd.solve(g).vertices
        sets = [best, rng.sample(range(n), rng.randint(0, n))]
        if best:
            sets.append(set(best) - {rng.choice(best)})
        for r, mode in itertools.product(sets, MODES):
            pair = first_failing_pair(g, r, mode)
            expected = (0, "YES\n") if pair is None else (3, f"NO: {pair[0]} {pair[1]}\n")
            code, out, _ = run(capsys, ["check", graph, mode, *map(str, r)])
            assert (code, out) == expected
    assert 0 < sum(disconnected) < len(disconnected)


C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


@pytest.mark.parametrize(
    "text,vertices,answer",
    [
        (C5, [], "NO: 0 1"),
        (C5, [0, 1], "NO: 0 2"),
        (C5, [0, 2, 4], "YES"),
        (C5, [0, 1, 2, 3, 4], "YES"),
        ("0 0\n", [], "YES"),
        ("1 0\n", [], "YES"),
        ("1 0\n", [0], "YES"),
    ],
)
def test_check_ft_on_other_graphs_keeps_the_pair_search(capsys, tmp_path, text, vertices, answer):
    # The 5-cycle is no cograph and the empty graph has no cotree.
    graph = write(tmp_path, "g.txt", text)
    code, out, _ = run(capsys, ["check", graph, "ft", *map(str, vertices)])
    assert (code, out) == (0 if answer == "YES" else 3, answer + "\n")


def test_verify_and_check_ft_reach_the_certificate_through_certify(capsys, monkeypatch, p3_file):
    realises = count_calls(monkeypatch, "realises")
    weak_pairs = count_calls(monkeypatch, "cotree_weak_pair")
    assert run(capsys, ["solve", p3_file, "--verify"])[:2] == (0, "2\n0 2\n")
    assert run(capsys, ["check", p3_file, "ft", "0", "2"])[:2] == (0, "YES\n")
    g = cli.read_edge_list(p3_file)
    assert ftmd.solve(g).verify(g)
    assert len(realises) == len(weak_pairs) == 3


@pytest.mark.parametrize(
    "mode,answer", [("resolving", "1022 1023"), ("ft", "1022 1023"), ("2nr", "1 1022")]
)
def test_check_names_the_least_pair_of_a_cograph_without_the_pair_search(
    capsys, monkeypatch, tmp_path, mode, answer
):
    # A star on 0..1021 with its leaves chosen, and an unchosen edge
    # 1022-1023: the definitional search takes seconds to name these pairs.
    body = "".join(f"0 {v}\n" for v in range(1, 1022)) + "1022 1023\n"
    graph = write(tmp_path, "g.txt", f"1024 1022\n{body}")
    calls = [count_calls(monkeypatch, name) for name in DEFINITIONAL]
    code, out, _ = run(capsys, ["check", graph, mode, *map(str, range(1, 1022))])
    assert (code, out, calls) == (3, f"NO: {answer}\n", [[], []])


def test_check_falls_back_to_the_definition_when_the_cotree_is_not_the_graphs(
    capsys, monkeypatch, p3_file
):
    # The star centred on 0 is not P3's tree; on it {0, 2} fails at 1 2.
    monkeypatch.setattr(cli, "build_cotree", lambda g: parse_cotree("(C (U L0 (C (U L1 L2))))"))
    walks = count_calls(monkeypatch, "cotree_weak_pair")
    assert run(capsys, ["check", p3_file, "ft", "0", "2"])[:2] == (0, "YES\n")
    assert walks == []


def test_solve_verify_rejects_a_set_missing_one_member(capsys, monkeypatch, p3_file):
    original = cli.solve

    def short(g, weights=None):
        solution = original(g, weights)
        return solution._replace(vertices=solution.vertices[1:])

    monkeypatch.setattr(cli, "solve", short)
    code, out, err = run(capsys, ["solve", p3_file, "--verify"])
    assert (code, out) == (1, "2\n2\n")
    assert err == (
        "error: solution failed fault-tolerance verification: "
        "pair 0 1 separated fewer than twice\n"
    )


def test_gen_single_vertex(capsys):
    code, out, _ = run(capsys, ["gen", "1", "0"])
    assert code == 0
    assert out == "1 0\n# cotree: L0\n"


def test_gen_deterministic(capsys):
    _, first, _ = run(capsys, ["gen", "9", "3"])
    _, second, _ = run(capsys, ["gen", "9", "3"])
    assert first == second


def test_gen_rejects_zero(capsys):
    code, _, _ = run(capsys, ["gen", "0", "0"])
    assert code == 1


@pytest.mark.parametrize("n,seed", [(1, 4), (2, 0), (2, 2), (5, 0), (40, 0), (300, 3)])
def test_gen_writes_the_sorted_edges_of_its_cotree(capsys, n, seed):
    tree = ftmd.random_cotree(n, seed)
    g = realize(tree)
    edges = g.edges()
    expected = [f"{g.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    expected.append(f"# cotree: {ftmd.format_cotree(tree)}")
    code, out, _ = run(capsys, ["gen", str(n), str(seed)])
    assert code == 0 and out == "\n".join(expected) + "\n"
    if (n, seed) == (5, 0):
        assert len(connected_components(g)) > 1


def test_gen_builds_no_graph(capsys, monkeypatch):
    # The expected text comes from the reference realizer, which shares no
    # code with the walk that gen writes from.
    tree = ftmd.random_cotree(300, 3)
    edges = reference_cotree.realize(tree).edges()
    expected = [f"300 {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    expected.append(f"# cotree: {ftmd.format_cotree(tree)}")

    def refuse(*args):
        raise AssertionError("ftmd gen built a Graph")

    monkeypatch.setattr(ftmd.cotree, "realize", refuse)
    monkeypatch.setattr(ftmd.graph.Graph, "_unchecked", refuse)
    code, out, _ = run(capsys, ["gen", "300", "3"])
    assert code == 0 and out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("n,seed", [(2, 0), (7, 1), (12, 5), (20, 9)])
def test_gen_output_feeds_solve(capsys, tmp_path, n, seed):
    code, out, _ = run(capsys, ["gen", str(n), str(seed)])
    assert code == 0
    instance = write(tmp_path, "gen.txt", out)
    code, solved, _ = run(capsys, ["solve", instance, "--verify"])
    assert code == 0
    assert len(solved.splitlines()) == 2
    # The emitted cotree comment matches the emitted edge list.
    cotree_line = out.splitlines()[-1]
    tree = parse_cotree(cotree_line.split(":", 1)[1].strip())
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    n_declared, m_declared = map(int, lines[0].split())
    edges = [tuple(map(int, l.split())) for l in lines[1:]]
    assert len(edges) == m_declared
    assert realize(tree) == from_edges(n_declared, edges)


def test_bench_table_shape(capsys):
    code, out, _ = run(capsys, ["bench", "--max-exp", "10", "--repeats", "1"])
    assert code == 0
    lines = out.splitlines()
    # The table prints every field of a row, in order.
    from ftmd.bench import BenchRow

    assert lines[0] == "n nodes seconds" == " ".join(BenchRow._fields)
    assert len(lines) == 2
    n, nodes, seconds = lines[1].split()
    assert int(n) == 1024
    assert 2 * 1024 - 1 <= int(nodes) <= 3 * 1024 - 2
    assert float(seconds) > 0


def test_bench_rejects_large_exponent(capsys):
    code, _, _ = run(capsys, ["bench", "--max-exp", "21"])
    assert code == 1


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
