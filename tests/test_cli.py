import contextlib
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gtt import BadShape
from gtt.cli import BENCH_MAX_N, main, parse_angle, read_matrix, read_vector, write_vector


def write_csv(path, values):
    with open(path, "w") as fh:
        for z in values:
            z = complex(z)
            fh.write(f"{z.real!r},{z.imag!r}\n")


def test_parse_angle_tokens():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("pi/4") == math.pi / 4
    assert parse_angle("pi/8") == math.pi / 8
    assert parse_angle("-pi/4") == -math.pi / 4
    assert parse_angle("0.25") == 0.25


def test_vector_round_trip_csv(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    p = str(tmp_path / "v.csv")
    write_vector(v, p)
    assert np.array_equal(read_vector(p), v)


def test_vector_round_trip_json(tmp_path):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    p = str(tmp_path / "v.json")
    write_vector(v, p)
    assert np.array_equal(read_vector(p), v)


def test_transform_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    src = str(tmp_path / "in.csv")
    mid = str(tmp_path / "mid.csv")
    back = str(tmp_path / "back.csv")
    write_csv(src, v)
    assert main(["transform", src, "--base", "hadamard", "--n", "2", "--out", mid]) == 0
    assert (
        main(["transform", mid, "--base", "hadamard", "--n", "2", "--inverse", "--out", back])
        == 0
    )
    assert np.max(np.abs(read_vector(back) - v)) < 1e-12


def test_transform_dft_unit_vector(tmp_path):
    src = str(tmp_path / "e0.csv")
    out = str(tmp_path / "out.csv")
    write_csv(src, [1.0] + [0.0] * 8)
    assert main(["transform", src, "--base", "dft:3", "--n", "2", "--out", out]) == 0
    assert np.max(np.abs(read_vector(out) - 1.0 / 3.0)) < 1e-12


def test_transform_s1_spectrum(tmp_path):
    from gtt import builtin_signal

    src = str(tmp_path / "s1.csv")
    out = str(tmp_path / "spec.csv")
    write_csv(src, builtin_signal("s1"))
    rc = main(
        ["transform", src, "--base", "u3:0.7853981633974483,1.0471975511965976,0.5235987755982988",
         "--n", "3", "--out", out]
    )
    assert rc == 0
    spec = read_vector(out)
    assert np.max(np.abs(spec - [0.914, 0, 0, 0.406, 0, 0, 0, 0])) < 5e-3


def test_length_mismatch_exit_code(tmp_path):
    src = str(tmp_path / "v.csv")
    write_csv(src, [1.0, 0.0, 0.0])
    assert main(["transform", src, "--base", "hadamard", "--n", "2"]) == 3


def test_non_unitary_matrix_file_exit_code(tmp_path):
    mfile = str(tmp_path / "m.csv")
    with open(mfile, "w") as fh:
        fh.write("1,0,1,0\n1,0,1,0\n")
    src = str(tmp_path / "v.csv")
    write_csv(src, [1.0, 0.0])
    assert main(["transform", src, "--base", mfile, "--n", "1"]) == 4


def test_bad_argument_exit_code(tmp_path):
    src = str(tmp_path / "v.csv")
    write_csv(src, [1.0, 0.0])
    assert main(["transform", src, "--base", "u3:nonsense", "--n", "1"]) == 2


def test_nan_state_exit_code(tmp_path, capsys):
    src = str(tmp_path / "nan.csv")
    write_csv(src, [float("nan"), 0.0])
    args = ["compress", src, "--base", "hadamard", "--n", "1", "--k", "1",
            "--mode", "quantum"]
    assert main(args) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "text", ["[1, 2, 3, 4]", "[[1, 0], [0]]", '[["a", 0]]', "[[1, null]]", "[]"]
)
def test_malformed_json_vector(tmp_path, text):
    src = tmp_path / "v.json"
    src.write_text(text)
    with pytest.raises(BadShape):
        read_vector(str(src))
    assert main(["transform", str(src), "--base", "hadamard", "--n", "1"]) == 2


@pytest.mark.parametrize(
    "text", ["[[1, 0], [0, 1]]", "[[[1, 0], [0, 0]], [[0, 0]]]", "[1, 0]"]
)
def test_malformed_json_matrix(tmp_path, text):
    mfile = tmp_path / "m.json"
    mfile.write_text(text)
    with pytest.raises(BadShape):
        read_matrix(str(mfile))
    src = str(tmp_path / "v.csv")
    write_csv(src, [1.0, 0.0])
    assert main(["transform", src, "--base", str(mfile), "--n", "1"]) == 2


@pytest.mark.parametrize(
    "name,text",
    [("v.csv", "nan,0\n1,0\n"), ("v.csv", "1,0\ninf\n"),
     ("v.json", "[[NaN, 0], [1, 0]]"), ("v.json", "[[1, 0], [0, -Infinity]]")],
)
def test_non_finite_vector_rejected(tmp_path, capsys, name, text):
    src = tmp_path / name
    src.write_text(text)
    with pytest.raises(BadShape):
        read_vector(str(src))
    assert main(["transform", str(src), "--base", "hadamard", "--n", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "name,text",
    [("m.csv", "nan,0,0,0\n0,0,1,0\n"),
     ("m.json", "[[[1, 0], [0, 0]], [[0, 0], [Infinity, 0]]]")],
)
def test_non_finite_matrix_rejected(tmp_path, name, text):
    mfile = tmp_path / name
    mfile.write_text(text)
    with pytest.raises(BadShape):
        read_matrix(str(mfile))


MALFORMED = [
    ("abc.csv", b"1,0\nabc\n"),
    ("bytes.csv", b"\xff\xfe"),
    ("bytes.json", b"\xff\xfe"),
    ("truncated.json", b"[[1, 0], [0,"),
    ("deep.json", b"[" * 100000),
    ("ragged.csv", b"1,0,0,0\n1,0\n"),
    ("bools.json", b"[[true, 0], [0, false]]"),
    ("bool-rows.json", b"[[[1, 0], [0, 0]], [[0, 0], [true, 0]]]"),
]


@pytest.mark.parametrize("name,content", MALFORMED, ids=[m[0] for m in MALFORMED])
@pytest.mark.parametrize("kind", ["vector", "matrix"])
def test_malformed_file_is_bad_shape(tmp_path, capsys, kind, name, content):
    bad = tmp_path / name
    bad.write_bytes(content)
    good = tmp_path / "good.csv"
    write_csv(good, [1.0, 0.0])
    if kind == "vector":
        read, args = read_vector, ["transform", str(bad), "--base", "hadamard", "--n", "1"]
    else:
        read, args = read_matrix, ["transform", str(good), "--base", str(bad), "--n", "1"]
    with pytest.raises(BadShape):
        read(str(bad))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert str(bad) in captured.err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=16,
)
_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet="0123456789.,-+eEinfa[] \n", max_size=64).map(str.encode),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
)


@given(st.sampled_from([".csv", ".json"]), _FILE_BYTES)
@settings(max_examples=300, deadline=None)
def test_readers_return_finite_array_or_bad_shape(suffix, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f" + suffix)
        with open(path, "wb") as fh:
            fh.write(content)
        for read, ndim in ((read_vector, 1), (read_matrix, 2)):
            try:
                arr = read(path)
            except BadShape:
                continue
            assert arr.dtype == np.complex128 and arr.ndim == ndim
            assert arr.size > 0 and np.all(np.isfinite(arr))


def test_csv_vector_reader_holds_no_object_per_line(tmp_path):
    # 2**16 lines make a 1 MiB array; a Python object per line costs about 10x that
    rng = np.random.default_rng(65536)
    v = rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16)
    src = str(tmp_path / "big.csv")
    write_vector(v, src)
    tracemalloc.start()
    try:
        read = read_vector(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read, v)
    assert peak < 3 * 2**20


def test_compress_report(tmp_path):
    out = str(tmp_path / "report.json")
    rc = main(
        ["compress", "s1", "--base", "u3:pi/4,1.0471975511965976,0.5235987755982988",
         "--n", "3", "--k", "2", "--out", out]
    )
    assert rc == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["indices"] == [0, 3]
    assert abs(report["fidelity"] - 1.0) < 5e-3
    assert list(report)[:2] == ["indices", "k"]


def test_compress_quantum_matches_hybrid(tmp_path):
    out_h = str(tmp_path / "h.json")
    out_q = str(tmp_path / "q.json")
    args = ["compress", "s2", "--base", "hadamard", "--n", "3", "--k", "3"]
    assert main(args + ["--out", out_h]) == 0
    assert main(args + ["--mode", "quantum", "--out", out_q]) == 0
    h = json.load(open(out_h))
    q = json.load(open(out_q))
    assert h["indices"] == q["indices"]
    assert abs(q["success_probability"] - h["mass"]) < 1e-12
    assert np.max(np.abs(np.array(q["transmitted"]) - np.array(h["compressed"]))) < 1e-12


def test_filter_outputs(tmp_path):
    raw = [0.9, 0.7, 0.5, 0.3, 0.1, -0.1, -0.3, -0.5,
           -0.4, -0.2, 0.0, 0.2, 0.3, 0.1, -0.1, 0.0]
    src = str(tmp_path / "sig.csv")
    write_csv(src, raw)
    prefix = str(tmp_path / "flt")
    rc = main(["filter", src, "--theta", "pi/4", "--n", "4", "--cutoff", "4",
               "--out-prefix", prefix])
    assert rc == 0
    low = read_vector(prefix + ".low.csv")
    high = read_vector(prefix + ".high.csv")
    state = np.array(raw) / np.linalg.norm(raw)
    assert np.max(np.abs(low + high - state)) < 1e-12
    assert abs(low[0] - 0.3931) < 1e-3
    assert abs(high[0] - 0.1940) < 1e-3
    with open(prefix + ".stems.tsv") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "index\tlow\thigh"
    assert len(lines) == 17


def test_encode_fixed_theta(tmp_path):
    out = str(tmp_path / "enc.json")
    rc = main(["encode", "--signal", "table2", "--k", "16", "--theta", "pi/2",
               "--out", out])
    assert rc == 0
    report = json.load(open(out))
    assert abs(report["gtt_fidelity"] - 1.0) < 1e-12


def test_encode_optimized_sparse_instance(tmp_path):
    from gtt import GTTOperator, gtt_inverse_apply, u3

    rng = np.random.default_rng(5)
    spectrum = np.zeros(8, dtype=np.complex128)
    spectrum[[1, 4]] = rng.standard_normal(2)
    spectrum /= np.linalg.norm(spectrum)
    state = gtt_inverse_apply(GTTOperator(u3(0.4, 0.0, math.pi), 3), spectrum)
    src = str(tmp_path / "sparse.csv")
    write_csv(src, state)
    out = str(tmp_path / "enc.json")
    assert main(["encode", "--signal", src, "--k", "2", "--out", out]) == 0
    report = json.load(open(out))
    assert report["gtt_fidelity"] >= 1.0 - 1e-9


_ANGLE_TOKEN = st.one_of(
    st.floats(0.0, 2 * math.pi).map(repr),
    st.floats(-10.0, 20.0).map(repr),
    st.sampled_from(["0", "pi", "pi/2", "-pi/4", "nan", "inf", "1e300", "", "a"]),
    st.text(max_size=4),
)


@given(
    st.one_of(st.integers(1, 16).map(str), st.integers(-2, 20).map(str), st.text(max_size=4)),
    st.one_of(
        st.lists(_ANGLE_TOKEN, min_size=1, max_size=3).map(",".join),
        _ANGLE_TOKEN,
        st.text(max_size=8),
    ),
)
@settings(max_examples=80, deadline=None)
def test_encode_exits_0_or_2_without_traceback(k, restarts):
    out, err = io.StringIO(), io.StringIO()
    argv = ["encode", "--signal", "table2", "--k", k, "--restarts", restarts]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the token
            rc = exc.code
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        report = json.loads(out.getvalue())
        for name in ("theta", "phi", "lambda"):
            assert 0.0 <= report[name] <= 2 * math.pi



@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 2.0**-1070], ids=["huge", "tiny", "subnormal"])
def test_vector_scale_does_not_change_reports(tmp_path, capsys, scale):
    # squares of entries this large or small leave the float range; scaled
    # by a power of two, the input normalizes to the same bits
    raw = [2.0, 1.0, -1.0, 0.5j, 0.0, 0.25, -0.75, 1.0]
    files = []
    for name, s in (("unit.csv", 1.0), ("scaled.csv", scale)):
        write_csv(tmp_path / name, [z * s for z in raw])
        assert main(["compress", str(tmp_path / name), "--base", "hadamard", "--n", "3",
                     "--k", "3", "--mode", "quantum"]) == 0
        files.append(capsys.readouterr())
    assert files[0].out == files[1].out and files[1].err == ""

# fuzzed compress --mode quantum and filter: a valid command with any of its
# tokens or files replaced by arbitrary ones; only exit codes 0/2/3/4, no
# traceback, and no NaN or Infinity in what an exit 0 writes
_SIZE_TOKEN = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["100000000000", "1000000000000000000000", "1.5", ""]),
    st.text(max_size=3),
)
_BASE_TOKEN = st.one_of(
    st.sampled_from(["dft:x", "u3:", "u3:1,2", "MATRIX"]),
    st.integers(-2, 5).map("dft:{}".format),
    st.sampled_from(["dft:100000000000", "dft:1000000000000000000000"]),
    st.lists(_ANGLE_TOKEN, min_size=1, max_size=4).map(lambda t: "u3:" + ",".join(t)),
    st.text(max_size=6),
)
_ENTRY = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(),  # any magnitude, nan and inf included
)


def _entries_file(entries, suffix: str) -> bytes:
    if suffix == ".json":
        return json.dumps([[z.real, z.imag] for z in entries]).encode()
    return "".join(f"{z.real!r},{z.imag!r}\n" for z in entries).encode()


def _vector_file(size: int, entry=_ENTRY):
    """(content, suffix) of a vector file of ``size`` drawn entries."""
    entries = st.lists(entry, min_size=size, max_size=size)
    return st.tuples(entries, st.sampled_from([".csv", ".json"]))


_VECTOR_FILE = st.one_of(
    st.sampled_from([1, 3, 9, 64]).flatmap(_vector_file),
    st.tuples(_FILE_BYTES, st.sampled_from([".csv", ".json"])),
)
_MATRIX_FILE = st.one_of(
    st.sampled_from([b"0,0,1,0\n1,0,0,0\n", b"1,0,1,0\n1,0,1,0\n"]),  # unitary, not
    _FILE_BYTES,
)


@st.composite
def _protocol_command(draw, command: str):
    """argv of a valid ``compress --mode quantum`` or ``filter`` call with a
    drawn set of its parts replaced; VEC, MATRIX and OUT stand for files."""
    b = draw(st.sampled_from([2, 3])) if command == "compress" else 2
    n = draw(st.integers(1, {2: 6, 3: 3}[b]))
    size = draw(st.integers(1, b**n))
    base = draw(st.sampled_from({2: ["hadamard", "u3:pi/4,pi/3,pi/6"], 3: ["dft:3"]}[b]))
    parts = {
        "n": str(n),
        "size": str(size),
        "base": base,
        "theta": repr(draw(st.floats(0.0, 2 * math.pi))),
        "vector": draw(_vector_file(b**n, st.complex_numbers(max_magnitude=4.0))),
    }
    replace = {
        "n": _SIZE_TOKEN,
        "size": _SIZE_TOKEN,
        "base": _BASE_TOKEN,
        "theta": _ANGLE_TOKEN,
        "vector": _VECTOR_FILE,
    }
    for part in draw(st.sets(st.sampled_from(sorted(replace)))):
        parts[part] = draw(replace[part])
    if command == "compress":
        argv = ["compress", "VEC", "--mode", "quantum", "--base", parts["base"],
                "--n", parts["n"], "--k", parts["size"]]
    else:
        argv = ["filter", "VEC", "--theta", parts["theta"], "--n", parts["n"],
                "--cutoff", parts["size"], "--out-prefix", "OUT"]
    vector, suffix = parts["vector"]
    if isinstance(vector, list):
        vector = _entries_file(vector, suffix)
    return argv, (vector, suffix), draw(_MATRIX_FILE)


def _run_protocol_command(argv, vector, matrix):
    """Run ``main`` on argv with VEC, MATRIX and OUT replaced by files in a
    fresh directory; returns (exit code, stdout, stderr, output files)."""
    with tempfile.TemporaryDirectory() as tmp:
        names = {"VEC": "v" + vector[1], "MATRIX": "m.csv", "OUT": "out"}
        for name, content in (("VEC", vector[0]), ("MATRIX", matrix)):
            with open(os.path.join(tmp, names[name]), "wb") as fh:
                fh.write(content)
        argv = [os.path.join(tmp, names[a]) if a in names else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                # an overflow or invalid value on the way is a failure too
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse rejects a token
                    rc = exc.code
        files = []
        for name in sorted(os.listdir(tmp)):
            if name.startswith("out"):
                with open(os.path.join(tmp, name)) as fh:
                    files.append(fh.read())
    return rc, out.getvalue(), err.getvalue(), files


def _check_clean_exit(rc, stderr, outputs):
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in stderr
    # a non-finite result would surface as json's refusal to write it
    assert "JSON compliant" not in stderr
    if rc == 0:
        assert outputs
        for text in outputs:
            assert not re.search(r"nan|inf", text, re.IGNORECASE)


@given(_protocol_command("compress"))
@settings(max_examples=80, deadline=None)
def test_compress_quantum_exits_cleanly(case):
    rc, stdout, stderr, _ = _run_protocol_command(*case)
    _check_clean_exit(rc, stderr, [stdout] if rc == 0 else [])
    if rc == 0:
        report = json.loads(stdout)
        assert abs(report["success_probability"] - report["mass"]) < 1e-12


@given(_protocol_command("filter"))
@settings(max_examples=80, deadline=None)
def test_filter_exits_cleanly(case):
    rc, _, stderr, files = _run_protocol_command(*case)
    _check_clean_exit(rc, stderr, files)
    if rc == 0:
        assert len(files) == 5


@pytest.mark.parametrize("inverse", [[], ["--inverse"]], ids=["forward", "inverse"])
def test_transform_overflow_exits_2(tmp_path, capsys, inverse):
    # every entry is finite, but the first output, 2e308, is not
    src, out = tmp_path / "big.csv", tmp_path / "out.csv"
    src.write_text("1e308\n" * 4)
    argv = ["transform", str(src), "--base", "hadamard", "--n", "2", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + inverse) == 2
    err = capsys.readouterr().err
    assert "float range" in err and "Traceback" not in err
    assert not out.exists()


@st.composite
def _transform_command(draw):
    """argv of a valid ``transform`` call with a drawn set of its --n,
    --base and --inverse tokens or its vector file replaced."""
    b = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, {2: 6, 3: 3}[b]))
    parts = {
        "n": str(n),
        "base": draw(st.sampled_from({2: ["hadamard", "u3:pi/4,pi/3,pi/6"], 3: ["dft:3"]}[b])),
        "inverse": draw(st.sampled_from([[], ["--inverse"]])),
        # small entries, or all equal near the float limit: a finite file
        # whose transform can overflow
        "vector": draw(
            st.one_of(
                _vector_file(b**n, st.complex_numbers(max_magnitude=4.0)),
                st.tuples(
                    st.sampled_from([1e308, -1e308, 1e308j, sys.float_info.max]).map(
                        lambda z: [complex(z)] * b**n
                    ),
                    st.sampled_from([".csv", ".json"]),
                ),
            )
        ),
    }
    replace = {
        "n": _SIZE_TOKEN,
        "base": _BASE_TOKEN,
        # one token, last, so an option that wants a value finds none; no
        # -h, which exits 0 with no output
        "inverse": st.one_of(
            st.sampled_from([["--inverse", "--inverse"], ["--inverse=1"], ["--inv"]]),
            st.text(max_size=4).filter(lambda t: not (t.startswith("-") and "h" in t)).map(
                lambda t: [t]
            ),
        ),
        # any entries at the valid length, any magnitude included
        "vector": st.one_of(_VECTOR_FILE, _vector_file(b**n)),
    }
    for part in draw(st.sets(st.sampled_from(sorted(replace)))):
        parts[part] = draw(replace[part])
    argv = ["transform", "VEC", "--base", parts["base"], "--n", parts["n"],
            "--out", "OUT", *parts["inverse"]]
    vector, suffix = parts["vector"]
    if isinstance(vector, list):
        vector = _entries_file(vector, suffix)
    return argv, (vector, suffix), draw(_MATRIX_FILE)


@given(_transform_command())
@settings(max_examples=80, deadline=None)
def test_transform_exits_cleanly(case):
    rc, _, stderr, files = _run_protocol_command(*case)
    _check_clean_exit(rc, stderr, files)
    if rc == 0:
        assert len(files) == 1


def _base_size(spec: str) -> int:
    """b of a --bases entry if it parses as dft:b, else 2 (hadamard, u3,
    and the 2 x 2 matrix files)."""
    low = spec.strip().lower()
    try:
        return int(low[4:]) if low.startswith("dft:") else 2
    except ValueError:
        return 2


def _timed_sizes(bases: str, sizes: str) -> list:
    """The b**n that ``bench`` would time beyond 2**12 elements."""
    large = []
    for spec, token in itertools.product(bases.split(","), sizes.split(",")):
        try:
            n = int(token)
        except ValueError:
            continue
        N = _base_size(spec) ** n if 1 <= n <= 64 else 0
        if 2**12 < N <= BENCH_MAX_N:
            large.append(N)
    return large


@st.composite
def _bench_command(draw):
    """argv of a valid ``bench`` call with its --bases or --sizes replaced;
    no draw times a vector longer than 2**12."""
    parts = {
        "bases": draw(st.sampled_from(["hadamard", "dft:3", "hadamard,u3:pi/4,pi/3,pi/6"])),
        "sizes": ",".join(map(str, draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))),
    }
    replace = {
        "bases": st.one_of(
            st.lists(st.one_of(_BASE_TOKEN, st.just("hadamard")), min_size=1, max_size=3).map(
                ",".join
            ),
            st.text(max_size=6),
        ),
        # the smallest sizes past BENCH_MAX_N for b = 2, 3, 4 among them
        "sizes": st.one_of(
            st.lists(st.one_of(_SIZE_TOKEN, st.sampled_from(["25", "16", "13"])),
                     min_size=1, max_size=3).map(",".join),
            st.text(max_size=6),
        ),
    }
    for part in draw(st.sets(st.sampled_from(sorted(replace)))):
        parts[part] = draw(replace[part])
    assume(not _timed_sizes(parts["bases"], parts["sizes"]))
    argv = ["bench", "--bases", parts["bases"], "--sizes", parts["sizes"], "--out", "OUT"]
    # MATRIX stands for the matrix file wherever it is a whole --bases entry
    argv[2] = ",".join("MATRIX_PATH" if b == "MATRIX" else b for b in argv[2].split(","))
    return argv, draw(_MATRIX_FILE)


@given(_bench_command())
@settings(max_examples=60, deadline=None)
def test_bench_exits_cleanly(case):
    argv, matrix = case
    with tempfile.TemporaryDirectory() as tmp:
        mfile, out = os.path.join(tmp, "m.csv"), os.path.join(tmp, "out.json")
        with open(mfile, "wb") as fh:
            fh.write(matrix)
        argv = [a.replace("MATRIX_PATH", mfile) if a != "OUT" else out for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse rejects a token
                    rc = exc.code
        report = json.load(open(out)) if os.path.exists(out) else None
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if rc == 0:
        for row in report["results"]:
            assert row["within_bound"] and row["N"] <= 2**12
            assert all(math.isfinite(v) for v in row.values() if isinstance(v, (int, float)))


def test_bench_report(tmp_path):
    out = str(tmp_path / "bench.json")
    rc = main(["bench", "--bases", "hadamard,dft:3", "--sizes", "2,4", "--out", out])
    assert rc == 0
    report = json.load(open(out))
    assert len(report["results"]) == 4
    for row in report["results"]:
        assert row["within_bound"]
        assert row["total"] <= 4 * row["N"] * row["b"] * row["n"]


@pytest.mark.parametrize(
    "args",
    [
        ["--sizes", "40"],
        ["--bases", "dft:3", "--sizes", "30"],
        ["--sizes", "25"],
        ["--bases", "dft:3", "--sizes", "16"],
        ["--bases", "dft:4", "--sizes", "2,13"],
    ],
    ids=["2^40", "3^30", "2^25", "3^16", "4^13"],
)
def test_bench_oversized_is_too_large(capsys, args):
    # rejected before the vectors are allocated: one of 2**25 entries
    # would take 512 MiB
    tracemalloc.start()
    try:
        assert main(["bench"] + args) == 2
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["transform", "VEC", "--base", "hadamard", "--n", "100000000000"],
        ["compress", "VEC", "--base", "hadamard", "--n", "100000000000", "--k", "1"],
        ["filter", "VEC", "--theta", "0.5", "--n", "100000000000", "--cutoff", "1",
         "--out-prefix", "OUT"],
        ["bench", "--sizes", "100000000000"],
    ],
    ids=["transform", "compress", "filter", "bench"],
)
def test_power_beyond_index_range_exits_2(tmp_path, capsys, args):
    # b**n is rejected before it is computed, so no 12.5 GB integer is built
    vec = str(tmp_path / "v.csv")
    write_csv(vec, [1.0, 0.0])
    argv = [vec if a == "VEC" else str(tmp_path / "f") if a == "OUT" else a for a in args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "exceeds the index range" in err and "Traceback" not in err


def test_bench_n1_base_case():
    # a single level performs exactly one b x b matvec worth of multiplies
    from gtt import GTTOperator, OpCounter, gtt_apply, hadamard

    op = GTTOperator(hadamard(), 1)
    c = OpCounter()
    gtt_apply(op, np.array([1.0, 0.0]), c)
    assert c.mults == 4


def test_deterministic_outputs(tmp_path):
    src = str(tmp_path / "v.csv")
    write_csv(src, np.linspace(0.1, 0.8, 8))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["transform", src, "--base", "hadamard", "--n", "3", "--out", out]) == 0
        outs.append(open(out).read())
    assert outs[0] == outs[1]


def _csv_text(v) -> str:
    return "".join(f"{format(z.real, '.17g')},{format(z.imag, '.17g')}\n" for z in v)


def _json_pairs(v) -> str:
    return json.dumps([[float(z.real), float(z.imag)] for z in v]) + "\n"


def _report_text(report) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("inverse", [False, True])
def test_transform_output_format(tmp_path, capsys, inverse):
    from gtt import GTTOperator, dft_matrix, gtt_apply, gtt_inverse_apply

    rng = np.random.default_rng(7)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    src = str(tmp_path / "in.csv")
    write_csv(src, v)
    op = GTTOperator(dft_matrix(3), 2)
    y = gtt_inverse_apply(op, v) if inverse else gtt_apply(op, v)
    args = ["transform", src, "--base", "dft:3", "--n", "2"] + ["--inverse"] * inverse
    assert main(args) == 0
    assert capsys.readouterr().out == _csv_text(y)
    for name, expected in (("out.csv", _csv_text(y)), ("out.json", _json_pairs(y))):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text() == expected


def test_compress_and_encode_output_format(tmp_path, capsys):
    from gtt import (
        GTTOperator,
        builtin_signal,
        compress_fully_quantum,
        compress_hybrid,
        hadamard,
        optimize_theta,
    )

    state = builtin_signal("s2")
    op = GTTOperator(hadamard(), 3)
    result = compress_hybrid(state, op, 3)
    outcome = compress_fully_quantum(state, op, result.selection)
    pairs = lambda v: [[float(z.real), float(z.imag)] for z in v]  # noqa: E731
    expected = {
        "indices": list(result.selection.indices),
        "k": result.selection.k,
        "mass": result.selection.mass,
        "compressed": pairs(result.compressed),
        "fidelity": result.fidelity,
        "discarded_norm": result.discarded_norm,
        "reconstructed": pairs(result.reconstructed),
        "success_probability": outcome.success_probability,
        "transmitted": pairs(outcome.transmitted),
    }
    args = ["compress", "s2", "--base", "hadamard", "--n", "3", "--k", "3", "--mode", "quantum"]
    assert main(args) == 0
    assert capsys.readouterr().out == _report_text(expected)

    report = optimize_theta(builtin_signal("table2"), 8)
    expected = {
        "k": 8,
        "theta": report.optimal_params.theta,
        "phi": report.optimal_params.phi,
        "lambda": report.optimal_params.lam,
        "gtt_fidelity": report.gtt_fidelity,
        "hadamard_fidelity": report.hadamard_fidelity,
        "dft_fidelity": report.dft_fidelity,
        "optimizer_evals": report.optimizer_evals,
    }
    out = tmp_path / "enc.json"
    assert main(["encode", "--signal", "table2", "--k", "8", "--out", str(out)]) == 0
    assert out.read_text() == _report_text(expected)


def test_filter_output_format(tmp_path):
    from gtt import GTTOperator, filter_natural, u3

    rng = np.random.default_rng(8)
    v = rng.standard_normal(16)
    src = str(tmp_path / "sig.csv")
    write_csv(src, v)
    prefix = str(tmp_path / "flt")
    assert main(["filter", src, "--theta", "pi/4", "--n", "4", "--cutoff", "5",
                 "--out-prefix", prefix]) == 0
    state = v.astype(np.complex128) / np.linalg.norm(v.astype(np.complex128))
    out = filter_natural(state, GTTOperator(u3(math.pi / 4, 0.0, math.pi), 4), 5)
    for suffix, w in (("low", out.low_branch), ("high", out.high_branch),
                      ("low_spectrum", out.low_spectrum), ("high_spectrum", out.high_spectrum)):
        with open(f"{prefix}.{suffix}.csv") as fh:
            assert fh.read() == _csv_text(w)
    stems = "index\tlow\thigh\n" + "".join(
        f"{i}\t{format(abs(lo), '.17g')}\t{format(abs(hi), '.17g')}\n"
        for i, (lo, hi) in enumerate(zip(out.low_branch, out.high_branch))
    )
    with open(f"{prefix}.stems.tsv") as fh:
        assert fh.read() == stems
