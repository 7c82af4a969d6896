"""End-to-end tests of the command-line interface."""

import json
import time
import tracemalloc

import pytest

from cantorext import abelian, cochain, exactla, toeplitz
from cantorext.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHnGroup:
    def test_s3_h2(self, capsys):
        code, out, _ = invoke(capsys, "hn-group", "--group", "S3", "--n", "2")
        assert code == 0 and out.strip() == "Z/2"

    def test_json_output(self, capsys):
        code, out, _ = invoke(capsys, "hn-group", "--group", "Z2", "--n", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["result"] == {"factors": [2], "rank": 0}
        assert obj["group"] == "Z2" and obj["n"] == 2

    def test_group_from_json_table(self, capsys):
        table = json.dumps({"order": 2, "table": [[0, 1], [1, 0]]})
        code, out, _ = invoke(capsys, "hn-group", "--group", table, "--n", "0")
        assert code == 0 and out.strip() == "Z"

    def test_group_from_file(self, capsys, tmp_path):
        spec = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
        path = tmp_path / "group.json"
        path.write_text(json.dumps(spec))
        code, out, _ = invoke(capsys, "hn-group", "--group", f"@{path}", "--n", "2")
        assert code == 0 and out.strip() == "Z/2"

    def test_unknown_group_usage_error(self, capsys):
        code, _, err = invoke(capsys, "hn-group", "--group", "Z99", "--n", "0")
        assert code == 2 and "Z99" in err

    def test_malformed_json_usage_error(self, capsys):
        code, _, err = invoke(capsys, "hn-group", "--group", "{not json", "--n", "0")
        assert code == 2 and "group" in err

    def test_table_order_mismatch(self, capsys):
        table = json.dumps({"order": 3, "table": [[0, 1], [1, 0]]})
        code, _, err = invoke(capsys, "hn-group", "--group", table, "--n", "0")
        assert code == 2 and "table" in err

    def test_cap_refusal_machine_readable(self, capsys):
        code, _, err = invoke(
            capsys, "hn-group", "--group", "S5", "--n", "3", "--max-tuples", "1000"
        )
        assert code == 1
        obj = json.loads(err)
        assert obj["refused"] is True and obj["reason"] == "size-cap"
        assert obj["size"] > obj["cap"] == 1000

    def test_negative_n_usage_error(self, capsys):
        code, out, err = invoke(capsys, "hn-group", "--group", "Z2", "--n", "-1")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "--n" in err


class TestHnExt:
    def test_shift_law_z2(self, capsys):
        code, out, _ = invoke(
            capsys, "hn-ext", "--group", "Z2", "--subgroup", "", "--n", "0"
        )
        assert code == 0 and out.strip() == "Z/2"

    def test_subgroup_permutations(self, capsys):
        code, out, _ = invoke(
            capsys, "hn-ext", "--group", "S3", "--subgroup", "1,0,2", "--n", "0"
        )
        assert code == 0 and out.strip() == "0"

    def test_subgroup_json_elements(self, capsys):
        sub = json.dumps({"elements": [1]})
        code, out, _ = invoke(
            capsys, "hn-ext", "--group", "S3", "--subgroup", sub, "--n", "0", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["subgroup_order"] == 2

    def test_bad_subgroup_element(self, capsys):
        sub = json.dumps({"elements": [99]})
        code, _, err = invoke(
            capsys, "hn-ext", "--group", "S3", "--subgroup", sub, "--n", "0"
        )
        assert code == 2 and "elements" in err

    def test_boolean_subgroup_element(self, capsys):
        sub = json.dumps({"elements": [True]})
        code, out, err = invoke(
            capsys, "hn-ext", "--group", "S3", "--subgroup", sub, "--n", "0"
        )
        assert code == 2 and out == "" and "elements" in err

    def test_negative_n_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "hn-ext", "--group", "S3", "--subgroup", "1,0,2", "--n", "-1"
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "--n" in err


class TestTorExt:
    def test_tor(self, capsys):
        code, out, _ = invoke(
            capsys,
            "tor",
            "--m", json.dumps({"factors": [4], "rank": 0}),
            "--g", json.dumps({"factors": [6], "rank": 0}),
        )
        assert code == 0 and out.strip() == "Z/2"

    def test_tor_infinite_g_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            "tor",
            "--m", json.dumps({"factors": [], "rank": 1}),
            "--g", json.dumps({"factors": [], "rank": 1}),
        )
        assert code == 2 and "rank" in err

    def test_ext(self, capsys):
        code, out, _ = invoke(
            capsys, "ext", "--g", json.dumps({"factors": [2, 4], "rank": 0})
        )
        assert code == 0 and out.strip() == "Z/2 + Z/4"

    def test_ext_large_prime_answers(self, capsys):
        p = 1_000_000_000_000_000_003
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "ext", "--g", json.dumps({"factors": [p]}))
        assert code == 0 and out.strip() == f"Z/{p}"
        assert time.perf_counter() - start < 1.0


class TestMorse:
    def test_report_passes(self, capsys):
        code, out, _ = invoke(capsys, "morse")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "morse", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] is True
        assert obj["quotient_XZ"] == "Z/2"


class TestDimquot:
    def test_morse_quotient(self, capsys):
        a = json.dumps({"rows": 2, "cols": 2, "entries": [["0", "2"], ["1", "1"]]})
        b = json.dumps({"rows": 2, "cols": 2, "entries": [["1", "2"], ["1", "0"]]})
        r = json.dumps({"rows": 2, "cols": 2, "entries": [["2", "-2"], ["0", "2"]]})
        code, out, _ = invoke(
            capsys,
            "dimquot",
            "--target-matrix", a, "--target-unit", "2,2",
            "--source-matrix", b, "--source-unit", "2,1",
            "--map", r,
        )
        assert code == 0 and out.strip() == "Z/2"

    def test_invalid_intertwiner(self, capsys):
        a = json.dumps({"rows": 1, "cols": 1, "entries": [["2"]]})
        r = json.dumps({"rows": 1, "cols": 1, "entries": [["1"]]})
        code, _, err = invoke(
            capsys,
            "dimquot",
            "--target-matrix", a, "--target-unit", "1",
            "--source-matrix", json.dumps(
                {"rows": 1, "cols": 1, "entries": [["3"]]}
            ),
            "--source-unit", "1",
            "--map", r,
        )
        assert code == 2

    def test_singular_target_usage_error(self, capsys):
        a = json.dumps({"rows": 2, "cols": 2, "entries": [["1", "1"], ["1", "1"]]})
        b = json.dumps({"rows": 1, "cols": 1, "entries": [["2"]]})
        r = json.dumps({"rows": 2, "cols": 1, "entries": [["1"], ["1"]]})
        code, out, err = invoke(
            capsys,
            "dimquot",
            "--target-matrix", a, "--target-unit", "1,1",
            "--source-matrix", b, "--source-unit", "1",
            "--map", r,
        )
        assert code == 2 and out == "" and "nonsingular" in err


class TestToeplitz:
    def test_z2_window(self, capsys):
        code, out, _ = invoke(capsys, "toeplitz", "--group", "Z2", "--depth", "3")
        assert code == 0 and out.strip() == "0 1 0 1 0 1 0 1"

    def test_check_report(self, capsys):
        code, out, _ = invoke(
            capsys, "toeplitz", "--group", "S3", "--depth", "9", "--check"
        )
        assert code == 0
        lines = out.strip().splitlines()
        obj = json.loads(lines[-1])
        assert obj["construction_identity"] is True
        assert obj["full_group"] is True

    def test_explicit_enumeration(self, capsys):
        code, out, _ = invoke(
            capsys, "toeplitz", "--group", "Z3", "--depth", "3",
            "--enumeration", "0,2,1",
        )
        assert code == 0
        values = [int(x) for x in out.split()]
        assert values[1] == 2  # stage 1 fills position 1 with u_1 = 2

    def test_bad_enumeration(self, capsys):
        code, _, err = invoke(
            capsys, "toeplitz", "--group", "Z3", "--depth", "3",
            "--enumeration", "1,0,2",
        )
        assert code == 2

    def test_check_depth_too_small_prints_nothing(self, capsys):
        code, out, err = invoke(
            capsys, "toeplitz", "--group", "S3", "--depth", "2", "--check"
        )
        assert code == 2 and out == "" and "depth" in err

    def test_depth_above_window_cap_refused(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = invoke(
                capsys, "toeplitz", "--group", "Z2", "--depth", "60"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "refused": True, "reason": "size-cap", "size": 60, "cap": 22,
        }
        assert peak < 1 << 20  # bytes; a refused window allocates nothing

    @pytest.mark.parametrize("depth, code, err", [
        ("60", 1, '{"refused": true, "reason": "size-cap", "size": 60, "cap": 22}\n'),
        ("1", 2, "error: depth must be >= 2\n"),
        ("8", 2, "error: field 'depth' too small for check: "
                 "depth too small: need 2^m > 4N\n"),
    ])
    def test_check_depth_refused_before_the_search(self, capsys, monkeypatch,
                                                   depth, code, err):
        def search(*args, **kwargs):
            raise AssertionError("enumeration search started before the refusal")

        monkeypatch.setattr(toeplitz, "default_enumeration", search)
        got = invoke(capsys, "toeplitz", "--group", "S5", "--depth", depth, "--check")
        assert got == (code, "", err)


def assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["hn-group", "--group", '{"table":[[0,"a"],[1,0]]}', "--n", "1"],
        ["hn-group", "--group", '{"table":[[0]],"order":"x"}', "--n", "1"],
        ["hn-group", "--group", '{"degree":3,"generators":5}', "--n", "1"],
        ["hn-group", "--group", '{"degree":3,"generators":[5]}', "--n", "1"],
        ["hn-group", "--group", '{"degree":3,"generators":[["a",1,2]]}', "--n", "1"],
        ["hn-ext", "--group", "S3", "--subgroup", '{"elements":5}', "--n", "0"],
    ])
    def test_no_traceback(self, capsys, argv):
        assert_usage_error(*invoke(capsys, *argv))

    def test_integer_too_long_for_json(self, capsys):
        g = '{"factors": [' + "7" * 5000 + "]}"
        assert_usage_error(*invoke(capsys, "ext", "--g", g))


class TestIntegerFields:
    """JSON integer fields refuse floats and booleans instead of truncating."""

    @pytest.mark.parametrize("m", [
        {"factors": [1.5, 4], "rank": 0},
        {"factors": [True, 4], "rank": 0},
        {"factors": [4], "rank": 1.0},
        {"factors": [4], "rank": False},
        {"factors": 4},
    ])
    def test_fg_group_fields(self, capsys, m):
        code, out, err = invoke(
            capsys, "tor", "--m", json.dumps(m), "--g", json.dumps({"factors": [2]})
        )
        assert_usage_error(code, out, err)
        assert "factors" in err or "rank" in err

    @pytest.mark.parametrize("field,value", [
        ("rows", 2.0), ("rows", True), ("cols", 2.5),
        ("entries", [[0, 2.0], [1, 1]]), ("entries", [["0", True], ["1", "1"]]),
        ("entries", [["0", "2.0"], ["1", "1"]]),
    ])
    def test_matrix_fields(self, capsys, field, value):
        a = {"rows": 2, "cols": 2, "entries": [["0", "2"], ["1", "1"]]}
        b = json.dumps({"rows": 2, "cols": 2, "entries": [["1", "2"], ["1", "0"]]})
        r = json.dumps({"rows": 2, "cols": 2, "entries": [[2, -2], [0, 2]]})
        a[field] = value
        code, out, err = invoke(
            capsys,
            "dimquot",
            "--target-matrix", json.dumps(a), "--target-unit", "2,2",
            "--source-matrix", b, "--source-unit", "2,1",
            "--map", r,
        )
        assert_usage_error(code, out, err)
        assert field in err

    def test_matrix_entries_accept_numbers_and_strings(self, capsys):
        a = json.dumps({"rows": 2, "cols": 2, "entries": [[0, "2"], ["1", 1]]})
        b = json.dumps({"rows": 2, "cols": 2, "entries": [["1", "2"], ["1", "0"]]})
        r = json.dumps({"rows": 2, "cols": 2, "entries": [[2, -2], [0, 2]]})
        code, out, _ = invoke(
            capsys,
            "dimquot",
            "--target-matrix", a, "--target-unit", "2,2",
            "--source-matrix", b, "--source-unit", "2,1",
            "--map", r,
        )
        assert code == 0 and out.strip() == "Z/2"

    @pytest.mark.parametrize("group,field", [
        ({"table": [[0, 1], [1, 0]], "order": 2.0}, "order"),
        ({"table": [[0, 1], [1, 0]], "order": True}, "order"),
        ({"table": [[0.0, 1], [1, 0]]}, "table"),
        ({"table": [[0, True], [True, 0]]}, "table"),
        ({"degree": 3.0, "generators": [[1, 0, 2]]}, "degree"),
        ({"degree": True, "generators": [[0]]}, "degree"),
        ({"degree": -1, "generators": []}, "degree"),
        ({"degree": 3, "generators": [[1.0, 0, 2]]}, "generators"),
        ({"degree": 2, "generators": [[True, False]]}, "generators"),
    ])
    def test_group_fields(self, capsys, group, field):
        code, out, err = invoke(
            capsys, "hn-group", "--group", json.dumps(group), "--n", "1"
        )
        assert_usage_error(code, out, err)
        assert field in err


class TestSizeFields:
    """`rank` and `degree` above 256 are refused before anything is allocated."""

    def assert_refused(self, code, out, err, size):
        assert code == 1 and out == ""
        assert json.loads(err) == {"refused": True, "reason": "size-cap",
                                   "size": size, "cap": 256}

    @pytest.mark.parametrize("rank", [257, 10 ** 400])
    def test_rank(self, capsys, rank):
        code, out, err = invoke(
            capsys, "tor", "--m", json.dumps({"factors": [], "rank": rank}),
            "--g", json.dumps({"factors": [2]}),
        )
        self.assert_refused(code, out, err, rank)

    @pytest.mark.parametrize("degree", [257, 10 ** 400])
    def test_degree(self, capsys, degree):
        group = json.dumps({"degree": degree, "generators": []})
        code, out, err = invoke(capsys, "hn-group", "--group", group, "--n", "1")
        self.assert_refused(code, out, err, degree)

    def test_cap_values_accepted(self, capsys):
        code, out, _ = invoke(
            capsys, "tor", "--m", json.dumps({"factors": [], "rank": 256}),
            "--g", json.dumps({"factors": [2]}),
        )
        assert code == 0 and out.strip() == "0"
        group = json.dumps({"degree": 256, "generators": []})
        code, out, _ = invoke(capsys, "hn-group", "--group", group, "--n", "0")
        assert code == 0 and out.strip() == "Z"


class TestRefusalBeforeWork:
    """Requests whose work is out of bounds are refused before any of it."""

    def test_level_too_deep_for_its_size(self, capsys):
        # |K|^(n-1) = 2^19999 is refused before the power is taken; its
        # 6021 digits are not in the body, which states no size
        start = time.perf_counter()
        code, out, err = invoke(capsys, "hn-group", "--group", "Z2", "--n", "20000")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert json.loads(err) == {"refused": True, "reason": "size-cap",
                                   "size": None, "cap": cochain.DEFAULT_TUPLE_CAP}

    @pytest.fixture
    def no_elimination(self, monkeypatch):
        """Make every elimination raise: these requests are refused before one."""

        def eliminate(*args, **kwargs):
            raise AssertionError("elimination started before the refusal")

        for name in ("local_invariant_counts", "snf_diagonal"):
            monkeypatch.setattr(exactla, name, eliminate)

    def test_level_above_m_refused_by_size(self, capsys, no_elimination):
        # H^3(S5) is level m = 4 of the regular chain: levels 2..4 are under
        # the cap, and level 5, never built, is refused by its size 120^4
        start = time.perf_counter()
        code, out, err = invoke(capsys, "hn-group", "--group", "S5", "--n", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert json.loads(err) == {"refused": True, "reason": "size-cap",
                                   "size": 207360000, "cap": 5000000}

    def test_relative_level_above_m_refused_by_size(self, capsys, no_elimination):
        # H^0(X|Y) over K = S3/<(0 1)> is level m = 3: 3^3 = 27 tuples are
        # under the cap of 50, and level 4, never built, has 3^4 = 81
        code, out, err = invoke(capsys, "hn-ext", "--group", "S3", "--subgroup", "1,0,2",
                                "--n", "0", "--max-tuples", "50")
        assert code == 1 and out == ""
        assert json.loads(err) == {"refused": True, "reason": "size-cap",
                                   "size": 81, "cap": 50}

    def test_tor_size(self, capsys):
        # 17 generators of m against 16 factors of g: 272 > MAX_TOR_SIZE
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "tor", "--m", json.dumps({"factors": [2] * 16, "rank": 1}),
            "--g", json.dumps({"factors": [2] * 16}),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert json.loads(err) == {"refused": True, "reason": "size-cap",
                                   "size": 272, "cap": abelian.MAX_TOR_SIZE}

    def test_tor_at_the_cap_answers(self, capsys):
        code, out, _ = invoke(
            capsys, "tor", "--m", json.dumps({"factors": [4] * 128}),
            "--g", json.dumps({"factors": [2, 2]}),
        )
        assert code == 0 and out.strip() == " + ".join(["Z/2"] * 256)

    @pytest.mark.parametrize("command, arg", [("tor", "--m"), ("tor", "--g"), ("ext", "--g")])
    def test_factors_list_length(self, capsys, command, arg):
        argv = [command, "--g", json.dumps({"factors": [2]})]
        if command == "tor":
            argv += ["--m", json.dumps({"factors": [2]})]
        argv[argv.index(arg) + 1] = json.dumps({"factors": [2] * 257})
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"refused": True, "reason": "size-cap",
                                   "size": 257, "cap": 256}


class TestSharedParser:
    """The parser is built once per process; no request leaks into the next."""

    def test_json_flag_does_not_stick(self, capsys):
        code, out, _ = invoke(capsys, "hn-group", "--group", "Z2", "--n", "2", "--json")
        assert code == 0 and json.loads(out)["result"] == {"factors": [2], "rank": 0}
        code, out, _ = invoke(capsys, "hn-group", "--group", "Z2", "--n", "2")
        assert code == 0 and out.strip() == "Z/2"

    def test_max_tuples_does_not_stick(self, capsys):
        code, out, err = invoke(
            capsys, "hn-group", "--group", "Z6", "--n", "4", "--max-tuples", "100"
        )
        assert code == 1 and out == "" and json.loads(err)["cap"] == 100
        code, out, _ = invoke(capsys, "hn-group", "--group", "Z6", "--n", "4")
        assert code == 0 and out.strip() == "Z/6"


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = invoke(
                capsys, "hn-ext", "--group", "S3", "--subgroup", "1,0,2",
                "--n", "0", "--json"
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
