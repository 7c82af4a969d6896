"""End-to-end tests of the command-line interface."""

import json
import tracemalloc

import pytest

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
