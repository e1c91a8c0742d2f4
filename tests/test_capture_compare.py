"""scripts/capture_outputs.py --compare on hand-made --cases files (equal, moved by rounding
only, changed structurally), and on a real capture of the rate-map cases against itself."""
import importlib.util
import io
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("capture_outputs",
                                              ROOT / "scripts" / "capture_outputs.py")
capture = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(capture)

CSV = (b"re_z,im_z,empirical_rate,predicted_rate,flags\n"
       b"0.75,0.75,0.721787123474047,0.7576144084141585,\n"
       b"-0.0,-0.6,1.0000000000000002,,NotConverging\n")
CASES = {
    "locate x": "SpecialPoints(x_m1=(-1+0j), x_p0=-1j, y_m1=(-0-0j), res_m1=0.0, res_p0=1e-17)",
    "cli ratemap m": repr((0, "rate map: 2 points\n", "", CSV)),
    "cli verify v": repr((0, "PASS interpolation-vs-oracle: max error 8.84e-14\n", "")),
    "solve s": "((1.5+2j), 0.1, nan)",
}


def up(x, ulps=1):
    """repr of the double ulps above x."""
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return repr(x)


def edited(name, old, new):
    cases = dict(CASES)
    assert cases[name].count(old) == 1
    cases[name] = cases[name].replace(old, new)
    return cases


def compare(tmp_path, old, new):
    """(exit code, report) of --compare on two --cases files written from {name: outcome}."""
    paths = []
    for side, cases in (("old", old), ("new", new)):
        paths.append(tmp_path / side)
        paths[-1].write_text("".join(f"{k}\t{v}\n" for k, v in cases.items()), encoding="utf-8")
    out = io.StringIO()
    return capture.compare(*paths, out=out), out.getvalue()


def test_float_tokens_are_masked_and_integers_are_text():
    text, tokens = capture.float_tokens(CASES["locate x"] + " " + CASES["cli ratemap m"])
    assert tokens == ["-1", "+0", "-1", "-0", "-0", "0.0", "1e-17",
                      "0.75", "0.75", "0.721787123474047", "0.7576144084141585",
                      "-0.0", "-0.6", "1.0000000000000002"]
    assert text == ("SpecialPoints(x_m1=(##j), x_p0=#j, y_m1=(##j), res_m1=#, res_p0=#) "
                    "(0, 'rate map: 2 points\\n', '', b're_z,im_z,empirical_rate,predicted_rate,"
                    "flags\\n#,#,#,#,\\n#,#,#,,NotConverging\\n')")


def test_equal_files_compare_equal(tmp_path):
    code, report = compare(tmp_path, CASES, CASES)
    assert code == 0
    assert report.startswith("4 cases in both, 0 structural, 0 moved by rounding\n")


def test_rounding_moves_are_counted_by_case_and_class(tmp_path):
    new = edited("cli ratemap m", "0.721787123474047", up(0.721787123474047))
    new["solve s"] = new["solve s"].replace("(1.5+2j)", f"({up(1.5)}+{up(2.0, 2)}j)")
    code, report = compare(tmp_path, CASES, new)
    assert code == 0
    assert report.splitlines()[0] == "4 cases in both, 0 structural, 2 moved by rounding"
    assert "| cli ratemap | 1 | 1 | 1 | 1.5e-16 | 1 |" in report
    assert "| solve | 1 | 1 | 2 | 4.4e-16 | 2 |" in report
    lines = report.splitlines()
    assert f"moved: solve s: 2 tokens, max rel 4.4e-16, max 2 ulp, worst +2 -> +{up(2.0, 2)}" \
        in lines
    assert ("moved: cli ratemap m: 1 tokens, max rel 1.5e-16, max 1 ulp, worst 0.721787123474047 "
            f"-> {up(0.721787123474047)}") in lines
    assert "STRUCTURAL" not in report


GENUS1 = "solve genus1-8 ByIndex(i=0, j=3) N=40"
FIXTURE = "solve linear N=40"
SOLVED = {      # genus-1 (coefficients, max error); fixture (..., errors, max error, skipped)
    GENUS1: "(((0.5+0j), (-0.25+1e-09j)), 9.9e-08)",
    FIXTURE: "(SpecialPoints(x_m1=1j, res_m1=0.0), (-0.5j,), (0.0, 5e-08), 5e-08, (2,))",
    "solve raising": "raise SmallDivisorError: small divisor at n=3 (|eta|=1.500e-20)",
}


@pytest.mark.parametrize("name, old, new", [
    (GENUS1, "9.9e-08)", "1.05e-07)"),
    (GENUS1, "9.9e-08)", f"{up(1e-07)})"),
    (FIXTURE, "5e-08), 5e-08,", "5e-08), 2.5e-07,"),
], ids=["genus1 up", "genus1 just past the bound", "fixture up"])
def test_an_interpolation_error_across_the_verify_bound_is_structural(tmp_path, name, old, new):
    """A solve case's interpolation error, its last float, that crosses 1e-7 moves verify's
    PASS/FAIL: structural, both ways, though its text only moved a float."""
    cases = dict(SOLVED)
    cases[name] = cases[name].replace(old, new)
    for before, after in ((SOLVED, cases), (cases, SOLVED)):
        code, report = compare(tmp_path, before, after)
        assert code == 1 and "1 structural, 0 moved by rounding" in report.splitlines()[0]
        line = next(ln for ln in report.splitlines() if ln.startswith("STRUCTURAL"))
        assert line.startswith(f"STRUCTURAL: {name}: interpolation error ") \
            and line.endswith(" crosses the verify bound 1e-07"), line


def test_an_interpolation_error_on_one_side_of_the_bound_is_rounding(tmp_path):
    """Moves that keep the verdict stay rounding moves (1e-7 itself passes), and so does a float
    in an error's message or in a solve case's other fields."""
    cases = {GENUS1: SOLVED[GENUS1].replace("9.9e-08", "1e-07").replace("1e-09j", "3e-07j"),
             FIXTURE: SOLVED[FIXTURE].replace("(0.0, 5e-08), 5e-08", "(0.0, 2e-07), 9e-08"),
             "solve raising": SOLVED["solve raising"].replace("1.500e-20", "3.000e-07")}
    code, report = compare(tmp_path, SOLVED, cases)
    lines = report.splitlines()
    assert code == 0 and lines[0] == "3 cases in both, 0 structural, 3 moved by rounding"
    worst = [ln.partition(", worst ")[2] for ln in lines if ln.startswith("moved: ")]
    assert worst == ["+1e-09 -> +3e-07", "5e-08 -> 2e-07", "1.500e-20 -> 3.000e-07"]


@pytest.mark.parametrize("name, old, new", [
    ("cli ratemap m", "0.7576144084141585,\\n", "0.7576144084141585,NotConverging\\n"),   # a flag
    ("cli ratemap m", "0.7576144084141585,", ","),                                       # a blank
    ("cli ratemap m", "(0, ", "(3, "),                                               # exit code
    ("cli ratemap m", "2 points", "3 points"),                                          # integer
    ("cli verify v", "PASS", "FAIL"),                                                  # a word
    ("solve s", "0.1", "nan"),                                                     # not finite
    ("solve s", "nan", "0.1"),
], ids=["flag", "blank", "exit code", "integer", "word", "to nan", "from nan"])
def test_a_structural_change_exits_1(tmp_path, name, old, new):
    code, report = compare(tmp_path, CASES, edited(name, old, new))
    assert code == 1
    assert f"STRUCTURAL: {name}: " in report
    assert "1 structural, 0 moved by rounding" in report.splitlines()[0]


def test_a_case_on_one_side_only_is_structural(tmp_path):
    new = dict(CASES, **{"solve t": "()"})
    code, report = compare(tmp_path, CASES, new)
    assert code == 1 and "STRUCTURAL: solve t: only in NEW" in report


def test_a_real_capture_compares_equal_to_itself(tmp_path):
    """The four `ellgrid ratemap` cases as the script records them: every CSV number is a
    float token, so the masked CSV holds no digit, and the file compares equal to itself."""
    cases = dict(capture.ratemap_cases())
    assert len(cases) == 4
    for outcome in cases.values():
        csv = capture.float_tokens(outcome)[0].partition("b're_z")[2]
        assert csv.count("\\n") in (26, 1682) and not any(ch.isdigit() for ch in csv)
    code, report = compare(tmp_path, cases, cases)
    assert code == 0 and report.startswith("4 cases in both, 0 structural, 0 moved")
