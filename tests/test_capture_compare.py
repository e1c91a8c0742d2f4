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
    assert "moved: solve s: 2 tokens, max rel 4.4e-16, max 2 ulp" in report
    assert "STRUCTURAL" not in report


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
