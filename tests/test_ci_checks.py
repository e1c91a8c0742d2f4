"""The workflow and scripts/ci_checks.py stay in step, and each long check is written once.

The workflow is read as text with regexes: CI installs only pytest and hypothesis, so there is
no YAML parser.
"""
import importlib.util
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def ci_checks():
    spec = importlib.util.spec_from_file_location("ci_checks", ROOT / "scripts" / "ci_checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_workflow_runs_every_check_the_script_defines_and_no_other():
    run = set(re.findall(r"scripts/ci_checks\.py ([\w-]+)", WORKFLOW))
    assert run == {*ci_checks().CHECKS, "configs"}


def test_the_workflow_holds_no_long_python():
    heredocs = re.findall(r"python\b[^\n]*<<-?\s*['\"]?(\w+)['\"]?\n(.*?)\n\s*\1\s*$", WORKFLOW,
                          re.S | re.M)
    assert all(body.count("\n") < 5 for _, body in heredocs), heredocs
    assert 'sys.path.insert(0, "tests")' not in WORKFLOW


def test_only_pytest_imports_conftest():
    files = [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert [path.name for path in files if re.search(r"^\s*(from conftest|import conftest)\b",
                                                     path.read_text(encoding="utf-8"), re.M)] == []


def test_configs_writes_every_config_the_workflow_reads(tmp_path):
    ci_checks().configs(tmp_path)
    wanted = set(re.findall(r'--config "\$RUNNER_TEMP/(\w+\.json)"', WORKFLOW))
    assert wanted and wanted <= {path.name for path in tmp_path.iterdir()}
    assert all(json.loads(path.read_text(encoding="utf-8")) for path in tmp_path.iterdir())
