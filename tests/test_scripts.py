import argparse
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failing", [None, "esr", "drift-demo", "paper-fig4",
                                     "imaging-demo"])
def test_run_paper_presets_exits_1_when_any_run_fails(tmp_path, failing):
    presets = load_script("run_paper_presets")

    def fake_main(argv):
        if failing in (argv[0], argv[argv.index("--config") + 1]):
            return 1  # a failed run writes no report
        # write just the report fields the summary lines read
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        report = {"base_frequency_MHz": 22.2, "recovered_detunings_MHz": [],
                  "error_um": 0.0, "budget": {"delta_x_nm": 1.0}}
        (out / "report.json").write_text(json.dumps(report))
        return 0

    presets.rabibeat_main = fake_main
    args = argparse.Namespace(out=str(tmp_path), seed=7)
    assert presets.run(args) == (0 if failing is None else 1)


def test_preset_artifacts_match_the_digest_manifest(tmp_path):
    script = load_script("artifact_digests")
    manifest = json.loads(script.MANIFEST.read_text())
    expected, found = manifest["files"], script.digests(tmp_path)
    differ = sorted(name for name in expected.keys() | found.keys()
                    if expected.get(name) != found.get(name))
    if differ and script.numpy_major() != manifest["numpy_major"]:
        pytest.skip(f"numpy {script.numpy_major()}.x writes other bytes than "
                    f"numpy {manifest['numpy_major']}.x, the manifest's, in {differ}")
    # after a deliberate artifact change, rerun scripts/artifact_digests.py
    assert differ == []
