"""Byte identity of every seeded command family against a committed manifest.

``tests/fixtures/artifact_digests.py`` runs a small version of each command
(oracle, synth, fit-ml, calibrate, surface, check-arbitrage, price,
bootstrap) in a temporary directory and hashes every artifact, run logs
included.  The digests must equal ``tests/fixtures/artifact_digests.json``
file by file.  A change that moves an output on purpose regenerates the
manifest with the script and names the diff; an unexplained mismatch is a
changed result.  The manifest records the Python, numpy and scipy versions
it was taken with, and a mismatch names them beside the running ones, since
a different numpy or libm may round differently.
"""

import importlib.util
import json
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
_spec = importlib.util.spec_from_file_location(
    "artifact_digests", FIXTURES / "artifact_digests.py"
)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def test_every_artifact_matches_the_manifest(tmp_path, monkeypatch):
    manifest = json.loads((FIXTURES / "artifact_digests.json").read_text())
    # relative input paths keep the temporary directory out of the run logs
    monkeypatch.chdir(tmp_path)
    got = artifact_digests.run_cases()
    want = manifest["digests"]
    changed = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"changed: {changed}; missing: {missing}; not in the manifest: {extra}; "
        f"manifest taken with {manifest['versions']}, "
        f"running {artifact_digests.versions()}"
    )

