import json

from output_manifest import MANIFEST, compute_manifest


def test_outputs_match_the_manifest():
    # every output kind of the manifest's balls and CLI draws, byte for byte;
    # a change that alters one regenerates the manifest and says why
    assert compute_manifest() == json.loads(MANIFEST.read_text())
