"""The CLI's outputs on the golden corpus are byte-identical to tests/golden.json."""

import json

from golden import GOLDEN, run_corpus


def test_outputs_match_the_golden_corpus(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = run_corpus(tmp_path)
    changed = sorted(op for op in want.keys() | got.keys() if want.get(op) != got.get(op))
    assert not changed, f"{len(changed)} operations differ from {GOLDEN.name}: {changed[:20]}"
