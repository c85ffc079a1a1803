import json

import golden


def test_tiny_run_matches_golden_fixture(tmp_path):
    """Every stage's outputs on the golden TINY recipe: search trace, best
    config, reloaded checkpoint accuracies and retrain accuracies exactly,
    per-epoch losses to ``golden.LOSS_RTOL``. A change that moves them
    regenerates the fixture with ``tests/golden.py --write`` and says which
    fields moved and why."""
    want = json.loads(golden.FIXTURE.read_text())
    problems = golden.mismatches(golden.run_recipe(tmp_path), want)
    assert not problems, "\n".join(problems)
