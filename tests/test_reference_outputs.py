import json

import numpy as np

import reference_outputs as ref
from l1coreg import experiments


def _reference():
    with open(ref.REFERENCE_PATH, encoding="ascii") as handle:
        return json.load(handle)


def test_commands_replay_reference(tmp_path):
    # bytes and meaning of every benchmark command and criterion 9's sweep;
    # rewrite the file with tests/reference_outputs.py when bits move on
    # purpose, and list the changes it prints
    want = _reference()
    assert want["versions"] == ref.versions(), (
        f"reference written with {want['versions']}, this run has "
        f"{ref.versions()}"
    )
    got = ref.replay(tmp_path)
    changed = ref.changes(want["commands"], got, tiers=("bytes", "meaning"))
    assert not changed, "\n".join(changed)


def test_one_ulp_of_noise_is_caught(tmp_path, monkeypatch):
    # the reference pins bits: one ulp more noise in one entry of one record
    # of criterion 9's sweep changes its bytes
    draw = experiments.add_noise
    calls = []

    def nudged(y_star, delta, seed):
        y = draw(y_star, delta, seed)
        calls.append(seed)
        if len(calls) == 2:
            y[0] = np.nextafter(y[0], np.inf)
        return y

    monkeypatch.setattr(experiments, "add_noise", nudged)
    key = " ".join(ref.CRITERION_9)
    got = ref.replay(tmp_path, {key: list(ref.CRITERION_9)})
    changed = ref.changes({key: _reference()["commands"][key]}, got,
                          tiers=("bytes",))
    assert len(calls) == 6
    assert changed
