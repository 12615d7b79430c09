"""Golden digests: `simulate` output must stay bit-identical across refactors.

Each config below is run through ``privbandit simulate`` and the sha256 of
its ``runs.csv`` is compared with a digest recorded before the policies
were rebuilt on the shared quadrisection core.  Together the configs cover
cppq, lppq and the non-private baseline; the linear (with and without
demand noise) and adversarial environments; both presets and overrides;
unit-scale and sensitivity-correct noise; and eps from 10 down to 0.01 and
inf.  A refactor that claims identical results must keep every digest; a
change that means to alter results must say so and record new digests.
"""

import hashlib
import json

import pytest

from privbandit.cli import main

GOLDEN = {
    # the byte-identity config of acceptance criterion 9
    "lppq-linear-criterion9": (
        {"env": {"kind": "linear"}, "policy": {"kind": "lppq"},
         "T": [200, 400], "eps": [1.0, 0.1], "reps": 3, "seed": 4242},
        "76f189e253e151550146de39e035ed05d7425b44bd830c0ac4ba6668d365ee9e"),
    "cppq-linear-with-nonprivate": (
        {"env": {"kind": "linear"}, "policy": {"kind": "cppq"}, "include_nonprivate": True,
         "T": [600], "eps": [1.0, "inf"], "reps": 2, "seed": 11},
        "76706f3519681f19b3bc91d6dbc8721a1aa9c80f2e158f145c99125f17764e2c"),
    "lppq-linear-sensitivity-correct": (
        {"env": {"kind": "linear"}, "policy": {"kind": "lppq", "J": 9}, "T": [1200],
         "eps": [10.0, 0.1, "inf"], "reps": 2, "seed": 12,
         "sensitivity_mode": "sensitivity-correct"},
        "92b15cfea5660520f3d60e444a7fbd6691f9ff99d180c1d8a5935a557e1644c9"),
    "cppq-adversarial-sensitivity-correct": (
        {"env": {"kind": "adversarial", "m": 2, "nu": [1, 0, 0, 1]}, "policy": {"kind": "cppq"},
         "T": [500], "eps": [1.0], "reps": 2, "seed": 13,
         "sensitivity_mode": "sensitivity-correct"},
        "cd05ee851950c885e80f9a37a957fab22f6d9ac9ace6c3009e9b6e0183aa183b"),
    "lppq-adversarial": (
        {"env": {"kind": "adversarial", "m": 3, "nu": [1, 0, 1, 0, 1, 0, 1, 0, 1]},
         "policy": {"kind": "lppq"}, "T": [1200], "eps": [1.0, "inf"], "reps": 2, "seed": 14},
        "c3245408c9c6f01bba786b0cab897101cbbce74e938923ba1b3cd3114a750a2d"),
    "nonprivate-linear-noiseless": (
        {"env": {"kind": "linear", "noise_half_width": 0.0}, "policy": {"kind": "nonprivate"},
         "T": [1000], "reps": 2, "seed": 15},
        "30bdd0369bbfb8c6878c098bc56c6530cde052d5bc73c332feb9a0ebcf321a49"),
    "cppq-theorem-overrides": (
        {"env": {"kind": "linear"},
         "policy": {"kind": "cppq", "preset": "theorem", "c1": 0.01, "c1_prime": 0.01, "c2": 3.0},
         "T": [900], "eps": [10.0], "reps": 2, "seed": 16},
        "5960374796b342a10dcd6021eefa2a0514e6fa4291e11b000fbd9bdcf060d456"),
    "lppq-theorem": (
        {"env": {"kind": "linear"}, "policy": {"kind": "lppq", "preset": "theorem"},
         "T": [1200], "eps": ["inf", 5.0], "reps": 1, "seed": 17},
        "e05f7274be3701dedd4d05f73932202c440c0a34153d10cc4a6a9db8b8787314"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runs_csv_matches_golden_digest(name, tmp_path, capsys):
    doc, digest = GOLDEN[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "runs.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
