import json
import math

import pytest

from privbandit import cli
from privbandit.cli import (ConfigError, format_table, main, parse_config,
                            privacy_check)
from privbandit.svgplot import line_chart


# well-formed JSON whose values are wrong; each must be a configuration error
BAD_VALUE_DOCS = [
    {"policy": {"kind": "lppq", "J": 0}},
    {"policy": {"kind": "lppq", "J": "x"}},
    {"policy": {"kind": "lppq", "kappa1": "x"}},
    {"seed": "abc"},
    {"env": {"kind": "cubic"}},
    {"env": {"kind": "linear", "bogus": 1}},
    {"env": {"kind": "adversarial", "bogus": 1}},
    {"include_nonprivate": "false"},
    {"include_nonprivate": 0},
    {"include_nonprivate": "yes"},
    # each policy kind takes only its own config's constants
    {"policy": {"kind": "lppq", "c1": 0.1}},
    {"policy": {"kind": "cppq", "kappa1": 1}},
    {"policy": {"kind": "nonprivate", "kappa2": 1}},
    {"policy": {"kind": "cppq", "bogus": 1}},
    # constants must be finite and >= 0
    {"policy": {"kind": "cppq", "c2": -5, "c1": float("nan")}},
    {"policy": {"kind": "lppq", "kappa1": float("inf")}},
    {"policy": {"kind": "cppq", "c1": 10**400}},
    # environment parameters are checked when the env is built
    {"env": {"kind": "adversarial", "m": -1}},
    {"env": {"kind": "adversarial", "m": True}},
    {"env": {"kind": "adversarial", "m": 1.5}},
    {"env": {"kind": "adversarial", "nu": [0.7, 1, 1, 1]}},
    {"env": {"kind": "adversarial", "p_lo": 2, "p_hi": 1}},
    {"env": {"kind": "linear", "noise_half_width": -0.1}},
    {"env": {"kind": "linear", "noise_half_width": float("nan")}},
    {"env": {"kind": "linear", "d": 3}},
    # an env's name is its kind's, never a constructor argument
    {"env": {"kind": "linear", "name": "lin,ear"}},
    {"env": {"kind": "linear", "name": 5}},
    {"env": {"kind": "adversarial", "name": "adv"}},
    {"eps": [True]},
    # a cube count beyond the index space is refused before any run
    {"policy": {"J": 10**31}},
    {"policy": {"kind": "cppq", "J": 10**400}},
]


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config({"T": [100], "eps": [1.0]})
        assert cfg.T_list == (100,)
        assert cfg.eps_list == (1.0,)
        assert cfg.policy_kind == "lppq"
        assert cfg.reps == 1

    def test_table_preset_expands_grid(self):
        cfg = parse_config({"preset": "table-lppq"})
        assert cfg.T_list == (500, 2500, 12500, 62500)
        assert cfg.eps_list == (10.0, 1.0, 0.1, 0.01)
        assert cfg.reps == 30
        assert cfg.include_nonprivate

    def test_slope_preset_drops_baseline(self):
        cfg = parse_config({"preset": "slope-lppq"})
        assert not cfg.include_nonprivate
        assert cfg.policy_kind == "lppq"

    def test_cppq_preset(self):
        assert parse_config({"preset": "table-cppq"}).policy_kind == "cppq"

    def test_inf_eps_token(self):
        cfg = parse_config({"T": [10], "eps": ["inf", 1]})
        assert cfg.eps_list == (math.inf, 1.0)

    def test_rejects_bad_documents(self):
        with pytest.raises(ConfigError):
            parse_config({"T": [100], "eps": [-1.0]})
        with pytest.raises(ConfigError):
            parse_config({"T": [100], "eps": [1.0], "bogus": 1})
        with pytest.raises(ConfigError):
            parse_config({"T": [0], "eps": [1.0]})
        with pytest.raises(ConfigError):
            parse_config({"T": [], "eps": [1.0]})
        with pytest.raises(ConfigError):
            parse_config({"policy": {"kind": "thompson"}})
        with pytest.raises(ConfigError):
            parse_config({"policy": {"kind": "lppq", "gamma": 2}})
        with pytest.raises(ConfigError):
            parse_config({"preset": "table-xxx"})
        with pytest.raises(ConfigError):
            parse_config([1, 2])
        for doc in BAD_VALUE_DOCS:
            with pytest.raises(ConfigError):
                parse_config(doc)

    def test_policy_overrides_collected(self):
        cfg = parse_config({"T": [10], "eps": [1.0],
                            "policy": {"kind": "lppq", "kappa1": 0.5, "J": 9}})
        assert cfg.policy_overrides == {"kappa1": 0.5}
        assert cfg.J == 9


@pytest.fixture
def small_config(tmp_path):
    doc = {"env": {"kind": "linear"}, "policy": {"kind": "lppq"},
           "T": [200, 400], "eps": [1.0, 0.1], "reps": 3, "seed": 77}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_end_to_end(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(small_config), "--out", str(out)]) == 0
        lines = (out / "runs.csv").read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 3  # eps x T x reps
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 4
        assert {s["reps"] for s in summary} == {3}
        table = capsys.readouterr().out
        assert "eps=1" in table and "eps=0.1" in table

    def test_private_inf_cells_keep_their_own_row(self, tmp_path, capsys):
        # lppq at eps=inf beside the non-private baseline: each keeps its own row
        doc = {"policy": {"kind": "lppq"}, "include_nonprivate": True, "eps": ["inf", 1.0],
               "T": [500], "reps": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = {line[:14].rstrip(): float(line[14:]) for line in lines[1:]}
        summary = json.loads((out / "summary.json").read_text())
        label = {("nonprivate", "inf"): "Non-Private", ("lppq", "inf"): "lppq eps=inf",
                 ("lppq", 1.0): "eps=1"}
        assert printed == {label[s["policy"], s["eps"]]: round(s["mean_pct_regret"], 2)
                           for s in summary}
        assert list(printed) == ["Non-Private", "lppq eps=inf", "eps=1"]

    def test_reruns_are_byte_identical(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(small_config), "--out", str(out1)])
        main(["simulate", "--config", str(small_config), "--out", str(out2)])
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_rerun_into_one_out_replaces_its_outputs(self, small_config, tmp_path):
        # the second run, with fewer reps, writes shorter files over the first run's
        fewer = tmp_path / "fewer.json"
        fewer.write_text(json.dumps({**json.loads(small_config.read_text()), "reps": 1}))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        main(["simulate", "--config", str(small_config), "--out", str(out)])
        main(["simulate", "--config", str(fewer), "--out", str(out)])
        main(["simulate", "--config", str(fewer), "--out", str(fresh)])
        for name in ("runs.csv", "summary.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert len((out / "runs.csv").read_text().splitlines()) == 1 + 2 * 2 * 1

    def test_parallel_jobs_match_serial(self, small_config, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        main(["simulate", "--config", str(small_config), "--out", str(out1), "--jobs", "1"])
        main(["simulate", "--config", str(small_config), "--out", str(out2), "--jobs", "4"])
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()

    def test_seed_flag_changes_results(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(small_config), "--out", str(out1)])
        main(["simulate", "--config", str(small_config), "--out", str(out2),
              "--seed", "78"])
        assert (out1 / "runs.csv").read_bytes() != (out2 / "runs.csv").read_bytes()

    def test_seed_env_var_fallback(self, small_config, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("PRIVBANDIT_SEED", "78")
        main(["simulate", "--config", str(small_config), "--out", str(out1)])
        monkeypatch.delenv("PRIVBANDIT_SEED")
        main(["simulate", "--config", str(small_config), "--out", str(out2),
              "--seed", "78"])
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()

    def test_csv_floats_round_trip(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(small_config), "--out", str(out)])
        rows = (out / "runs.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            regret, pct, oracle = map(float, cells[7:10])
            # 17 significant digits reproduce the doubles exactly
            assert pct == 100.0 * regret / oracle

    def test_malformed_seed_env_is_config_error(self, small_config, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setenv("PRIVBANDIT_SEED", "abc")
        assert main(["simulate", "--config", str(small_config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_nonprivate_honours_its_constants(self, tmp_path):
        outputs = []
        for value in (0.5, 50.0):
            path = tmp_path / f"np{value}.json"
            path.write_text(json.dumps({"policy": {"kind": "nonprivate", "c1": value, "c2": value},
                                        "T": [300], "reps": 2, "seed": 3}))
            out = tmp_path / f"out{value}"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            outputs.append((out / "runs.csv").read_bytes())
        assert outputs[0] != outputs[1]

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("doc", BAD_VALUE_DOCS)
    def test_bad_values_are_config_errors(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"T": [10], "eps": [1.0], **doc}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"T": [10], "eps": [1.0], "mystery": True}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "mystery" in capsys.readouterr().err


class TestReproduce:
    def test_slope_preset_small_grid(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TABLE_T_GRID", (50, 100))
        monkeypatch.setattr(cli, "TABLE_EPS_GRID", (1.0,))
        out = tmp_path / "rep"
        rc = main(["reproduce", "slope-lppq", "--reps", "2", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "slope" in text
        assert (out / "slope-lppq.svg").exists()
        assert (out / "slope-lppq.csv").exists()
        svg = (out / "slope-lppq.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_table_preset_small_grid(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TABLE_T_GRID", (50,))
        monkeypatch.setattr(cli, "TABLE_EPS_GRID", (1.0, 0.1))
        rc = main(["reproduce", "table-lppq", "--reps", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Non-Private" in text
        assert "T=50" in text


@pytest.mark.parametrize("argv", [
    ["reproduce", "table-lppq", "--reps", "0"],
    ["reproduce", "slope-lppq", "--reps", "-2"],
    ["privacy-check", "--eps", "1", "--trials", "0"],
    ["privacy-check", "--eps", "1", "--trials", "-5"],
    ["reproduce", "table-lppq", "--reps", "1", "--jobs", "0"],
    ["reproduce", "slope-lppq", "--reps", "1", "--jobs", "-3"],
    ["privacy-check", "--eps", "1", "--trials", "5", "--max-revenue", "-1"],
    ["privacy-check", "--eps", "1", "--trials", "5", "--max-revenue", "0"],
    ["privacy-check", "--eps", "1", "--trials", "5", "--max-revenue", "inf"],
    ["privacy-check", "--eps", "inf", "--trials", "5"],
])
def test_nonpositive_counts_are_config_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "PASS" not in captured.out


class TestPrivacyCheck:
    def test_normalized_revenue_passes(self):
        report = privacy_check(eps=1.0, trials=2000, seed=3)
        assert report["pass"]
        assert report["analytic_bound"] == 1.0
        assert report["max_log_ratio"] <= 1.0 + 1e-9
        assert report["worst_l1_sensitivity"] <= 2.0

    def test_tight_for_small_eps(self):
        report = privacy_check(eps=0.1, trials=2000, seed=4)
        assert report["pass"]
        assert report["analytic_bound"] == pytest.approx(0.1)

    def test_large_revenue_raises_bound_and_warns(self, capsys):
        rc = main(["privacy-check", "--eps", "1.0", "--trials", "500",
                   "--max-revenue", "2.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WARNING" in out
        assert "PASS" in out

    def test_cli_pass_line(self, capsys):
        assert main(["privacy-check", "--eps", "0.5", "--trials", "500"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_rejects_nonpositive_eps(self, capsys):
        assert main(["privacy-check", "--eps", "-1"]) == 2


class TestSvgChart:
    def test_one_polyline_per_series(self):
        svg = line_chart({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
                         xlabel="x", ylabel="y", title="t")
        assert svg.count("<polyline") == 2
        assert svg.count("<circle") == 4
        assert "href" not in svg  # self-contained
        assert "a</text>" in svg and "b</text>" in svg

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            line_chart({})


class TestFormatTable:
    def test_row_order(self):
        from privbandit.harness import AggregateResult
        aggs = [
            AggregateResult("nonprivate", math.inf, 50, 1, 1.0, None, 5.0, None),
            AggregateResult("lppq", 0.1, 50, 1, 1.0, None, 20.0, None),
            AggregateResult("lppq", 10.0, 50, 1, 1.0, None, 12.0, None),
        ]
        text = format_table(aggs, [50])
        lines = text.splitlines()
        assert lines[1].startswith("Non-Private")
        assert lines[2].startswith("eps=10")
        assert lines[3].startswith("eps=0.1")
