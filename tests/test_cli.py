import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mathieu_resurgence
from mathieu_resurgence import __main__ as script
from mathieu_resurgence import cli
from mathieu_resurgence.cli import (
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_script(capsys, *argv):
    """As ``run``, through the entry point of ``python -m`` and the
    script, which replays and records with the cache set."""
    code = script.main(list(argv))
    return code, capsys.readouterr().out


class TestSubcommands:
    def test_pert_matches_printed_table(self, capsys):
        code, out = run(capsys, "pert", "--order", "5", "--poly")
        assert code == EXIT_OK
        payload = json.loads(out)
        rows = {r["power"]: r["coefficients_in_B"] for r in payload["rows"]}
        assert rows[2] == ["-1/64", "0", "-1/16"]
        assert rows[5] == ["0", "-405/4194304", "0", "-205/524288", "0", "-33/262144"]

    def test_pinst_ground_band(self, capsys):
        code, out = run(capsys, "pinst", "--order", "2", "--N", "0")
        payload = json.loads(out)
        assert payload["at_N_in_hbar_over_8"] == ["1", "-7/8", "-59/128"]

    def test_strong(self, capsys):
        code, out = run(capsys, "strong", "--N", "1", "--order", "6", "--hbar", "6.0")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["at_hbar"]["upper_u"] == pytest.approx(4.9929586, abs=1e-4)

    def test_zjj(self, capsys):
        code, out = run(capsys, "zjj", "--order", "3")
        payload = json.loads(out)
        assert payload["A_pole"] == "16/hbar"
        assert payload["A_of_B"][1]["coefficients_in_B"] == ["3/64", "0", "3/16"]

    def test_actions_well(self, capsys):
        code, out = run(capsys, "actions", "--region", "well", "--n", "1", "--order", "3")
        payload = json.loads(out)
        assert payload["rows"][0]["coefficient"] == "1/128"

    def test_spectrum_and_widths(self, capsys):
        code, out = run(capsys, "spectrum", "--hbar", "0.8", "--bands", "2")
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 6
        code, out = run(capsys, "widths", "--kind", "band", "--N", "0", "--hbar", "0.5")
        payload = json.loads(out)
        assert payload["rows"][0]["ratio"] == pytest.approx(1.0, abs=0.05)

    def test_widths_reports_regime_warnings(self, capsys):
        code, out = run(capsys, "widths", "--kind", "band", "--N", "3", "--hbar", "0.5")
        assert code == EXIT_OK
        (diag,) = json.loads(out)["diagnostics"]
        assert diag["category"] == "RegimeWarning"
        assert "N*hbar = 1.5" in diag["message"]
        code, out = run(capsys, "widths", "--kind", "band", "--N", "3", "--hbar", "0.5",
                        "--format", "csv")
        assert "# diagnostics = " in out and "N*hbar = 1.5" in out
        code, out = run(capsys, "widths", "--kind", "band", "--N", "0", "--hbar", "0.5")
        assert json.loads(out)["diagnostics"] == []

    def test_gap_below_the_barrier_top_is_reported(self, capsys):
        # N*hbar = 2.4: the gap's centre (N hbar)^2/8 = 0.72 lies below u = 1,
        # where the formula overshoots the oracle by 1e12
        code, out = run(capsys, "widths", "--kind", "gap", "--N", "120", "--hbar", "0.02")
        assert code == EXIT_OK
        (diag,) = json.loads(out)["diagnostics"]
        assert diag["category"] == "RegimeWarning"
        assert "N*hbar = 2.4" in diag["message"]

    def test_gap_far_from_its_leading_term_is_reported(self, capsys):
        # above the barrier top, the leading term is 2.06 times the oracle width
        code, out = run(capsys, "widths", "--kind", "gap", "--N", "10", "--hbar", "0.3")
        assert code == EXIT_OK
        (diag,) = json.loads(out)["diagnostics"]
        assert diag["category"] == "RegimeWarning"
        assert "first correction" in diag["message"] and "= 0.605" in diag["message"]

    def test_deep_width_resolves_with_its_tier(self, capsys):
        code, out = run(capsys, "widths", "--kind", "band", "--N", "0", "--hbar", "0.1")
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["ratio"] == pytest.approx(1.0, abs=1e-3)
        assert isinstance(row["oracle_dps"], int) and row["oracle_dps"] > 35
        assert isinstance(row["oracle_truncation"], int)
        code, out = run(capsys, "widths", "--kind", "band", "--N", "0", "--hbar", "0.1",
                        "--format", "csv")
        header, values = out.strip().split("\n")[-2:]
        csv_row = dict(zip(header.split(","), values.split(",")))
        assert csv_row["oracle_dps"] == str(row["oracle_dps"])
        assert csv_row["oracle_truncation"] == str(row["oracle_truncation"])

    def test_float_width_reports_no_dps(self, capsys):
        code, out = run(capsys, "widths", "--kind", "gap", "--N", "2", "--hbar", "6.0")
        (row,) = json.loads(out)["rows"]
        assert row["oracle_dps"] is None and row["oracle_truncation"] >= 10

    def test_zerodim_rows(self, capsys):
        code, out = run(capsys, "zerodim", "--m", "1/4", "--order", "4", "--check", "rows")
        payload = json.loads(out)
        got = [r["coefficient_at_m"] for r in payload["rows"]]
        assert got == ["1", "1/8", "9/64", "105/512", "1995/4096"]

    def test_benderwu_lame(self, capsys):
        code, out = run(
            capsys, "benderwu", "--potential", "lame", "--m", "1/2", "--order", "4"
        )
        payload = json.loads(out)
        vals = [r["coefficient"] for r in payload["rows"]]
        assert vals == ["0", "1/2", "0", "-3/64", "0"]


class TestExactPayloadDigests:
    """No rational coefficient may move: sha256 of each payload with its
    metadata removed, as sorted compact JSON, pinned from the implementation
    whose exact algebra held every coefficient as a ``Fraction``."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("pert --order 10 --poly",
             "7d63c7efddcfe6c9a7dcc8ce0b9a2381d71bb1f9ea7962afe6becec1a8ce7f48"),
            ("zjj --order 7",
             "59ebd7360632ee59ffbb6fc32621cb128ae13b81b891eb6c9baa2609990559c1"),
            # the same digest as pert: Bender-Wu equals the WKB inversion
            ("benderwu --potential mathieu --poly --order 10",
             "7d63c7efddcfe6c9a7dcc8ce0b9a2381d71bb1f9ea7962afe6becec1a8ce7f48"),
            ("strong --N 2 --order 10 --hbar 7",
             "a3da90bf3641b7c955308f64481023fa93e281f0b7c95ff7ddf3c82db35262eb"),
            ("zerodim --m 1/4 --check rows",
             "b1d7223bf5b4989f5c26fd4bc586a06b806fed513b03f1ad1144338779f5e160"),
        ],
    )
    def test_payload_digest(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("MATHIEU_RESURGENCE_CACHE", raising=False)
        code, out = run(capsys, *argv.split())
        assert code == EXIT_OK
        payload = json.loads(out)
        del payload["metadata"]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestExitCodes:
    def test_usage(self, capsys):
        assert main(["definitely-not-a-command"]) == EXIT_USAGE

    def test_unsupported_region(self, capsys):
        # the region is one of argparse's choices, checked before any table
        assert main(["actions", "--region", "nowhere"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--region" in captured.err

    def test_domain(self, capsys):
        assert main(["widths", "--kind", "gap", "--N", "0", "--hbar", "6.0"]) == EXIT_DOMAIN

    def test_convergence(self, capsys):
        # a width far below the double range cannot be reported
        assert main(["widths", "--kind", "band", "--N", "0", "--hbar", "0.008"]) == EXIT_CONVERGENCE

    @pytest.mark.parametrize("hbar", ["0.008", "0.001"])
    def test_width_below_the_double_range_fails_fast(self, capsys, hbar):
        # refused from its estimate (~1e-435 and ~1e-3475) before any matrix
        # is built, not after an mp run at thousands of digits
        start = time.perf_counter()
        assert main(["widths", "--kind", "band", "--N", "0", "--hbar", hbar]) == EXIT_CONVERGENCE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "below the double range" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pert", "--order", "2", "--hbar", "0.1"],
            ["zerodim", "--check", "rows", "--hbar", "0.1"],
            ["zerodim", "--check", "relation", "--hbar", "0.1"],
            ["benderwu", "--potential", "mathieu", "--m", "1/4"],
            ["benderwu", "--m", "1/4"],
            ["benderwu", "--poly", "--order", "3", "--N", "2"],
            ["benderwu", "--poly", "--order", "3", "--N", "0"],
            ["zerodim", "--check", "borel", "--hbar", "0.2", "--order", "4"],
            ["zerodim", "--check", "borel", "--order", "8"],
            ["--format", "csv", "pert", "--order", "1"],
            ["--pretty", "pert"],
            ["--output", "out.json", "pert"],
            # --pretty would drop the csv rendering
            ["pert", "--order", "1", "--pretty", "--format", "csv"],
            ["pert", "--format", "csv", "--pretty"],
        ],
    )
    def test_option_the_mode_would_drop_is_usage(self, capsys, argv):
        # an option that would be accepted and silently ignored; the output
        # options belong to the subcommand, whose defaults would overwrite them
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["benderwu", "--poly", "--order", "3"], "N", "0"),
            (["benderwu", "--order", "3"], "N", "0"),
            (["zerodim", "--check", "borel", "--hbar", "0.2"], "order", "8"),
            (["zerodim", "--check", "rows", "--order", "2"], "order", "2"),
        ],
    )
    def test_mode_defaults_are_filled_after_the_check(self, capsys, argv, key, value):
        # the config in the metadata reads as it did when the parser filled
        # these defaults itself
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["config"][key] == value

    @pytest.mark.parametrize(
        "argv",
        [
            ["zerodim", "--m", "abc"],
            ["zerodim", "--m", "1/0"],
            ["zerodim", "--m", "1/"],
            ["benderwu", "--m", "x"],
        ],
    )
    def test_malformed_fraction_is_usage(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "--m" in err

    @given(num=st.integers(-10**20, 10**20), den=st.integers(-10**6, 10**6).filter(bool),
           integer=st.booleans())
    def test_fraction_text_is_the_lowest_terms_of_fraction(self, num, den, integer):
        # --m is parsed once to a Fraction; its text (the config in the
        # metadata) must read as str(Fraction) does
        from fractions import Fraction

        if integer:
            got, want = cli._fraction(str(num)), Fraction(num)
        else:
            got, want = cli._fraction(f"{num}/{den}"), Fraction(num, den)
        assert type(got) is Fraction and str(got) == str(want)

    @pytest.mark.parametrize(
        "argv",
        [
            ["strong", "--N", "1", "--order", "-1"],
            ["zjj", "--order", "-1"],
            ["actions", "--order", "-1"],
            ["actions", "--region", "high", "--n", "-1"],
            ["actions", "--n", "-1"],
            ["pinst", "--order", "-1"],
            ["pinst", "--N", "-1"],
            ["pert", "--order", "2", "--N", "-1"],
            ["pert", "--order", "2", "--N", "0", "--hbar", "nan"],
            ["pert", "--order", "2", "--N", "0", "--hbar", "inf"],
            ["pert", "--order", "2", "--N", "0", "--hbar", "-0.1"],
            ["pert", "--order", "2", "--N", "0", "--hbar", "0"],
            ["strong", "--N", "1", "--order", "4", "--hbar", "nan"],
            ["strong", "--N", "1", "--order", "4", "--hbar", "0"],
            ["zerodim", "--check", "borel", "--hbar", "nan"],
            ["zerodim", "--check", "borel", "--hbar", "inf"],
        ],
    )
    def test_exact_series_inputs_out_of_domain(self, capsys, argv):
        # negative orders, levels and hbar values that are not finite and
        # > 0 are domain errors, not tracebacks, NaN in the payload or an
        # hbar dropped without a word
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["spectrum", "--hbar", "1e-200", "--bands", "2"], EXIT_CONVERGENCE),
            (["spectrum", "--hbar", "1e-6", "--bands", "2"], EXIT_CONVERGENCE),
            (["spectrum", "--hbar", "1e200", "--bands", "2"], EXIT_DOMAIN),
            (["strong", "--N", "1", "--order", "4", "--hbar", "1e200"], EXIT_DOMAIN),
            (["strong", "--N", "1", "--order", "4", "--hbar", "1e-200"], EXIT_DOMAIN),
            (["widths", "--kind", "band", "--N", "0", "--hbar", "1e200"], EXIT_DOMAIN),
            (["widths", "--kind", "gap", "--N", "1", "--hbar", "1e-200"], EXIT_CONVERGENCE),
            (["pert", "--order", "2", "--N", "0", "--hbar", "1e200"], EXIT_DOMAIN),
            (["zerodim", "--check", "borel", "--hbar", "1e-200"], EXIT_CONVERGENCE),
            (["zerodim", "--check", "borel", "--hbar", "1e200"], EXIT_DOMAIN),
        ],
    )
    def test_hbar_at_the_ends_of_the_float_range(self, capsys, argv, code):
        # a Fourier truncation past the cap, a Hill matrix or a series
        # value beyond double precision: typed errors, neither a traceback,
        # nor Infinity in the payload, nor a truncation too large to build
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["widths", "--kind", "gap", "--N", "90", "--hbar", "0.05"],
            ["widths", "--kind", "gap", "--N", "120", "--hbar", "0.02"],
            ["widths", "--kind", "band", "--N", "171", "--hbar", "2"],
        ],
    )
    def test_widths_at_large_N_stay_in_range(self, capsys, argv):
        # the factorials and powers of the width formulas leave the double
        # range at these N although the widths do not: estimates, not an
        # OverflowError traceback
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        (row,) = json.loads(out, parse_constant=_reject_constant)["rows"]
        assert 0 < row["asymptotic_leading"] < math.inf

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["widths", "--kind", "gap", "--N", "171", "--hbar", "3"], EXIT_CONVERGENCE),
            (["widths", "--kind", "band", "--N", "171", "--hbar", "0.5"], EXIT_CONVERGENCE),
        ],
    )
    def test_widths_at_large_N_beyond_reach(self, capsys, argv, code):
        # a convergence failure that names its cause, not an OverflowError
        # in the width estimate that sizes the oracle's precision
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("order", ["1", "4", "7"])
    def test_zerodim_relation_order_below_its_first_row(self, capsys, order):
        # the relation rows are n = 8, 12, ... up to --order, so a lower
        # order selects none: the message names the option the user set
        assert main(["zerodim", "--check", "relation", "--order", order]) == EXIT_DOMAIN
        assert "--order >= 8" in capsys.readouterr().err

    def test_lame_parameter_out_of_domain(self, capsys):
        argv = ["benderwu", "--potential", "lame", "--m", "3/2", "--order", "2"]
        assert main(argv) == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "argv",
        [
            ["zerodim", "--check", "relation", "--order", "7"],
            ["zerodim", "--check", "relation", "--order", "-3"],
            ["zerodim", "--check", "rows", "--order", "-1"],
        ],
    )
    def test_zerodim_order_out_of_domain(self, capsys, argv):
        # too low an order leaves no coefficient to check: a domain error,
        # not a traceback and not an empty table
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["figure1", "--hbar-min", "0"], EXIT_DOMAIN),
            (["figure1", "--points", "-2"], EXIT_DOMAIN),
            (["figure2", "--q-min", "0"], EXIT_DOMAIN),
            (["figure2", "--q-min", "-1"], EXIT_DOMAIN),
            (["spectrum", "--hbar", "nan"], EXIT_DOMAIN),
            (["spectrum", "--hbar", "inf"], EXIT_DOMAIN),
            (["widths", "--kind", "band", "--N", "0", "--hbar", "nan"], EXIT_DOMAIN),
            (["widths", "--kind", "band", "--N", "-1", "--hbar", "0.5"], EXIT_DOMAIN),
            (["spectrum", "--hbar", "1.0", "--bands", "100"], EXIT_CONVERGENCE),
            (["spectrum", "--hbar", "0.7", "--bands", "400"], EXIT_CONVERGENCE),
        ],
    )
    def test_spectral_inputs_out_of_reach(self, capsys, argv, code):
        # typed errors, not tracebacks; a truncation whose half cannot hold
        # the requested band is a convergence failure that names M
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        if code == EXIT_CONVERGENCE:
            assert "M=" in captured.err

    @pytest.mark.parametrize("m", ["3/2", "-1/4"])
    def test_rows_parameter_out_of_domain(self, capsys, m):
        for m_args in ([f"--m={m}"], ["--m", m]):
            argv = ["zerodim", "--check", "rows", *m_args, "--order", "2"]
            assert main(argv) == EXIT_DOMAIN
            assert "m in [0, 1]" in capsys.readouterr().err


class TestOutputPlumbing:
    def test_determinism(self, tmp_path, capsys, monkeypatch):
        # stdout is a function of the argv alone: with one cache directory
        # set, each run, in-process or under -m, prints the bytes of a run
        # without it, whatever the rendering of the argv run before
        monkeypatch.delenv("MATHIEU_RESURGENCE_CACHE", raising=False)
        spectrum = ("spectrum", "--hbar", "1.0", "--bands", "1", "--format", "csv")
        zjj = ("zjj", "--order", "2", "--pretty")
        widths = ("widths", "--kind", "band", "--N", "0", "--hbar", "0.5")
        cold = {}
        for argv in (
            ("pert", "--order", "4", "--poly"),
            ("figure1", "--hbar-min", "0.7", "--hbar-max", "1.1", "--points", "2", "--bands", "3",
             "--format", "csv"),
            spectrum, zjj, widths, (*widths, "--format", "csv"),
        ):
            _, cold[argv] = run(capsys, *argv)
            assert run(capsys, *argv)[1] == cold[argv]
        monkeypatch.setenv("MATHIEU_RESURGENCE_CACHE", str(tmp_path))
        for argv in (spectrum, zjj):
            for _ in range(2):
                assert run(capsys, *argv) == (EXIT_OK, cold[argv])
        for argv in (widths, (*widths, "--format", "csv")):
            code, out, _, _ = _script(*argv, cache=tmp_path)
            assert code == EXIT_OK and out.decode() == cold[argv]

    def test_csv_format(self, capsys):
        code, out = run(capsys, "spectrum", "--hbar", "1.0", "--bands", "1", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0].startswith("#")
        header = lines.index("hbar,Q,N,edge,u,err")
        cells = [line.split(",") for line in lines[header + 1:]]
        # the rows of the JSON payload, with u to 17 significant digits
        _, out = run(capsys, "spectrum", "--hbar", "1.0", "--bands", "1")
        rows = json.loads(out)["rows"]
        assert len(cells) == len(rows) == 4
        for cell, row in zip(cells, rows):
            assert cell[4] == format(row["u"], ".17g") and float(cell[4]) == row["u"]
            assert len(cell[4].replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_csv_keeps_every_payload_key(self, capsys):
        _, out = run(capsys, "pinst", "--order", "2", "--N", "0")
        want = json.loads(out)["at_N_in_hbar_over_8"]
        code, out = run(capsys, "pinst", "--order", "2", "--N", "0", "--format", "csv")
        assert code == EXIT_OK
        comments = [line for line in out.split("\n") if line.startswith("# ")]
        assert f"# at_N_in_hbar_over_8 = {json.dumps(want)}" in comments
        assert any(line.startswith("power,") for line in out.split("\n"))

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, _ = run(capsys, "pert", "--order", "2", "--output", str(target))
        assert code == EXIT_OK
        assert json.loads(target.read_text())["metadata"]["command"] == "pert"

    def test_unwritable_output_is_usage(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        assert main(["pert", "--order", "2", "--output", str(target)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and str(target) in captured.err
        assert "Traceback" not in captured.err

    def test_metadata_carries_config(self, capsys):
        _, out = run(capsys, "pert", "--order", "2")
        meta = json.loads(out)["metadata"]
        assert meta["config"]["order"] == "2"
        assert "version" in meta

    def test_cache_key_carries_version(self, tmp_path, capsys, monkeypatch):
        # another interpreter version is another key
        monkeypatch.setenv("MATHIEU_RESURGENCE_CACHE", str(tmp_path))
        run_script(capsys, "pert", "--order", "2", "--poly")
        hexversion, crc = script.code_key()
        monkeypatch.setattr(script, "code_key", lambda: [hexversion + 1, crc])
        run_script(capsys, "pert", "--order", "2", "--poly")
        assert len(list(tmp_path.iterdir())) == 2

    def test_entry_of_another_schema_is_recomputed(self, tmp_path, capsys, monkeypatch):
        # stdout recorded by other code must not be served
        monkeypatch.delenv("MATHIEU_RESURGENCE_CACHE", raising=False)
        _, fresh = run(capsys, "actions", "--n", "1", "--order", "3")
        monkeypatch.setenv("MATHIEU_RESURGENCE_CACHE", str(tmp_path))
        with monkeypatch.context() as m:
            m.setattr(script, "code_key", lambda: [0, 0])
            m.setitem(cli.RUNNERS, "actions", lambda args: {"rows": [], "stale": True})
            _, stale = run_script(capsys, "actions", "--n", "1", "--order", "3")
        assert "stale" in json.loads(stale)
        code, out = run_script(capsys, "actions", "--n", "1", "--order", "3")
        assert code == EXIT_OK and out == fresh
        assert len(list(tmp_path.iterdir())) == 2

    def test_entry_for_a_rejected_argv_is_not_served(self, tmp_path, capsys, monkeypatch):
        # an older pert evaluated hbar = nan and recorded the NaN output,
        # which its own code key still replays
        argv = ("pert", "--order", "2", "--N", "0", "--hbar", "nan")
        monkeypatch.setenv("MATHIEU_RESURGENCE_CACHE", str(tmp_path))
        stale = {"rows": [], "at_N": {"N": 0, "coefficients": [], "value": math.nan}}
        with monkeypatch.context() as m:
            m.setattr(script, "code_key", lambda: [0, 0])
            m.setitem(cli.RUNNERS, "pert", lambda args: dict(stale))
            code, out = run_script(capsys, *argv)
        assert code == EXIT_OK and "NaN" in out
        with monkeypatch.context() as m:
            m.setattr(script, "code_key", lambda: [0, 0])
            assert run_script(capsys, *argv) == (EXIT_OK, out)
        code, out = run_script(capsys, *argv)
        assert code == EXIT_DOMAIN and out == ""

    @staticmethod
    def _copy_and_run(tmp_path, **env):
        """Copy the package under tmp_path; return a runner of `spectrum
        --hbar 1.0 --bands 1` on the copy in a fresh interpreter, with or
        without one cache, that returns the set of its `err` values."""
        shutil.copytree(Path(mathieu_resurgence.__file__).parent, tmp_path / "mathieu_resurgence",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"} | env
        env["PYTHONPATH"] = str(tmp_path)

        def errs(cache=True):
            env["MATHIEU_RESURGENCE_CACHE"] = str(tmp_path / "cache") if cache else ""
            proc = subprocess.run(
                [sys.executable, "-m", "mathieu_resurgence", "spectrum", "--hbar", "1.0",
                 "--bands", "1"], cwd=tmp_path, env=env, capture_output=True, text=True,
                check=True)
            return {r["err"] for r in json.loads(proc.stdout)["rows"]}

        return errs

    def test_edited_source_is_recomputed(self, tmp_path):
        # a copy of the package run in fresh interpreters with one cache:
        # lowering the double-precision digit cap of its oracle between two
        # runs must show in the second
        errs = self._copy_and_run(tmp_path, PYTHONDONTWRITEBYTECODE="1")
        assert errs() == {1e-13}
        oracle = tmp_path / "mathieu_resurgence" / "oracle.py"
        text = oracle.read_text()
        cap = "None, 13)"
        assert text.count(cap) == 1
        oracle.write_text(text.replace(cap, cap.replace("13", "12")))
        assert errs(cache=False) == {1e-12}
        assert errs() == {1e-12}
        assert len(list((tmp_path / "cache").glob("replay-*"))) == 2

    def test_payload_of_stale_bytecode_is_not_served_after_recompiling(self, tmp_path):
        # Python runs a module's cached .pyc while the source keeps its size
        # and whole-second mtime, so an edit that keeps both is computed by
        # the old code; once a touch recompiles it, the cache must not serve
        # that stale output under the edited source's key
        errs = self._copy_and_run(tmp_path)
        assert errs() == {1e-13}
        oracle = tmp_path / "mathieu_resurgence" / "oracle.py"
        st = oracle.stat()
        oracle.write_text(oracle.read_text().replace("None, 13)", "None, 12)"))
        os.utime(oracle, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert oracle.stat().st_size == st.st_size
        assert errs() == {1e-13}  # the old bytecode ran
        os.utime(oracle)
        assert errs(cache=False) == {1e-12}
        assert errs() == {1e-12}


class TestGrids:
    """The figure grids reproduce numpy's, without numpy."""

    @pytest.mark.parametrize(
        "start, stop, num",
        [(2.0, 60.0, 30), (2.0, 70.0, 30), (2.0, 2.0, 5), (-1.5, 3.25, 7), (0.1, 0.3, 3),
         (5.0, 1.0, 4), (2.0, 60.0, 1), (2.0, 60.0, 0), (2.0, math.inf, 1),
         (math.nan, 60.0, 3), (math.inf, 60.0, 3)],
    )
    def test_linspace_equals_numpy(self, start, stop, num):
        np = pytest.importorskip("numpy")
        with np.errstate(invalid="ignore"):
            want = [repr(float(v)) for v in np.linspace(start, stop, num)]
        assert [repr(v) for v in cli._linspace(start, stop, num)] == want

    @pytest.mark.parametrize("stop", [2.5, 3.0, 3.5])
    def test_geomspace_within_an_ulp_of_numpy(self, stop):
        np = pytest.importorskip("numpy")
        got = cli._geomspace(0.3, stop, 28)
        want = [float(v) for v in np.geomspace(0.3, stop, 28)]
        assert got[0] == 0.3 and got[-1] == stop
        assert all(abs(a - b) <= math.ulp(b) for a, b in zip(got, want))

    def test_zero_and_one_point(self, capsys):
        code, out = run(capsys, "figure1", "--points", "0")
        assert code == EXIT_OK and json.loads(out)["rows"] == []
        code, out = run(capsys, "figure1", "--points", "1", "--hbar-min", "0.7", "--bands", "1")
        assert code == EXIT_OK and {r["hbar"] for r in json.loads(out)["rows"]} == {0.7}
        code, out = run(capsys, "figure2", "--points", "1", "--q-min", "9", "--bands", "1")
        assert code == EXIT_OK and {r["Q"] for r in json.loads(out)["rows"]} == {9.0}


# hbar and Q values of every kind the domain checks must meet
_SPECIAL = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.5, -3.0, 1e-308, 1e-200, 1e200, 1e308]
)


def _scale(lo, hi):
    return st.one_of(_SPECIAL, st.floats(lo, hi)).map(lambda v: f"{v!r}")


_labels = st.integers(-2, 200).map(str)
_points = st.integers(-2, 6).map(str)
_argv = st.one_of(
    st.tuples(st.just("spectrum"), st.just("--hbar"), _scale(0.05, 10), st.just("--bands"), _labels),
    st.tuples(st.just("figure1"), st.just("--hbar-min"), _scale(0.05, 10), st.just("--hbar-max"),
              _scale(0.05, 10), st.just("--points"), _points, st.just("--bands"), _labels),
    st.tuples(st.just("figure2"), st.just("--q-min"), _scale(0.04, 1600), st.just("--q-max"),
              _scale(0.04, 1600), st.just("--points"), _points, st.just("--bands"), _labels),
    st.tuples(st.just("widths"), st.just("--kind"), st.sampled_from(["band", "gap"]), st.just("--N"),
              _labels, st.just("--hbar"), _scale(0.05, 10)),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_contract(argv):
    """Run main uncached: a documented exit code, and stdout, strict JSON
    (no NaN or Infinity), exactly on success."""
    # an exception escaping main would be a traceback: the call itself must not raise
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("MATHIEU_RESURGENCE_CACHE", None)
        code = main(list(argv))
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_CONVERGENCE, EXIT_USAGE)
    assert (code == EXIT_OK) == bool(out.getvalue())
    if code == EXIT_OK:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=_argv)
def test_spectral_subcommands_end_in_a_documented_exit_code(argv):
    _check_contract(argv)


def _req(flag, value):
    """An option that is always given: the flag, then a drawn value."""
    return st.tuples(st.just(flag), value)


def _opt(flag, value):
    """An option that may be left out."""
    return st.one_of(st.just(()), _req(flag, value))


def _switch(flag):
    return st.sampled_from([(), (flag,)])


def _command(name, *groups):
    return st.tuples(*groups).map(lambda gs: [name, *(a for g in gs for a in g)])


_orders = st.integers(-2, 6).map(str)
_hbar = _scale(0.05, 10)
_m = st.sampled_from(["0", "1/4", "1", "-1/4", "3/2"])
_exact_argv = st.one_of(
    _command("pert", _req("--order", _orders), _opt("--N", _orders), _opt("--hbar", _hbar),
             _switch("--poly")),
    _command("strong", _req("--N", _orders), _req("--order", _orders), _opt("--hbar", _hbar)),
    _command("pinst", _req("--order", _orders), _opt("--N", _orders)),
    _command("zjj", _req("--order", _orders)),
    _command("actions", _req("--region", st.sampled_from(["well", "high"])),
             _req("--n", _orders), _req("--order", _orders)),
    _command("benderwu", _req("--potential", st.sampled_from(["mathieu", "lame"])),
             _opt("--m", _m), _opt("--N", _orders), _req("--order", _orders), _switch("--poly")),
    _command("zerodim", _req("--m", _m), _req("--order", _orders),
             _req("--check", st.sampled_from(["rows", "relation", "borel"])),
             st.lists(_req("--hbar", _hbar), max_size=2).map(lambda hs: sum(hs, ()))),
    # a Borel check whose inputs are all in its domain, so that its payload is fuzzed too
    _command("zerodim", _req("--check", st.just("borel")),
             _req("--hbar", st.floats(0.05, 10).map(repr))),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=_exact_argv)
def test_exact_series_and_zerodim_end_in_a_documented_exit_code(argv):
    _check_contract(argv)


_PROBE = """
import json, sys
exec(sys.argv.pop(1))
import mathieu_resurgence.cli as cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
sys.stdout.write("\\n" + json.dumps({"code": code, "modules": sorted(sys.modules)}) + "\\n")
"""


def _probe(*argv, before=""):
    """Run the CLI in a fresh interpreter, after the statements ``before``;
    return (exit code, loaded modules)."""
    src = str(Path(mathieu_resurgence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("MATHIEU_RESURGENCE_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, before, *argv], env=env, capture_output=True, text=True,
        check=True,
    )
    report = json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    return report["code"], set(report["modules"])


@functools.lru_cache(maxsize=None)
def _bare_modules() -> frozenset:
    """The modules this interpreter loads with the probe's own imports
    alone, so that a module some environment loads at start-up (a .pth
    import, say) does not count against the CLI."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    return frozenset(json.loads(proc.stdout))


# one cheap argv per subcommand; zerodim and benderwu lame parse --m
_ONE_PER_SUBCOMMAND = [
    ("pert", "--order", "3", "--N", "1", "--hbar", "0.1"),
    ("strong", "--N", "1", "--order", "3", "--hbar", "6"),
    ("pinst", "--order", "2", "--N", "0"),
    ("zjj", "--order", "2"),
    ("actions", "--region", "well", "--n", "1", "--order", "3"),
    ("spectrum", "--hbar", "1.0", "--bands", "1"),
    ("figure1", "--points", "1", "--bands", "1"),
    ("figure2", "--points", "1", "--bands", "1"),
    ("widths", "--kind", "gap", "--N", "1", "--hbar", "6"),
    ("zerodim", "--m", "1/4", "--check", "rows", "--order", "2"),
    ("benderwu", "--potential", "lame", "--order", "2"),
]

_WITHOUT_MPMATH = """
import contextlib, importlib, io, json, math, pkgutil, sys
from decimal import Decimal


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            raise ModuleNotFoundError(f"import of {name} refused", name=name)


sys.meta_path.insert(0, Refuse())
import mathieu_resurgence
for info in pkgutil.iter_modules(mathieu_resurgence.__path__):
    importlib.import_module("mathieu_resurgence." + info.name)
from mathieu_resurgence import benderwu, cli, oracle, spectral, widths

(edge,) = oracle.band_edges(0.3, 0, oracle.HillConfig(dps=60), edges=[(0, "bottom")])
assert isinstance(edge.u, Decimal) and abs(oracle.discriminant(0.3, edge.u) - 1) < 1e-6
deep = oracle.discriminant(0.01, -0.99)
assert isinstance(deep, Decimal) and deep.is_finite() and deep < -1e308
assert math.isfinite(spectral.zjj_quantization_solve(0.4, 0, 0.0, order=4)["u"])
assert widths.large_order_prediction(0, 30) < 0
series = benderwu.rs_series(benderwu.mathieu_well_potential(72), 0, 34)
fit = benderwu.large_order_fit([series[n].const_value() for n in range(2, 35)], n_offset=2)
assert abs(fit["action"] - 16) < 0.16
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
assert not [m for m in sys.modules if m.partition(".")[0] == "mpmath"]
print("no mpmath")
"""


class TestImportCost:
    """Only the subcommands that need the numeric stack load it, and no
    subcommand loads mpmath."""

    def test_every_subcommand_is_probed(self):
        assert {argv[0] for argv in _ONE_PER_SUBCOMMAND} == set(cli.RUNNERS)

    @pytest.mark.parametrize(
        "argv",
        [
            ("pert", "--order", "4", "--N", "1", "--hbar", "0.1"),
            ("zjj", "--order", "3"),
            ("pinst", "--order", "2", "--N", "0"),
            ("strong", "--N", "2", "--order", "4", "--hbar", "7"),
            ("benderwu", "--potential", "mathieu", "--poly", "--order", "4"),
        ],
    )
    def test_exact_series_loads_no_closed_forms(self, argv):
        # the action tables come from dunham; the elliptic closed forms
        # of `actions` and the Jacobi Taylor data of the Lame well are not
        # part of these runs
        code, mods = _probe(*argv)
        assert code == EXIT_OK
        assert not {"mathieu_resurgence.actions", "mathieu_resurgence.jacobi_exact"} & mods

    @pytest.mark.parametrize(
        "argv",
        [
            ("zerodim", "--check", "relation"),
            ("zerodim", "--check", "borel", "--hbar", "0.2"),
        ],
    )
    def test_saddle_checks_load_no_series_ring(self, argv):
        # the saddle data of the checks are rationals in closed form
        code, mods = _probe(*argv)
        assert code == EXIT_OK
        assert not {"mathieu_resurgence.series", "mathieu_resurgence.jacobi_exact"} & mods

    @pytest.mark.parametrize(
        "argv",
        [
            ("zerodim", "--check", "rows"),
            ("zerodim", "--check", "relation", "--order", "12"),
            ("zerodim", "--check", "borel", "--hbar", "0.2"),
        ],
    )
    def test_zerodim_loads_no_elliptic(self, argv):
        # the quadrature runs in the Jacobi amplitude, on sin, and the
        # saddle data are rationals in closed form, so the double-precision
        # elliptic integrals of `actions` are not part of these runs
        code, mods = _probe(*argv)
        assert code == EXIT_OK
        assert "mathieu_resurgence.actions" not in mods

    def test_rows_and_lame_potential_load_the_series_ring(self):
        # the positive control: the guards above are not passing vacuously
        code, mods = _probe("zerodim", "--check", "rows", "--order", "4")
        assert code == EXIT_OK and "mathieu_resurgence.series" in mods
        code, mods = _probe("benderwu", "--potential", "lame", "--m", "1/4", "--order", "4")
        assert code == EXIT_OK and "mathieu_resurgence.jacobi_exact" in mods

    def test_actions_subcommand_loads_the_tables_alone(self):
        # the positive control of the guards that name `actions`: the probe
        # sees the package's modules, and the subcommand reads its tables
        # from `dunham` without the closed forms or the series ring
        for region in ("well", "high"):
            code, mods = _probe("actions", "--region", region, "--n", "1", "--order", "3")
            assert code == EXIT_OK and "mathieu_resurgence.dunham" in mods
            assert not {"mathieu_resurgence.actions", "mathieu_resurgence.series"} & mods

    def test_import_loads_no_numeric_stack(self):
        _, mods = _probe()
        assert not {"numpy", "scipy", "mpmath", "mathieu_resurgence.series"} & mods

    def test_exact_series_loads_no_numeric_stack(self):
        code, mods = _probe("pert", "--order", "4", "--poly")
        assert code == EXIT_OK
        assert not {"numpy", "scipy", "mpmath"} & mods

    @pytest.mark.parametrize(
        "argv",
        [
            ("pert", "--order", "4", "--N", "1", "--hbar", "0.1"),
            ("strong", "--N", "1", "--order", "4", "--hbar", "6"),
            ("pinst", "--order", "2", "--N", "0"),
            ("zjj", "--order", "3"),
            ("actions", "--region", "well", "--n", "1", "--order", "3"),
            ("actions", "--region", "high", "--n", "0", "--order", "4"),
            ("benderwu", "--potential", "mathieu", "--order", "4"),
            ("benderwu", "--potential", "lame", "--m", "1/4", "--order", "4"),
            ("zerodim", "--check", "rows", "--order", "4"),
            ("zerodim", "--check", "relation"),
            ("zerodim", "--check", "borel", "--hbar", "0.2"),
        ],
    )
    def test_exact_series_and_rows_load_no_mpmath(self, argv):
        # the saddle checks compute in the standard library's decimal
        code, mods = _probe(*argv)
        assert code == EXIT_OK
        assert "mpmath" not in mods

    def test_probe_sees_mpmath_once_imported(self):
        # the positive control: the probe sees mpmath when it is loaded, so
        # the guards above are not passing vacuously
        _, mods = _probe(before="import mpmath")
        assert "mpmath" in mods

    def test_package_runs_with_mpmath_blocked(self):
        # the package declares no dependency: with `import mpmath` refused,
        # every module imports, each library function that once computed in
        # mpmath returns, and every subcommand exits 0
        src = str(Path(mathieu_resurgence.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("MATHIEU_RESURGENCE_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_MPMATH, json.dumps(_ONE_PER_SUBCOMMAND)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "no mpmath"

    def test_extended_precision_width_loads_no_numeric_stack(self):
        # the extended-precision Hill tier runs on the standard library's
        # decimal; the probe's `import mpmath` above is the positive control
        code, mods = _probe("widths", "--kind", "band", "--N", "0", "--hbar", "0.1")
        assert code == EXIT_OK
        assert not {"numpy", "scipy", "mpmath"} & mods

    def test_gap_width_loads_no_series_ring(self):
        # the gap estimate is a closed form; the band estimate's fluctuation
        # series comes from the spectral inversion, the positive control
        ring = {"mathieu_resurgence.spectral", "mathieu_resurgence.series",
                "mathieu_resurgence.dunham"}
        code, mods = _probe("widths", "--kind", "gap", "--N", "2", "--hbar", "6")
        assert code == EXIT_OK and not ring & mods
        code, mods = _probe("widths", "--kind", "band", "--N", "0", "--hbar", "0.5")
        assert code == EXIT_OK and ring <= mods

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--hbar", "1.0", "--bands", "3"),
            ("figure1", "--points", "3", "--bands", "3"),
            ("figure2", "--points", "3", "--bands", "3"),
            ("widths", "--kind", "band", "--N", "0", "--hbar", "0.5"),
            ("widths", "--kind", "gap", "--N", "2", "--hbar", "6"),
        ],
    )
    def test_float_tier_loads_no_numeric_stack(self, argv):
        code, mods = _probe(*argv)
        assert code == EXIT_OK and "mathieu_resurgence.oracle" in mods
        assert not {"numpy", "scipy", "mpmath"} & mods


def _split_import_log(stderr: str) -> tuple[set, str]:
    """The modules a ``-X importtime`` log names, and the rest of stderr."""
    mods, rest = set(), []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            mods.add(line.rsplit("|", 1)[1].strip())
        else:
            rest.append(line)
    return mods, "\n".join(rest)


def _script(*argv, cache, cwd=None):
    """Run ``python -X importtime -m mathieu_resurgence argv`` with the
    cache ``cache``; return (exit code, stdout bytes, stderr text without
    the import log, modules imported)."""
    src = str(Path(mathieu_resurgence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               MATHIEU_RESURGENCE_CACHE=str(cache))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "mathieu_resurgence", *argv],
                          env=env, cwd=cwd, capture_output=True)
    mods, err = _split_import_log(proc.stderr.decode())
    return proc.returncode, proc.stdout, err, mods


@functools.lru_cache(maxsize=None)
def _startup_modules() -> frozenset:
    """The modules this interpreter imports before running any code."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                          capture_output=True, text=True, check=True)
    return frozenset(_split_import_log(proc.stderr)[0])


def _replay_entries(cache) -> list:
    return sorted(Path(cache).glob("replay-*"))


# what the CLI loads to parse options and compute a payload
_FRONT_END = {"mathieu_resurgence.cli", "argparse", "json"}
# checksum, rational, dataclass, numeric and oracle modules: a replayed
# command loads none of them, and a computing run no dataclasses
_NOT_ON_A_HIT = {"hashlib", "fractions", "dataclasses", "inspect", "numpy", "scipy", "mpmath",
                 "mathieu_resurgence.oracle"}


class TestReplay:
    """``python -m mathieu_resurgence`` prints the recorded stdout of a
    command run before, without loading the CLI."""

    @pytest.mark.parametrize("render", [(), ("--format", "csv"), ("--pretty",)],
                             ids=["json", "csv", "pretty"])
    @pytest.mark.parametrize("argv", _ONE_PER_SUBCOMMAND)
    def test_replay_prints_the_cold_bytes(self, tmp_path, argv, render):
        argv = (*argv, *render)
        code, cold, _, mods = _script(*argv, cache=tmp_path)
        assert code == EXIT_OK and "mathieu_resurgence.cli" in mods
        assert not {"dataclasses", "inspect"} & (mods - _startup_modules())
        assert len(_replay_entries(tmp_path)) == 1
        code, warm, err, mods = _script(*argv, cache=tmp_path)
        assert code == EXIT_OK and warm == cold and err == ""
        assert not (_FRONT_END | _NOT_ON_A_HIT) & (mods - _startup_modules())

    def test_positive_control_of_the_front_end_set(self, tmp_path):
        # the same command in another rendering is another argv: it misses
        # and goes through the CLI
        argv = ("zjj", "--order", "2")
        _script(*argv, cache=tmp_path)
        code, _, _, mods = _script(*argv, "--format", "csv", cache=tmp_path)
        assert code == EXIT_OK and _FRONT_END <= mods - _startup_modules()

    def test_truncated_entry_is_recomputed(self, tmp_path):
        argv = ("zjj", "--order", "2")
        _, cold, _, _ = _script(*argv, cache=tmp_path)
        (entry,) = _replay_entries(tmp_path)
        good = entry.read_bytes()
        entry.write_bytes(good[:-5])
        code, out, _, mods = _script(*argv, cache=tmp_path)
        assert code == EXIT_OK and out == cold and "mathieu_resurgence.cli" in mods
        assert _replay_entries(tmp_path) == [entry] and entry.read_bytes() == good

    def test_entry_of_another_key_is_recomputed(self, tmp_path):
        # the entry of one argv, put under the name of another, is a miss
        a, b = ("zjj", "--order", "2"), ("zjj", "--order", "3")
        _, out_a, _, _ = _script(*a, cache=tmp_path)
        _, out_b, _, _ = _script(*b, cache=tmp_path)
        entry_a, entry_b = (next(p for p in _replay_entries(tmp_path) if p.read_bytes().endswith(o))
                            for o in (out_a, out_b))
        entry_b.write_bytes(entry_a.read_bytes())
        code, out, _, mods = _script(*b, cache=tmp_path)
        assert code == EXIT_OK and out == out_b and "mathieu_resurgence.cli" in mods

    def test_edited_payload_entry_is_recomputed(self, tmp_path):
        # an entry edited so that it still parses is not served, and the
        # run that recomputes it records the fresh bytes again
        argv = ("zjj", "--order", "2")
        _, fresh, _, _ = _script(*argv, cache=tmp_path)
        (entry,) = _replay_entries(tmp_path)
        good = entry.read_bytes()
        assert b'"3/64"' in good
        entry.write_bytes(good.replace(b'"3/64"', b'"5/64"', 1))
        code, out, _, mods = _script(*argv, cache=tmp_path)
        assert code == EXIT_OK and out == fresh and "mathieu_resurgence.cli" in mods
        assert _replay_entries(tmp_path) == [entry] and entry.read_bytes() == good

    def test_edit_keeping_size_and_mtime_is_recomputed(self, tmp_path):
        # TestOutputPlumbing.test_edited_source_is_recomputed runs under -m
        # as well, so it covers an edit that changes the mtime; without
        # bytecode an edit that keeps size and mtime runs at once, so the
        # key must see the source's bytes
        errs = TestOutputPlumbing._copy_and_run(tmp_path, PYTHONDONTWRITEBYTECODE="1")
        assert errs() == {1e-13}
        oracle = tmp_path / "mathieu_resurgence" / "oracle.py"
        st = oracle.stat()
        oracle.write_text(oracle.read_text().replace("None, 13)", "None, 12)"))
        os.utime(oracle, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert oracle.stat().st_size == st.st_size
        assert errs() == {1e-12}

    def test_output_file_is_written_every_run(self, tmp_path):
        target = tmp_path / "out.json"
        for _ in range(2):
            code, out, _, _ = _script("zjj", "--order", "2", "--output", str(target),
                                      cache=tmp_path / "cache")
            assert code == EXIT_OK and out == b""
            assert json.loads(target.read_text())["metadata"]["command"] == "zjj"
            target.unlink()
        assert not _replay_entries(tmp_path / "cache")

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("pert", "--bogus"), EXIT_USAGE),
            (("zerodim", "--check", "relation", "--order", "7"), EXIT_DOMAIN),
            (("widths", "--kind", "band", "--N", "0", "--hbar", "0.008"), EXIT_CONVERGENCE),
        ],
    )
    def test_failed_run_is_not_recorded(self, tmp_path, argv, want):
        for _ in range(2):
            code, out, err, _ = _script(*argv, cache=tmp_path)
            assert code == want and out == b"" and err
        assert not _replay_entries(tmp_path)

    def test_empty_cache_variable_writes_nothing(self, tmp_path):
        for _ in range(2):
            code, out, _, _ = _script("zjj", "--order", "2", cache="", cwd=tmp_path)
            assert code == EXIT_OK and json.loads(out)["metadata"]["command"] == "zjj"
        assert not list(tmp_path.iterdir())

    def test_argv_with_a_newline(self, tmp_path):
        # the key is one header line whatever the argv holds
        argv = ("pert", "--order", "2", "--N", "0", "--hbar", "0.1\n")
        _, cold, _, _ = _script(*argv, cache=tmp_path)
        code, warm, _, mods = _script(*argv, cache=tmp_path)
        assert code == EXIT_OK and warm == cold and "mathieu_resurgence.cli" not in mods
        assert len(_replay_entries(tmp_path)) == 1

    def test_unusable_cache_directory(self, tmp_path, capsys, monkeypatch):
        # a cache path under a regular file: the result is printed, the run
        # exits 0, and under -m one line on stderr says the result was not
        # stored; an in-process run stores nothing and says nothing
        monkeypatch.delenv("MATHIEU_RESURGENCE_CACHE", raising=False)
        _, fresh = run(capsys, "zjj", "--order", "2")
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "x"
        for _ in range(2):
            code, out, err, _ = _script("zjj", "--order", "2", cache=cache)
            assert code == EXIT_OK and out.decode() == fresh
            assert len(err.splitlines()) == 1 and "Traceback" not in err
        monkeypatch.setenv("MATHIEU_RESURGENCE_CACHE", str(cache))
        assert main(["zjj", "--order", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == fresh and captured.err == ""


def test_pretty_output(capsys):
    code, out = run(capsys, "pert", "--order", "2", "--pretty")
    assert code == EXIT_OK
    assert "coefficients_in_B" in out and "pert" in out
