import json
import os
import subprocess
import sys
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest

import diffusion_lms
from diffusion_lms.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, SLAB_ROWS, _csv, main
from diffusion_lms.config import parse_config
from diffusion_lms.experiment import ALGORITHM_LABELS, build_setup, denoise_speech
from diffusion_lms.network import CombinationWeights
from diffusion_lms.signals import synthetic_speech, wav_bytes

SMALL_CFG = """
[network]
nodes = 6
radius = 0.5

[run]
trials = 2
horizon = 60
steady_window = 20
"""

# the arguments before --config of each command that writes an output directory
COMMAND_ARGS = {
    "run": ["run"],
    "sweep": ["sweep", "--param", "mu", "--grid", "0.05,0.1"],
    "denoise": ["denoise", "--node", "1"],
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def literal_csv(header, first, *columns):
    """The CSV text rendered one value at a time: an index counted from
    ``first``, then ``format(value, ".17g")`` of every column entry."""
    lines = [header]
    for i, row in enumerate(zip(*columns), start=first):
        lines.append(",".join([str(i)] + [format(float(v), ".17g") for v in row]))
    return "\n".join(lines) + "\n"


def fail_second_payload_write(monkeypatch):
    """Make the second text write raise; returns the names written so far."""
    real_write_text = Path.write_text
    calls = []

    def write_text(self, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    return calls


class TestCsvSlabs:
    SPECIAL = (float("-inf"), float("inf"), float("nan"), -0.0, 5e-324, 1e22)

    @pytest.mark.parametrize("rows", [0, 1, SLAB_ROWS, SLAB_ROWS + 1])
    def test_matches_per_value_format(self, rows):
        # the special values in the first row and in the last, which for
        # SLAB_ROWS + 1 rows is a slab of its own
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-300, 300, (rows, 6))
        table[:1] = self.SPECIAL
        table[-1:] = self.SPECIAL[::-1]
        got = _csv("t,a,b,c,d,e,f", "%d" + ",%.17g" * 6 + "\n", np.column_stack((np.arange(rows), table)))
        assert got == literal_csv("t,a,b,c,d,e,f", 0, *table.T)


class TestRun:
    def test_produces_expected_files(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        expected = {
            "trace_atc_dlms.csv",
            "trace_cta_dlms.csv",
            "trace_atc_leaky_dlms.csv",
            "trace_cta_leaky_dlms.csv",
            "comparison.csv",
            "resolved_config.cfg",
            "manifest.json",
        }
        assert names == expected
        header, rows = read_csv(out / "trace_atc_dlms.csv")
        assert header == ["iteration", "msd_db"]
        assert len(rows) == 60
        assert rows[0][0] == "1"
        for _, value in rows:
            assert value == "-inf" or np.isfinite(float(value))
        header, rows = read_csv(out / "comparison.csv")
        assert header[0] == "iteration" and len(header) == 5

    def test_subnormal_radius_grows_until_connected(self, tmp_path):
        # 1.1 times a radius of a few subnormal ulps rounds back to it; a
        # child process fails the test at its timeout instead of hanging
        cfg = tmp_path / "tiny_radius.cfg"
        cfg.write_text(SMALL_CFG.replace("radius = 0.5", "radius = 5e-324"))
        code = (
            "import sys\n"
            "from diffusion_lms.cli import main\n"
            "from diffusion_lms.network import build_random_geometric\n"
            "assert build_random_geometric(20, 5e-324, 42).is_connected()\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(diffusion_lms.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        args = [sys.executable, "-c", code, "run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert subprocess.run(args, env=env, capture_output=True, timeout=60).returncode == EXIT_OK
        assert (tmp_path / "out" / "manifest.json").is_file()

    def test_manifest_lists_outputs_and_echoes_config(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact"] == "diffusion-lms"
        assert manifest["base_seed"] == 1234
        assert "comparison.csv" in manifest["outputs"]
        assert manifest["config"] == (out / "resolved_config.cfg").read_text()

    def test_reruns_are_byte_identical(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_config), "--out", str(out1)])
        main(["run", "--config", str(small_config), "--out", str(out2)])
        for p in out1.iterdir():
            assert (out2 / p.name).read_bytes() == p.read_bytes()

    def test_seed_override_changes_results(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_config), "--out", str(out1)])
        main(["run", "--config", str(small_config), "--out", str(out2), "--seed", "9"])
        a = (out1 / "trace_atc_dlms.csv").read_bytes()
        b = (out2 / "trace_atc_dlms.csv").read_bytes()
        assert a != b
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["base_seed"] == 9

    def test_invalid_config_exits_2_without_partial_outputs(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nmu = -3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_config_exits_4(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)])
        assert code == EXIT_IO
        assert not out.exists()

    def test_failed_write_leaves_no_manifest_and_no_staging(self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "out"
        calls = fail_second_payload_write(monkeypatch)
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == EXIT_IO
        assert len(calls) == 2
        assert not (out / "manifest.json").exists()
        assert {p.name for p in tmp_path.iterdir()} == {"small.cfg"}

    def test_rerun_failing_while_staging_keeps_the_old_outputs(self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        fail_second_payload_write(monkeypatch)
        argv = ["run", "--config", str(small_config), "--out", str(out), "--seed", "9"]
        assert main(argv) == EXIT_IO
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert {p.name for p in tmp_path.iterdir()} == {"small.cfg", "out"}

    def test_rerun_failing_while_moving_in_leaves_no_manifest(self, small_config, tmp_path, monkeypatch):
        from diffusion_lms import cli

        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == EXIT_OK
        real_replace = os.replace
        moved = []

        def fail_on_second_move(src, dst):
            moved.append(Path(dst).name)
            if len(moved) == 2:
                raise OSError("device busy")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", fail_on_second_move)
        argv = ["run", "--config", str(small_config), "--out", str(out), "--seed", "9"]
        assert main(argv) == EXIT_IO
        assert "manifest.json" not in moved
        assert not (out / "manifest.json").exists()
        assert {p.name for p in tmp_path.iterdir()} == {"small.cfg", "out"}

    def test_staging_left_by_a_killed_run_of_the_same_pid_is_cleared(self, small_config, tmp_path):
        out = tmp_path / "out"
        stale = tmp_path / f".out.{os.getpid()}.partial"
        stale.mkdir()
        (stale / "trace_atc_dlms.csv").write_text("half written")
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json"])
        assert (out / "trace_atc_dlms.csv").read_text().startswith("iteration,msd_db\n")
        assert {p.name for p in tmp_path.iterdir()} == {"small.cfg", "out"}

    def test_rerun_replaces_the_outputs(self, small_config, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == EXIT_OK
        assert main(["run", "--config", str(small_config), "--out", str(out), "--seed", "9"]) == EXIT_OK
        assert main(["run", "--config", str(small_config), "--out", str(fresh), "--seed", "9"]) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {p.name: p.read_bytes() for p in fresh.iterdir()}
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json"])

    def test_wholly_divergent_run_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(
            "[network]\nnodes = 6\nradius = 0.5\n\n"
            "[run]\ntrials = 2\nhorizon = 200\nsteady_window = 20\nmu = 2.6\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGENCE
        names = {p.name for p in out.iterdir()}
        assert names == {"resolved_config.cfg", "manifest.json"}
        # the library reports round 25 and node 0, counted from 0; the CLI counts
        # both from 1, like the trace CSVs' iterations and the --node option
        err = capsys.readouterr().err
        assert "error: atc_dlms: all 2 trials diverged (first at iteration 26, node 1)" in err

    def test_overflowing_leak_exits_3_without_a_warning(self, tmp_path, capsys):
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(
            "[network]\nnodes = 6\nradius = 0.6\n\n"
            "[run]\ntrials = 2\nhorizon = 100\nsteady_window = 50\nmu = 1e300\ngamma = 1e300\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        for label in ALGORITHM_LABELS:
            assert f"error: {label}: all 2 trials diverged (first at iteration 1, node 1)" in err

    def test_one_round_overflow_on_tiles_reports_as_one_tile(self, tmp_path, monkeypatch, capsys):
        # the kernel cuts this 60-node ring into 3 tiles. Node 41's regressors
        # dwarf all others', and the leak 1 - mu * gamma = -1e306 overflows the
        # intermediates around it in round 2, when those of the first tile are
        # still far below the divergence threshold: only the overflow's spread
        # to every node makes node 1 the first to diverge
        variances = ["1e-300"] * 60
        variances[40] = "1e6"
        cfg = tmp_path / "tiled.cfg"
        cfg.write_text(
            "[network]\nnodes = 60\ntopology = ring_lattice\nhalf_width = 2\n\n"
            f"[model]\nregressor_variances = {', '.join(variances)}\n\n"
            "[run]\nalgorithms = atc_leaky_dlms, cta_leaky_dlms\nmu = 1.0\ngamma = 1e306\n"
            "trials = 2\nhorizon = 20\nsteady_window = 10\n"
        )
        assert build_setup(parse_config(cfg)).weights.halo_tiles is not None
        runs = []
        for name in ("tiled", "one_tile"):
            if name == "one_tile":
                monkeypatch.setattr(CombinationWeights, "halo_tiles", property(lambda self: None))
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGENCE
            runs.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr().err))
        assert runs[0] == runs[1]
        # the overflow reaches every node's estimate in the round it happens
        assert "error: atc_leaky_dlms: all 2 trials diverged (first at iteration 2, node 1)" in runs[0][1]

    def test_one_wholly_divergent_label_exits_3_and_keeps_the_others(self, tmp_path, capsys):
        # 1 - mu * gamma = -1.4 with the default mu 0.08: only the leak diverges
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(
            "[network]\nnodes = 6\nradius = 0.5\n\n"
            "[run]\nalgorithms = atc_dlms, atc_leaky_dlms\ngamma = 30\n"
            "trials = 2\nhorizon = 200\nsteady_window = 20\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGENCE
        names = {p.name for p in out.iterdir()}
        assert names == {"resolved_config.cfg", "manifest.json", "trace_atc_dlms.csv", "comparison.csv"}
        header, rows = read_csv(out / "comparison.csv")
        assert header == ["iteration", "atc_dlms"] and len(rows) == 200
        assert (out / "comparison.csv").read_text().split("\n", 1)[1] == (
            (out / "trace_atc_dlms.csv").read_text().split("\n", 1)[1]
        )
        err = capsys.readouterr().err
        assert err == "error: atc_leaky_dlms: all 2 trials diverged (first at iteration 49, node 1)\n"

    def test_partially_divergent_run_notes_each_label_and_exits_0(self, tmp_path, capsys):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text(
            "[network]\nnodes = 10\nradius = 0.5\n\n"
            "[run]\ntrials = 6\nhorizon = 300\nsteady_window = 50\nmu = 1.6\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        labels = ("atc_dlms", "cta_dlms", "atc_leaky_dlms", "cta_leaky_dlms")
        assert names == {"resolved_config.cfg", "manifest.json", "comparison.csv"} | {
            f"trace_{label}.csv" for label in labels
        }
        err = capsys.readouterr().err
        assert err == "".join(
            f"note: {label}: {k}/6 trials diverged and were excluded\n" for label, k in zip(labels, (3, 3, 2, 3))
        )

    def test_noisy_stable_run_exits_0_with_finite_curves(self, tmp_path, capsys):
        # the default network at mu 0.08, far below its mean-square bound:
        # at -160 dB the estimates pass 1e6 from the first round, but the
        # divergence bound follows the noise, so no trial is dropped
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text("[model]\nsnr_db = -160\n\n[run]\ntrials = 4\nhorizon = 400\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out / "comparison.csv")
        assert header == ["iteration", *ALGORITHM_LABELS] and len(rows) == 400
        curves = np.array(rows, dtype=float)[:, 1:]
        # finite, and at the noise floor, about 160 dB above the clean run's
        assert np.isfinite(curves).all() and (curves[-1] > 100.0).all()

    def test_malformed_sample_file_exits_5_without_outputs(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[network]\nnodes = 6\nradius = 0.5\n\n[source]\nkind = delay_line\nsample_path = {samples}\n")
        out = tmp_path / "out"
        for content, problem in (
            ("0.25\nabc\n", ":2: not a decimal sample: 'abc'"),
            ("0.25\ninf\n", ":2: not a decimal sample: 'inf'"),
            ("", ": 0 samples, fewer than taps = 5"),
            ("0.25\n-0.5\n", ": 2 samples, fewer than taps = 5"),
        ):
            samples.write_text(content)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
            assert capsys.readouterr().err == f"data error: {samples}{problem}\n"
            assert not out.exists()

    def test_sample_file_led_by_a_byte_order_mark_reads_as_without_it(self, tmp_path):
        text = "".join(f"{v:.6f}\n" for v in synthetic_speech(80, 0))
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            samples = tmp_path / f"{name}.txt"
            samples.write_bytes(data)
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"[network]\nnodes = 6\nradius = 0.5\n[source]\nkind = delay_line\nsample_path = {samples}\n")
            assert main(["denoise", "--config", str(cfg), "--out", str(tmp_path / name), "--node", "1"]) == EXIT_OK
        bom, plain = ((tmp_path / name / "denoise_node1.csv").read_bytes() for name in ("bom", "plain"))
        assert bom == plain

    # a WAV needs a rate to be written back: without one, no command may run a round
    @pytest.mark.parametrize("command", ["run", "sweep", "denoise"])
    def test_wav_without_sample_rate_exits_5_before_any_round(self, tmp_path, monkeypatch, capsys, command):
        from diffusion_lms import experiment

        def no_round(*args, **kwargs):
            raise AssertionError("a filter round ran before the sample rate was checked")

        monkeypatch.setattr(experiment, "run_filter", no_round)
        blob = bytearray(wav_bytes(0.8 * synthetic_speech(300, 3), 8000))
        blob[24:32] = bytes(8)  # the header's sample rate and byte rate
        samples = tmp_path / "norate.wav"
        samples.write_bytes(bytes(blob))
        cfg = tmp_path / "norate.cfg"
        cfg.write_text(
            f"[network]\nnodes = 4\nradius = 0.6\n\n[source]\nkind = delay_line\nsample_path = {samples}\n\n"
            "[run]\ntrials = 2\nsteady_window = 50\n"
        )
        out = tmp_path / "out"
        argv = COMMAND_ARGS[command] + ["--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {samples}: WAV sample rate must be positive, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content,code,message",
        [
            ("6\n1 x\n", EXIT_DATA, "data error: {path}: malformed edge line '1 x'"),
            ("six\n1 2\n", EXIT_DATA, "data error: {path}: first line must be the node count"),
            ("0\n1 2\n", EXIT_DATA, "data error: {path}: node count must be >= 1, got 0"),
            ("5\n1 2\n", EXIT_CONFIG, "config error: nodes: 6, but edge list {path} has 5 nodes"),
            # no node table of this size can be allocated: the header is checked first
            (f"{10**18}\n1 2\n", EXIT_CONFIG, f"config error: nodes: 6, but edge list {{path}} has {10**18} nodes"),
        ],
        ids=["malformed", "header_not_an_integer", "header_below_one", "node_count", "huge_header"],
    )
    def test_bad_edge_list_exits_before_any_stream(self, tmp_path, monkeypatch, capsys, content, code, message):
        from diffusion_lms import experiment

        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was built before the edge list was checked")

        monkeypatch.setattr(experiment, "make_stream", no_stream)
        edges = tmp_path / "net.txt"
        edges.write_text(content)
        cfg = tmp_path / "net.cfg"
        cfg.write_text(f"[network]\nnodes = 6\ntopology = edge_list\nedge_list_path = {edges}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err == message.format(path=edges) + "\n"
        assert not out.exists()

    # the outputs are staged beside the output directory, which "/" has no name to do
    @pytest.mark.parametrize("command", ["run", "sweep", "denoise"])
    @pytest.mark.parametrize("out", ["/", "."])
    def test_out_without_a_name_exits_2_before_any_stream(self, small_config, monkeypatch, capsys, command, out):
        from diffusion_lms import experiment

        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was built before --out was checked")

        monkeypatch.setattr(experiment, "make_stream", no_stream)
        monkeypatch.chdir("/")
        argv = COMMAND_ARGS[command] + ["--config", str(small_config), "--out", out]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: --out: {out!r} resolves to /, a directory with no name\n"
        assert not [name for name in os.listdir("/") if name.endswith(".partial")]

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    @pytest.mark.parametrize("under", [False, True])
    def test_out_at_or_under_a_file_exits_4_before_any_stream(
        self, small_config, tmp_path, monkeypatch, capsys, command, under
    ):
        from diffusion_lms import experiment

        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was built before --out was checked")

        monkeypatch.setattr(experiment, "make_stream", no_stream)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        argv = COMMAND_ARGS[command] + ["--config", str(small_config), "--out", str(out)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err == f"i/o error: --out: {blocker} is not a directory\n"
        assert blocker.read_text() == "not a directory\n"
        assert {p.name for p in tmp_path.iterdir()} == {"small.cfg", "taken"}

    def test_non_ascii_path_is_echoed_as_utf8(self, tmp_path):
        samples = tmp_path / "caf\u00e9.txt"
        samples.write_text("\n".join(["0.25", "-0.5"] * 20) + "\n")
        cfg = tmp_path / "utf8.cfg"
        cfg.write_text(
            f"[network]\nnodes = 4\nradius = 0.6\n\n[source]\nkind = delay_line\nsample_path = {samples}\n\n"
            "[run]\ntrials = 1\nsteady_window = 10\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert parse_config(out / "resolved_config.cfg") == parse_config(cfg)

    def test_unexpected_error_is_reported_as_a_bug(self, small_config, tmp_path, monkeypatch, capsys):
        from diffusion_lms import cli

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "run_ensemble", broken)
        # no handler claims it: the traceback reaches the user and Python exits 1
        with pytest.raises(ValueError, match="^boom$"):
            main(["run", "--config", str(small_config), "--out", str(tmp_path / "out")])
        assert "config error" not in capsys.readouterr().err

    def test_run_too_large_to_allocate_exits_2_without_outputs(self, small_config, tmp_path, monkeypatch, capsys):
        from diffusion_lms import cli

        message = "Unable to allocate 29.1 TiB for an array with shape (4, 1000000000000) and data type float64"

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        # what numpy raises for horizon = 1000000000000, without the allocation
        monkeypatch.setattr(cli, "run_ensemble", too_large)
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestSnrRange:
    @pytest.mark.parametrize(
        "command,source",
        [("run", "white_gaussian"), ("run", "delay_line"), ("sweep", "white_gaussian"), ("denoise", "delay_line")],
    )
    def test_noise_variance_overflow_exits_2_before_any_round(self, tmp_path, monkeypatch, capsys, command, source):
        # the config rules pass -3230 dB: 10**(-323) is a nonzero float, but
        # any signal power above about 2e-15 divided by it is not
        from diffusion_lms import experiment

        def no_round(*args, **kwargs):
            raise AssertionError("a filter round ran before the noise variance was checked")

        monkeypatch.setattr(experiment, "run_filter", no_round)
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(
            "[network]\nnodes = 4\ntopology = ring_lattice\nhalf_width = 1\n\n[model]\nsnr_db = -3230\n\n"
            f"[source]\nkind = {source}\n\n[run]\ntrials = 2\nhorizon = 60\nsteady_window = 20\n"
        )
        out = tmp_path / "out"
        argv = COMMAND_ARGS[command] + ["--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: snr_db: -3230.0 dB")
        assert not out.exists()


class TestScaleExponentRange:
    # at -3000 the regressor scale sqrt(variance)**scale_exponent overflows;
    # at -2000 the scale (1.07e301) is a float, but the response power is not
    @pytest.mark.parametrize(
        "model,exponent",
        [("", -3000.0), ("regressor_variances = 0.5, 0.5, 0.5, 0.5, 0.5, 0.5\n", -2000.0)],
        ids=["scale_overflows", "power_overflows"],
    )
    @pytest.mark.parametrize("command", ["run", "sweep", "denoise"])
    def test_input_overflow_exits_2_before_any_round(self, tmp_path, monkeypatch, capsys, command, model, exponent):
        from diffusion_lms import experiment

        def no_round(*args, **kwargs):
            raise AssertionError("a filter round ran before the input scale was checked")

        monkeypatch.setattr(experiment, "run_filter", no_round)
        cfg = tmp_path / "scaled.cfg"
        cfg.write_text(
            f"[network]\nnodes = 6\ntopology = ring_lattice\nhalf_width = 1\n\n[model]\n{model}\n"
            f"[source]\nkind = delay_line\nscale_exponent = {exponent}\n\n"
            "[run]\ntrials = 2\nhorizon = 60\nsteady_window = 20\n"
        )
        out = tmp_path / "out"
        argv = COMMAND_ARGS[command] + ["--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: scale_exponent: {exponent} ")
        assert not out.exists()

    # the samples' own squares overflow, so no scale is to blame
    @pytest.mark.parametrize("command", ["run", "sweep", "denoise"])
    def test_sample_file_overflow_exits_5_naming_the_file(self, tmp_path, monkeypatch, capsys, command):
        from diffusion_lms import experiment

        def no_round(*args, **kwargs):
            raise AssertionError("a filter round ran before the samples' power was checked")

        monkeypatch.setattr(experiment, "run_filter", no_round)
        samples = tmp_path / "loud.txt"
        samples.write_text("1e200\n-1e200\n" * 50)
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(
            "[network]\nnodes = 6\ntopology = ring_lattice\nhalf_width = 1\n\n"
            f"[source]\nkind = delay_line\nsample_path = {samples}\n\n"
            "[run]\ntrials = 2\nsteady_window = 20\n"
        )
        out = tmp_path / "out"
        argv = COMMAND_ARGS[command] + ["--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {samples}: the samples' mean square ")
        assert not out.exists()


class TestResponsePowerRange:
    # an unknown system whose squared norm is beyond the float range could
    # only give +inf dB curves; a response power variances * ||w_o||^2
    # beyond it is the variances' fault, the norm being a float
    @pytest.mark.parametrize(
        "source,model,key",
        [
            ("white_gaussian", "coefficients = 1e200, 1e200\n", "coefficients"),
            ("delay_line", "coefficients = 1e200, 1e200\n", "coefficients"),
            ("white_gaussian", "coefficients = 1e160, 1e160\nnoise_variance = 1\n", "coefficients"),
            (
                "white_gaussian",
                "coefficients = 1e5, 1e5\nregressor_variances = 1e300, 1, 1, 1, 1, 1\n",
                "regressor_variances",
            ),
            # the default exponent: the scale is the variances themselves
            (
                "delay_line",
                "coefficients = 1e5, 1e5\nregressor_variances = 1e300, 1, 1, 1, 1, 1\n",
                "regressor_variances",
            ),
        ],
        ids=["gaussian_norm", "delay_line_norm", "fixed_noise_norm", "gaussian_power", "delay_line_power"],
    )
    def test_overflow_exits_2_naming_the_key_before_any_round(self, tmp_path, monkeypatch, capsys, source, model, key):
        from diffusion_lms import experiment

        def no_round(*args, **kwargs):
            raise AssertionError("a filter round ran before the response power was checked")

        monkeypatch.setattr(experiment, "run_filter", no_round)
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(
            f"[network]\nnodes = 6\ntopology = ring_lattice\nhalf_width = 1\n\n[model]\n{model}\n"
            f"[source]\nkind = {source}\n\n[run]\ntrials = 2\nhorizon = 60\nsteady_window = 20\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()


class TestStdout:
    @pytest.mark.parametrize("command", ["run", "sweep", "denoise"])
    def test_prints_the_written_files_then_the_manifest(self, tmp_path, capsys, command):
        samples = tmp_path / "speech.wav"
        samples.write_bytes(wav_bytes(0.8 * synthetic_speech(300, 3), 8000))
        cfg = tmp_path / "speech.cfg"
        cfg.write_text(
            f"[network]\nnodes = 4\nradius = 0.6\n\n[source]\nkind = delay_line\nsample_path = {samples}\n\n"
            "[run]\ntrials = 2\nsteady_window = 50\n"
        )
        out = tmp_path / "out"
        argv = {
            "run": ["run"],
            "sweep": ["sweep", "--param", "gamma", "--grid", "0,0.002"],
            "denoise": ["denoise", "--node", "2"],
        }[command] + ["--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_OK
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert written == json.loads((out / "manifest.json").read_text())["outputs"]
        assert len(written) == {"run": 6, "sweep": 5, "denoise": 5}[command]
        assert capsys.readouterr().out == "".join(f"{name}\n" for name in written + ["manifest.json"])


class TestSweep:
    def test_window_longer_than_sample_file_fails_before_any_stream(self, tmp_path, monkeypatch, capsys):
        from diffusion_lms import experiment

        samples = tmp_path / "short.txt"
        samples.write_text("\n".join(["0.25", "-0.5"] * 4) + "\n")
        cfg = tmp_path / "short.cfg"
        cfg.write_text(
            f"[network]\nnodes = 6\nradius = 0.5\n\n[source]\nkind = delay_line\n"
            f"sample_path = {samples}\n\n[run]\ntrials = 2\n"
        )

        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was drawn before the window was checked")

        monkeypatch.setattr(experiment, "make_stream", no_stream)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--param", "mu", "--grid", "0.05,0.1"]
        assert main(argv) == EXIT_CONFIG
        assert "steady_window 200 exceeds trace length 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["mu", "gamma"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_grid_fails_before_any_ensemble(self, small_config, tmp_path, monkeypatch, capsys, param, bad):
        from diffusion_lms import experiment

        def no_ensemble(*args, **kwargs):
            raise AssertionError("an ensemble ran before the grid was checked")

        monkeypatch.setattr(experiment, "run_ensemble", no_ensemble)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(small_config), "--out", str(out), "--param", param, "--grid", f"0.08,{bad}"]
        assert main(argv) == EXIT_CONFIG
        assert f"{param} grid values must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_mu_sweep_files_and_tokens(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--config",
                str(small_config),
                "--out",
                str(out),
                "--param",
                "mu",
                "--grid",
                "0.05,6.0",
            ]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out / "sweep_mu_atc_dlms.csv")
        assert header == ["param", "steady_state_db"]
        assert len(rows) == 2
        assert np.isfinite(float(rows[0][1]))
        assert rows[1][1] == "divergent"

    def test_gamma_sweep_with_zero_matches_plain(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--config",
                str(small_config),
                "--out",
                str(out),
                "--param",
                "gamma",
                "--grid",
                "0,0.002",
            ]
        )
        assert code == EXIT_OK
        _, leaky_rows = read_csv(out / "sweep_gamma_atc_leaky_dlms.csv")
        _, plain_rows = read_csv(out / "sweep_gamma_atc_dlms.csv")
        assert abs(float(leaky_rows[0][1]) - float(plain_rows[0][1])) < 1e-12

    def test_empty_grid_is_usage_error(self, small_config, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(small_config), "--out", str(tmp_path / "o"),
             "--param", "mu", "--grid", " , "]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: sweep grid must be nonempty\n"

    def test_bad_grid_value_is_usage_error(self, small_config, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(small_config), "--out", str(tmp_path / "o"),
             "--param", "mu", "--grid", "0.1,huge"]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --grid: not a numeric list: '0.1,huge'\n"


class TestDenoise:
    def speech_config(self, tmp_path, extra=""):
        path = tmp_path / "speech.cfg"
        path.write_text(
            """
[network]
nodes = 6
radius = 0.5

[source]
kind = delay_line
sample_path = synthetic

[run]
algorithms = atc_leaky_dlms
horizon = 400
steady_window = 50
trials = 1
"""
            + extra
        )
        return path

    def test_writes_csv(self, tmp_path):
        cfg = self.speech_config(tmp_path)
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "3"]) == EXIT_OK
        header, rows = read_csv(out / "denoise_node3.csv")
        assert header == ["t", "noisy", "filtered", "residual"]
        assert len(rows) == 400
        assert rows[0][0] == "0"
        for row in rows[:20]:
            noisy, filtered, residual = map(float, row[1:])
            assert np.isclose(noisy - filtered, residual)

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        cfg = self.speech_config(tmp_path)
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "3"]) == EXIT_OK
        result = denoise_speech(parse_config(cfg), 2)
        want = literal_csv("t,noisy,filtered,residual", 0, result.noisy, result.filtered, result.residual)
        assert (out / "denoise_node3.csv").read_bytes() == want.encode("ascii")

    def test_rerun_into_a_run_directory_removes_the_stale_outputs(self, tmp_path):
        cfg = self.speech_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "comparison.csv").exists()
        (out / "notes.txt").write_text("kept\n")
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "2"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["denoise_node2.csv", "resolved_config.cfg"]
        assert sorted(p.name for p in out.iterdir()) == ["denoise_node2.csv", "manifest.json", "notes.txt", "resolved_config.cfg"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_files_no_manifest_lists_are_kept(self, tmp_path):
        cfg = self.speech_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "comparison.csv").write_text("user data\n")
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "2"]) == EXIT_OK
        assert (out / "comparison.csv").read_text() == "user data\n"
        # a manifest of some other program is not trusted either, nor one
        # whose outputs are not a list, though they iterate over the name
        for manifest in (
            {"artifact": "other", "outputs": ["comparison.csv"]},
            {"artifact": "diffusion-lms", "outputs": {"comparison.csv": 1}},
        ):
            (out / "manifest.json").write_text(json.dumps(manifest))
            assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "3"]) == EXIT_OK
            assert (out / "comparison.csv").read_text() == "user data\n"
            assert (out / "denoise_node2.csv").exists()

    def test_white_gaussian_config_exits_2(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(small_config), "--out", str(out), "--node", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: source: denoising requires a delay_line source, got white_gaussian\n"
        assert not out.exists()

    def test_node_out_of_range_exits_2(self, tmp_path):
        cfg = self.speech_config(tmp_path)
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "0"]) == EXIT_CONFIG
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "7"]) == EXIT_CONFIG

    def test_zero_input_yields_zero_filtered_column(self, tmp_path):
        silence = tmp_path / "silence.txt"
        silence.write_text("\n".join(["0.0"] * 120) + "\n")
        cfg = self.speech_config(tmp_path, extra=f"\n[source]\nsample_path = {silence}\n")
        # configparser forbids duplicate sections; write a clean config instead
        cfg = tmp_path / "silence.cfg"
        cfg.write_text(
            f"[network]\nnodes = 4\nradius = 0.6\n\n[source]\nkind = delay_line\n"
            f"sample_path = {silence}\n\n[run]\nalgorithms = atc_leaky_dlms\nsteady_window = 10\n"
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "2"]) == EXIT_OK
        _, rows = read_csv(out / "denoise_node2.csv")
        assert all(float(row[2]) == 0.0 for row in rows)

    def test_default_network_node_14(self, tmp_path):
        # the pinned-variance node on the default 20-node network
        cfg = tmp_path / "n20.cfg"
        cfg.write_text(
            "[source]\nkind = delay_line\nsample_path = synthetic\n\n"
            "[run]\nalgorithms = atc_leaky_dlms\nhorizon = 300\nsteady_window = 50\n"
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "14"]) == EXIT_OK
        _, rows = read_csv(out / "denoise_node14.csv")
        assert len(rows) == 300
        assert all(np.isfinite(float(row[2])) for row in rows)

    def test_wav_input_produces_wav_outputs(self, tmp_path):
        wav_in = tmp_path / "speech.wav"
        wav_in.write_bytes(wav_bytes(0.8 * synthetic_speech(500, 3), 8000))
        cfg = tmp_path / "wav.cfg"
        cfg.write_text(
            f"[network]\nnodes = 4\nradius = 0.6\n\n[source]\nkind = delay_line\n"
            f"sample_path = {wav_in}\n\n[run]\nalgorithms = atc_leaky_dlms\nsteady_window = 50\n"
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "1"]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        for stem in ("noisy", "filtered", "residual"):
            assert f"denoise_node1_{stem}.wav" in names
        with wave.open(str(out / "denoise_node1_filtered.wav"), "rb") as wf:
            assert wf.getframerate() == 8000
            assert wf.getnframes() == 500
        manifest = json.loads((out / "manifest.json").read_text())
        assert "denoise_node1_filtered.wav" in manifest["outputs"]

    def test_diverged_wav_denoise_exits_3(self, tmp_path, capsys):
        # the non-finite filtered signal encodes without a RuntimeWarning,
        # which the suite would raise as an error
        wav_in = tmp_path / "speech.wav"
        wav_in.write_bytes(wav_bytes(0.8 * synthetic_speech(500, 3), 8000))
        cfg = tmp_path / "wav.cfg"
        cfg.write_text(
            f"[network]\ntopology = ring_lattice\nnodes = 4\nhalf_width = 1\n\n[source]\nkind = delay_line\n"
            f"sample_path = {wav_in}\n\n[run]\nalgorithms = atc_leaky_dlms\nmu = 5000\nsteady_window = 50\n"
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", str(cfg), "--out", str(out), "--node", "1"]) == EXIT_DIVERGENCE
        assert "error: filter output is not finite (divergent run)" in capsys.readouterr().err
        with wave.open(str(out / "denoise_node1_filtered.wav"), "rb") as wf:
            assert wf.getnframes() == 500


class TestValidate:
    def test_valid_config_echoes_resolved_form(self, small_config, capsys):
        assert main(["validate", "--config", str(small_config)]) == EXIT_OK
        echoed = capsys.readouterr().out
        assert "mu = 0.08" in echoed
        assert "nodes = 6" in echoed

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\ntrials = none\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_config_led_by_a_byte_order_mark_reads_as_without_it(self, small_config, tmp_path, capsys):
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + small_config.read_bytes())
        assert main(["validate", "--config", str(small_config)]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(["validate", "--config", str(bom)]) == EXIT_OK
        assert capsys.readouterr().out == plain
