import hashlib
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack.association import Tracker
from letrack.cli import main
from letrack.io import (
    FrameDetections, SequenceDetections, load_tracks, save_bank, save_detections, save_tracks,
)
from letrack.maskops import rle_decode
from letrack.synth import SynthConfig, generate

from helpers import burst_doc, det, meta


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small synthesized dataset shared by the tests in this module."""
    d = tmp_path_factory.mktemp("synthdata")
    cfg = d / "synth.cfg"
    cfg.write_text("seed = 3\nnum_frames = 8\nnum_tracks = 4\n")
    rc = main(
        [
            "synth",
            "--config", str(cfg),
            "--out-gt", str(d / "gt.json"),
            "--out-dets", str(d / "dets.json"),
            "--out-bank", str(d / "bank.json"),
        ]
    )
    assert rc == 0
    return d


def test_synth_writes_three_files(synth_dir):
    for name in ("gt.json", "dets.json", "bank.json"):
        data = (synth_dir / name).read_bytes()
        assert data.endswith(b"\n")
        json.loads(data)


def test_synth_is_deterministic(synth_dir, tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("seed = 3\nnum_frames = 8\nnum_tracks = 4\n")
    rc = main(
        [
            "synth",
            "--config", str(cfg),
            "--out-gt", str(tmp_path / "gt.json"),
            "--out-dets", str(tmp_path / "dets.json"),
            "--out-bank", str(tmp_path / "bank.json"),
        ]
    )
    assert rc == 0
    for name in ("gt.json", "dets.json", "bank.json"):
        assert (tmp_path / name).read_bytes() == (synth_dir / name).read_bytes()


# sha256 of the three `letrack synth` outputs for two configs.  "noisy" sets
# every noise knob on the default 64x96 frame.  "tiny" jitters boxes by
# sigma 20 on an 8x8 frame, so clamped detections come out empty, at full
# height, touching the bottom-right corner and covering the whole frame.
# Any change to the generator, its random stream or its masks must keep
# these bytes.
PINNED_SYNTH = {
    "noisy": (
        "seed = 5\nnum_frames = 10\nnum_tracks = 6\np_drop = 0.2\np_fp = 0.6\n"
        "box_jitter_sigma = 1.5\napp_noise_sigma = 0.3\ncls_noise_sigma = 0.1\n",
        {
            "gt.json": "df61a7bba0ff11e9622f7167a7cf75d6283fe36918461fbc30d9a3fd8238b3dd",
            "dets.json": "76cf00750cf43dcaa5d357de473ad52c930b34388e8ecf55ff08278ec6cd7bf2",
            "bank.json": "822e79810b8ca601009b4f651ff502249ea4730a3efe2f923f2d42897b058624",
        },
    ),
    "tiny": (
        "seed = 11\nnum_frames = 8\nnum_tracks = 3\nframe_height = 8\nframe_width = 8\n"
        "p_fp = 1.0\nbox_jitter_sigma = 20\n",
        {
            "gt.json": "33453ddd107ae3eb896d56d814b140f5de7ac3c0eeda9573cb390b999fa928e7",
            "dets.json": "8df5f10d3b8a0f01c3a6b76833f64e7644000a56072d7be4aca615a14d2f8473",
            "bank.json": "7c4e08770f3961b519856c41367bb27507118d4f7e77bc176dcc09e07b605d21",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SYNTH))
def test_synth_outputs_match_pinned_digests(name, tmp_path):
    text, digests = PINNED_SYNTH[name]
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(text)
    rc = main(
        [
            "synth",
            "--config", str(cfg),
            "--out-gt", str(tmp_path / "gt.json"),
            "--out-dets", str(tmp_path / "dets.json"),
            "--out-bank", str(tmp_path / "bank.json"),
        ]
    )
    assert rc == 0
    for fname, digest in digests.items():
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


def test_tiny_synth_config_reaches_the_mask_edge_cases():
    text, _ = PINNED_SYNTH["tiny"]
    cfg = SynthConfig.from_mapping(dict(line.split(" = ") for line in text.splitlines()))
    res = generate(cfg)
    h, w = cfg.frame_height, cfg.frame_width
    masks = [d.mask for f in res.detections[0].frames for d in f.detections]
    grids = [rle_decode(m) for m in masks]
    areas = [int(g.sum()) for g in grids]
    assert 0 in areas
    assert h * w in areas
    # A partial rectangle spanning every row, and one holding the last pixel.
    assert any(0 < a < h * w and g.any(axis=1).all() for g, a in zip(grids, areas))
    assert any(0 < a < h * w and g[-1, -1] for g, a in zip(grids, areas))


def test_track_then_eval_pipeline(synth_dir, tmp_path, capsys):
    out = tmp_path / "pred.json"
    rc = main(
        [
            "track",
            "--detections", str(synth_dir / "dets.json"),
            "--bank", str(synth_dir / "bank.json"),
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "tracked 1 sequence(s), 4 track(s)" in captured.err
    assert captured.out == ""  # progress goes to stderr

    pred, _ = load_tracks(str(out))
    assert len(pred[0].tracks) == 4
    for t in pred[0].tracks:
        assert t.category_id is not None
        assert t.score == 1.0  # unanimous votes on clean data

    rc = main(
        [
            "eval",
            "--gt", str(synth_dir / "gt.json"),
            "--pred", str(out),
            "--bank", str(synth_dir / "bank.json"),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0].split()[:3] == ["HOTAall", "DETAall", "AssAall"]
    row = lines[1].split()
    assert row[0] == "pred"  # basename of the pred file
    assert row[1] == "100.0"
    assert lines[2].startswith("LocA: all=100.0")


def test_track_without_bank_leaves_tracks_unlabeled(synth_dir, tmp_path):
    out = tmp_path / "pred.json"
    rc = main(
        ["track", "--detections", str(synth_dir / "dets.json"), "--out", str(out)]
    )
    assert rc == 0
    pred, _ = load_tracks(str(out))
    assert all(t.category_id is None and t.score is None for t in pred[0].tracks)


def test_track_accepts_config(synth_dir, tmp_path):
    cfg = tmp_path / "tracker.cfg"
    cfg.write_text("match_threshold = 0.7\nmax_lost_frames = 5\n")
    rc = main(
        [
            "track",
            "--detections", str(synth_dir / "dets.json"),
            "--config", str(cfg),
            "--out", str(tmp_path / "pred.json"),
        ]
    )
    assert rc == 0


def test_track_bad_config_key(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "tracker.cfg"
    cfg.write_text("match_treshold = 0.7\n")
    rc = main(
        [
            "track",
            "--detections", str(synth_dir / "dets.json"),
            "--config", str(cfg),
            "--out", str(tmp_path / "pred.json"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "pred.json").exists()


def test_eval_open_mode_and_report(synth_dir, tmp_path, capsys):
    pred = tmp_path / "mytracks.json"
    assert main(
        [
            "track",
            "--detections", str(synth_dir / "dets.json"),
            "--bank", str(synth_dir / "bank.json"),
            "--out", str(pred),
        ]
    ) == 0
    capsys.readouterr()
    report1 = tmp_path / "r1.json"
    rc = main(
        [
            "eval",
            "--gt", str(synth_dir / "gt.json"),
            "--pred", str(pred),
            "--bank", str(synth_dir / "bank.json"),
            "--mode", "open",
            "--alphas", "0.25,0.5,0.75",
            "--report", str(report1),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0].split()[0] == "OWTAall"
    assert captured.out.splitlines()[1].split()[0] == "mytracks"
    assert f"report -> {report1}" in captured.err

    obj = json.loads(report1.read_bytes())
    assert obj["mode"] == "open"
    assert obj["alphas"] == [0.25, 0.5, 0.75]

    report2 = tmp_path / "r2.json"
    rc = main(
        [
            "eval",
            "--gt", str(synth_dir / "gt.json"),
            "--pred", str(pred),
            "--bank", str(synth_dir / "bank.json"),
            "--mode", "open",
            "--alphas", "0.25,0.5,0.75",
            "--report", str(report2),
        ]
    )
    assert rc == 0
    assert report1.read_bytes() == report2.read_bytes()


def test_eval_bad_alphas(synth_dir, tmp_path, capsys):
    rc = main(
        [
            "eval",
            "--gt", str(synth_dir / "gt.json"),
            "--pred", str(synth_dir / "gt.json"),
            "--bank", str(synth_dir / "bank.json"),
            "--alphas", "0.5,zebra",
        ]
    )
    assert rc == 1
    assert "invalid alpha value 'zebra'" in capsys.readouterr().err


def test_eval_rejects_out_of_range_alphas(synth_dir, capsys):
    rc = main(
        [
            "eval",
            "--gt", str(synth_dir / "gt.json"),
            "--pred", str(synth_dir / "gt.json"),
            "--bank", str(synth_dir / "bank.json"),
            "--alphas", "0.5,1.0",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_validate_happy_paths(synth_dir, capsys):
    for kind, name in (("tracks", "gt.json"), ("detections", "dets.json"), ("bank", "bank.json")):
        rc = main(["validate", "--file", str(synth_dir / name), "--kind", kind])
        assert rc == 0
        assert f"is a valid {kind} file" in capsys.readouterr().err


def test_validate_wrong_kind(synth_dir, capsys):
    rc = main(["validate", "--file", str(synth_dir / "bank.json"), "--kind", "tracks"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_validate_strict_vs_lax(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text(
        '{"sequences": [{"name": "a", "height": 4, "width": 4, "num_frames": 1,'
        ' "tracks": [], "extra": 1}]}\n'
    )
    assert main(["validate", "--file", str(p), "--kind", "tracks"]) == 1
    assert "unknown field" in capsys.readouterr().err
    assert main(["validate", "--file", str(p), "--kind", "tracks", "--lax"]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "unknown field" in err


def test_validate_lists_a_huge_frame_count_of_an_empty_sequence(tmp_path, capsys):
    # With no detections the frame indices are an empty array; it must still
    # compare with a num_frames past double range.
    p = tmp_path / "dets.json"
    p.write_text(
        '{"sequences": [{"name": "a", "height": 4, "width": 4, "num_frames": 1' + "0" * 400
        + ', "frames": []}]}\n'
    )
    assert main(["validate", "--file", str(p), "--kind", "detections"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sequences[0]: meta: num_frames must be <= 2**63 - 1, got {10**400}"
    ]


def test_track_steps_only_the_frames_a_sequence_holds(tmp_path, capsys, monkeypatch):
    # A spy, not a timing gate: stepping every index of [0, num_frames)
    # trips it after ten calls instead of running for ever.
    calls = []
    step = Tracker.step

    def spy(self, frame_index, detections):
        calls.append(frame_index)
        if len(calls) > 10:
            raise AssertionError(f"Tracker.step called {len(calls)} times")
        return step(self, frame_index, detections)

    monkeypatch.setattr(Tracker, "step", spy)
    last = 2**63 - 1
    dets, out = str(tmp_path / "dets.json"), tmp_path / "pred.json"
    for frames, n_tracks in (([], 0), ([0, last - 1], 2)):
        calls.clear()
        held = [FrameDetections(f, [det(f, objectness=0.9)]) for f in frames]
        save_detections(dets, [SequenceDetections(meta(n=last), held)])
        assert main(["track", "--detections", dets, "--out", str(out)]) == 0
        assert calls == frames
        assert f"tracked 1 sequence(s), {n_tracks} track(s)" in capsys.readouterr().err
        if not frames:
            assert b'"tracks":[]' in out.read_bytes()
        pred, _ = load_tracks(str(out))
        assert [[o.frame for o in t.observations] for t in pred[0].tracks] == [[f] for f in frames]


def _synth_with_scaled_app_embs(d, scale: float):
    """The default ``letrack synth`` output twice over, as two sequences, with
    every app_emb times scale; returns (detections path, bank path, app_embs)."""
    assert main(["synth", "--out-gt", str(d / "gt.json"), "--out-dets", str(d / "src.json"),
                 "--out-bank", str(d / "bank.json")]) == 0
    doc = json.loads((d / "src.json").read_text())
    doc["sequences"].append(dict(json.loads(json.dumps(doc["sequences"][0])), name="copy"))
    apps = []
    for seq in doc["sequences"]:
        for fr in seq["frames"]:
            for x in fr["detections"]:
                x["app_emb"] = [v * scale for v in x["app_emb"]]
                apps.append(x["app_emb"])
    (d / "dets.json").write_text(json.dumps(doc))
    return str(d / "dets.json"), str(d / "bank.json"), apps


def test_validate_rejects_app_embeddings_whose_dot_products_would_overflow(tmp_path, capsys):
    # At 1e200 every appearance dot product overflows: unchecked, track wrote
    # 100 tracks instead of 5.  One issue per sequence, at validate.
    dets, _, _ = _synth_with_scaled_app_embs(tmp_path, 1e200)
    capsys.readouterr()
    assert main(["validate", "--file", dets, "--kind", "detections"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sequences[{i}]: app_emb: largest norm must be < 2**511, got 6e+200" for i in (0, 1)
    ]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-1000, 1000) | st.integers(505, 512))
def test_app_embeddings_scaled_by_a_power_of_two_fail_validate_or_track_cleanly(k):
    with tempfile.TemporaryDirectory() as d, redirect_stderr(StringIO()) as err:
        dets, bank, apps = _synth_with_scaled_app_embs(Path(d), 2.0**k)
        rejected = max(math.hypot(*a) for a in apps) >= 2**511
        rc = main(["validate", "--file", dets, "--kind", "detections"])
        issues = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        if rejected:
            assert rc == 1
            assert [line.split(": app_emb: largest norm")[0] for line in issues] == [
                f"error: sequences[{i}]" for i in (0, 1)
            ]
        else:
            assert (rc, issues) == (0, [])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["track", "--detections", dets, "--bank", bank, "--out", f"{d}/pred.json"]) == 0


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(
        ["track", "--detections", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")]
    )
    assert rc == 2
    assert "io error:" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    rc = main(["validate", "--file", str(p), "--kind", "tracks"])
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main(["track"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err
    assert main(["no-such-command"]) == 1
    assert main(["eval", "--mode", "sideways"]) == 1


def test_failed_write_cleans_up_earlier_outputs(synth_dir, tmp_path, capsys):
    rc = main(
        [
            "synth",
            "--out-gt", str(tmp_path / "gt.json"),
            "--out-dets", str(tmp_path / "dets.json"),
            "--out-bank", str(tmp_path / "no" / "such" / "dir" / "bank.json"),
        ]
    )
    assert rc == 2
    assert "io error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_failed_write_keeps_existing_outputs(tmp_path, capsys):
    existing = tmp_path / "gt.json"
    existing.write_bytes(b"precious\n")
    rc = main(
        [
            "synth",
            "--out-gt", str(existing),
            "--out-dets", str(tmp_path / "dets.json"),
            "--out-bank", str(tmp_path / "no" / "such" / "bank.json"),
        ]
    )
    assert rc == 2
    assert existing.read_bytes() == b"precious\n"
    assert os.listdir(tmp_path) == ["gt.json"]
    err = capsys.readouterr().err
    assert "bank.json" in err and ".tmp" not in err


def _multi_sequence_run(d, capsys, geometry="mask") -> dict[str, bytes]:
    """synth inputs, track, eval closed and open: every output file and stdout."""
    noise = dict(num_frames=12, p_drop=0.1, p_fp=0.3, app_noise_sigma=0.2, cls_noise_sigma=0.05)
    # Uneven track counts, so the sequences differ in size and content.
    results = [
        generate(SynthConfig(seed=s, num_tracks=n, **noise)) for s, n in ((11, 2), (12, 7), (13, 4))
    ]
    return _pipeline_run(d, capsys, results, geometry)


def _pipeline_run(d, capsys, results, geometry="mask") -> dict[str, bytes]:
    """Save the synth ``results``, track, eval closed and open: every output file and stdout."""
    save_tracks(str(d / "gt.json"), [seq for r in results for seq in r.gt])
    save_detections(str(d / "dets.json"), [seq for r in results for seq in r.detections])
    save_bank(str(d / "bank.json"), results[0].bank)
    capsys.readouterr()
    assert main(["track", "--detections", str(d / "dets.json"), "--bank", str(d / "bank.json"),
                 "--out", str(d / "pred.json")]) == 0
    outputs = {}
    for mode in ("closed", "open"):
        assert main(["eval", "--gt", str(d / "gt.json"), "--pred", str(d / "pred.json"),
                     "--bank", str(d / "bank.json"), "--mode", mode, "--geometry", geometry,
                     "--report", str(d / f"report_{mode}.json")]) == 0
        outputs[f"stdout_{mode}"] = capsys.readouterr().out.encode()
    outputs.update((p.name, p.read_bytes()) for p in sorted(d.iterdir()))
    return outputs


def test_multi_sequence_pipeline_is_byte_deterministic(tmp_path, capsys):
    runs = []
    for k in range(2):
        d = tmp_path / f"run{k}"
        d.mkdir()
        runs.append(_multi_sequence_run(d, capsys))
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == sorted(
        ["bank.json", "dets.json", "gt.json", "pred.json", "report_closed.json",
         "report_open.json", "stdout_closed", "stdout_open"]
    )
    pred, _ = load_tracks(str(tmp_path / "run0" / "pred.json"))
    assert [s.meta.name for s in pred] == ["synth_0011", "synth_0012", "synth_0013"]


# sha256 of the reports of `_multi_sequence_run`: 3 sequences, 4 categories
# with gt, false positives in both modes.  Any change to the evaluator must
# keep these bytes.
PINNED_REPORTS = {
    "report_closed.json": "55032534e6d652f8a6b9061cc200521180280561ae6bf9112690176143c7d4bf",
    "report_open.json": "d6986f613f1d56d070d1c3aaafa32e9d6143459d989a4c0833b87e0c3debfbcc",
}


def test_multi_sequence_reports_match_pinned_digests(tmp_path, capsys):
    outputs = _multi_sequence_run(tmp_path, capsys)
    closed = json.loads(outputs["report_closed.json"])
    assert len(closed["per_category"]) == 4
    assert min(closed["splits"]["all"]["counts"]["fp"]) > 0
    assert min(json.loads(outputs["report_open.json"])["splits"]["all"]["counts"]["fp"]) > 0
    for name, digest in PINNED_REPORTS.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == digest, name


# sha256 of the stdout tables of `_multi_sequence_run` in both geometries,
# and of its reports with `--geometry box`, the path of box-only inputs.
# Synth masks are rectangles, so the two geometries print the same tables.
PINNED_TABLES = {
    "stdout_closed": "f7f5ff36d84dc435f3ac034f9283baaf8650b2f33a9fbda47fee5cf58d7b5c15",
    "stdout_open": "6203b3afc53c4d57983f34dd81984cd0f583a0c0603e18cf4dd1697aec1ba9cc",
}
PINNED_BOX_REPORTS = {
    "report_closed.json": "42c8d93b5864885cca32a598ab24f33e7f35c606d4c36b13250d048b16eac6a8",
    "report_open.json": "807ee999641e587294f954714498055e9b15b5a922d0c160539db5e72f19d0df",
}


@pytest.mark.parametrize("geometry", ["mask", "box"])
def test_multi_sequence_tables_and_box_reports_match_pinned_digests(geometry, tmp_path, capsys):
    outputs = _multi_sequence_run(tmp_path, capsys, geometry)
    assert json.loads(outputs["report_open.json"])["geometry"] == geometry
    pinned = dict(PINNED_TABLES, **(PINNED_BOX_REPORTS if geometry == "box" else {}))
    for name, digest in pinned.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == digest, name


# sha256 of the reports and stdout tables of one crowded sequence: 40 tracks
# in 6 frames of 64x96 with the bench's noise.  Open-mode pass 2 at low alphas
# joins many gt and pred tracks of a frame into one component, so these bytes
# pin the exact solver on components far wider than the scenes above reach.
PINNED_CROWDED = {
    "report_closed.json": "c083f341dd9b82c11f96b9696a7534abc22e2381dd5532261296d43c35649cd4",
    "report_open.json": "bf798e8fe7de6cda9aa85df859c5f442c792ab95369b3eceb114a993988d0882",
    "stdout_closed": "7fdf0769800ac21d836e20c85a94a9ad2c279074ab433536bfcf6c193c528bf5",
    "stdout_open": "c4dfd01126315e73a3dcaf76f8bc793764aec14a640d2c54dd119d84fc563e14",
}


def test_crowded_sequence_outputs_match_pinned_digests(tmp_path, capsys):
    cfg = SynthConfig(
        seed=21, num_frames=6, num_tracks=40, frame_height=64, frame_width=96, p_fp=0.3,
        p_drop=0.1, box_jitter_sigma=0.5, app_noise_sigma=0.2, cls_noise_sigma=0.05,
    )
    outputs = _pipeline_run(tmp_path, capsys, [generate(cfg)])
    for name, digest in PINNED_CROWDED.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# import-burst


def test_import_burst_converts(tmp_path, capsys):
    src = tmp_path / "burst.json"
    src.write_text(json.dumps(burst_doc()))
    out = tmp_path / "gt.json"
    rc = main(["import-burst", "--input", str(src), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "imported 1 sequence(s)" in captured.err

    seqs, warnings = load_tracks(str(out))
    assert warnings == []
    seq = seqs[0]
    assert seq.meta.name == "clip01"
    assert (seq.meta.height, seq.meta.width, seq.meta.num_frames) == (4, 4, 2)
    by_id = {t.track_id: t for t in seq.tracks}
    assert set(by_id) == {1, 2}
    assert by_id[1].category_id == 3
    assert by_id[2].category_id == 7
    assert [ob.frame for ob in by_id[1].observations] == [0, 1]
    assert [ob.frame for ob in by_id[2].observations] == [0]
    ob = by_id[1].observations[0]
    assert ob.box.as_tuple() == (0.0, 0.0, 2.0, 2.0)
    assert ob.mask.counts == (0, 2, 2, 2, 10)
    assert by_id[2].observations[0].box.as_tuple() == (2.0, 2.0, 2.0, 2.0)


def test_import_burst_decodes_compressed_masks(tmp_path, capsys):
    doc = burst_doc()
    frame0 = doc["sequences"][0]["segmentations"][0]
    frame0["2"] = {"rle": ":220", "is_gt": True}  # [10, 2, 2, 2], compressed
    frame0["3"] = {"rle": {"counts": "kYW2", "size": [4, 4]}}  # one run of 73019
    src = tmp_path / "burst.json"
    src.write_text(json.dumps(doc))
    rc = main(["import-burst", "--input", str(src), "--out", str(tmp_path / "gt.json")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "track 3 frame 0: mask is not valid COCO RLE for the frame size, skipped" in captured.err
    seqs, _ = load_tracks(str(tmp_path / "gt.json"))
    assert {t.track_id for t in seqs[0].tracks} == {1, 2}
    assert seqs[0].tracks[1].observations[0].mask.counts == (10, 2, 2, 2)


def test_import_burst_unlabeled_track_warns(tmp_path, capsys):
    doc = burst_doc()
    del doc["sequences"][0]["track_category_ids"]
    src = tmp_path / "burst.json"
    src.write_text(json.dumps(doc))
    rc = main(["import-burst", "--input", str(src), "--out", str(tmp_path / "gt.json")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "has no category id" in captured.err
    seqs, _ = load_tracks(str(tmp_path / "gt.json"))
    assert all(t.category_id is None for t in seqs[0].tracks)


def test_import_burst_nothing_usable(tmp_path, capsys):
    src = tmp_path / "burst.json"
    src.write_text('{"sequences": [{"seq_name": "x", "height": 4, "width": 4}]}')
    rc = main(["import-burst", "--input", str(src), "--out", str(tmp_path / "gt.json")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "no convertible sequences" in captured.err
    assert not (tmp_path / "gt.json").exists()


def test_import_burst_rejects_non_burst_shapes(tmp_path, capsys):
    src = tmp_path / "burst.json"
    src.write_text("[1, 2, 3]")
    rc = main(["import-burst", "--input", str(src), "--out", str(tmp_path / "gt.json")])
    assert rc == 1
    assert "expected an object with a 'sequences' array" in capsys.readouterr().err


def test_import_burst_output_loads_when_a_frame_repeats_a_track_id(tmp_path, capsys):
    doc = burst_doc()
    doc["sequences"][0]["segmentations"][0]["01"] = {"counts": [10, 2, 2, 2]}
    src = tmp_path / "burst.json"
    src.write_text(json.dumps(doc))
    out = str(tmp_path / "gt.json")
    assert main(["import-burst", "--input", str(src), "--out", out]) == 0
    assert "key '01' repeats" in capsys.readouterr().err
    assert main(["validate", "--kind", "tracks", "--file", out]) == 0
