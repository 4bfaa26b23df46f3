import contextlib
import importlib
import io
import re
from pathlib import Path

import letrack

MODULES = ("assignment", "association", "classification", "core", "io", "maskops", "metrics", "rng", "synth")

# The package's hand-written export list, less the sequence runner it dropped.
EXPORTED_BEFORE = (
    "BBox CategoryBank CategoryEntry ConfigError DEFAULT_ALPHAS Detection Diagnostics EvalConfig "
    "FrameAssignment FrameDetections InternalInvariantError MetricsReport RleMask SPLITS SchemaError "
    "SequenceDetections SequenceMeta SequenceTracks SplitMix64 SynthConfig SynthResult TrackObservation "
    "TrackRecord TrackState TrackStatus Tracker TrackerConfig bisoftmax_scores box_iou box_iou_matrix "
    "cem_gate classify_detection dumps_canonical evaluate generate hota_alpha hungarian_max load_bank "
    "load_detections load_tracks mask_iou mask_to_box match_frames parse_flat_config perfect_tracker "
    "rle_decode rle_encode save_bank save_detections save_tracks track_label track_sequence validate_rle "
    "validate_sequence vote vote_fraction __version__"
).split()

README = Path(__file__).resolve().parent.parent / "README.md"


def test_export_list_is_the_modules_lists():
    names = letrack.__all__
    assert len(names) == len(set(names))
    want = ["__version__"]
    for mod_name in MODULES:
        mod = importlib.import_module(f"letrack.{mod_name}")
        want += mod.__all__
        for name in mod.__all__:
            assert getattr(letrack, name) is getattr(mod, name), (mod_name, name)
    assert sorted(names) == sorted(want)
    assert isinstance(letrack.__version__, str)
    assert len(EXPORTED_BEFORE) == 57
    assert set(EXPORTED_BEFORE) <= set(names)
    assert not {"parallel", "cli", "main", "map_ordered", "thread_count"} & set(names)


def test_readme_library_use_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    oracle = [line for line in out.getvalue().splitlines() if line.split()[:1] == ["oracle"]]
    assert len(oracle) == 1
    assert set(oracle[0].split()[1:]) == {"100.0"}
