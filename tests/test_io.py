import copy
import json
import math
import os
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack.cli import main
from letrack.core import BBox, Detection, SequenceMeta, validate_sequence
from letrack.io import (
    ConfigError,
    FrameDetections,
    SchemaError,
    SequenceDetections,
    SequenceTracks,
    TrackObservation,
    TrackRecord,
    bank_from_jsonable,
    bank_to_jsonable,
    detections_from_jsonable,
    detections_to_jsonable,
    dumps_canonical,
    load_bank,
    load_burst,
    load_detections,
    load_flat_config,
    load_tracks,
    parse_flat_config,
    save_bank,
    save_detections,
    save_tracks,
    tracks_from_burst,
    tracks_from_jsonable,
    tracks_to_jsonable,
    write_json_files,
)
from letrack.maskops import RleMask, validate_rle
from letrack.synth import SynthConfig, generate

from helpers import burst_doc, two_split_bank
from oracles import (
    detections_from_jsonable_reference,
    dumps_canonical_reference,
    rle_to_string,
    tracks_from_jsonable_reference,
    validate_rle_reference,
    validate_sequence_reference,
)


# ---------------------------------------------------------------------------
# canonical JSON strings


def test_float_rendering():
    assert dumps_canonical(0.5) == "0.5"
    assert dumps_canonical(5.0) == "5"
    assert dumps_canonical(1.0 / 3.0) == "0.333333333"
    assert dumps_canonical(1e-10) == "1e-10"
    assert dumps_canonical(1234567890.0) == "1.23456789e+09"
    assert dumps_canonical(-0.25) == "-0.25"


def test_int_bool_null():
    assert dumps_canonical(7) == "7"
    assert dumps_canonical(True) == "true"
    assert dumps_canonical(False) == "false"
    assert dumps_canonical(None) == "null"
    assert dumps_canonical(np.int64(3)) == "3"
    assert dumps_canonical(np.float64(0.5)) == "0.5"


def test_keys_sorted_and_compact():
    assert dumps_canonical({"b": 1, "a": [1, 2], "c": {"z": None}}) == (
        '{"a":[1,2],"b":1,"c":{"z":null}}'
    )


def test_unicode_is_escaped():
    out = dumps_canonical({"name": "café"})
    assert out == '{"name":"caf\\u00e9"}'
    assert out.encode("ascii")  # never emits raw non-ascii


def test_ndarray_serializes_as_list():
    assert dumps_canonical(np.array([1.5, 2.0])) == "[1.5,2]"


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        dumps_canonical(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        dumps_canonical({"x": float("inf")})


def test_non_string_keys_rejected():
    with pytest.raises(ValueError, match="keys must be strings"):
        dumps_canonical({1: "x"})


def test_unserializable_type_rejected():
    with pytest.raises(ValueError, match="cannot serialize"):
        dumps_canonical(object())


def test_nine_digit_floats_reparse_to_the_same_string():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-1e6, 1e6, 200):
        s = dumps_canonical(float(x))
        assert dumps_canonical(float(json.loads(s))) == s


# ---------------------------------------------------------------------------
# save -> load -> save fixed points


def sample_tracks():
    meta = SequenceMeta(name="seq_a", height=8, width=8, num_frames=4)
    mask = RleMask(size=(8, 8), counts=(0, 3, 61))
    tracks = [
        TrackRecord(
            track_id=1,
            observations=[
                TrackObservation(frame=0, box=BBox(0.1, 0.2, 3.0, 3.0), mask=mask),
                TrackObservation(frame=2, box=BBox(1.0 / 3.0, 0.0, 3.0, 3.0)),
            ],
            category_id=2,
            score=0.625,
        ),
        TrackRecord(track_id=5, observations=[TrackObservation(frame=1, box=BBox(0, 0, 1, 1))]),
    ]
    return [SequenceTracks(meta=meta, tracks=tracks)]


def sample_detections():
    meta = SequenceMeta(name="seq_a", height=8, width=8, num_frames=2)
    rng = np.random.default_rng(3)
    frames = []
    for idx in range(2):
        dets = [
            Detection(
                frame_index=idx,
                box=BBox(*rng.uniform(0, 4, 4)),
                objectness=float(rng.uniform(0.1, 1.0)),
                app_emb=rng.normal(size=5),
                cls_emb=rng.normal(size=3),
            )
            for _ in range(3)
        ]
        frames.append(FrameDetections(index=idx, detections=dets))
    return [SequenceDetections(meta=meta, frames=frames)]


def test_tracks_roundtrip_fixed_point(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_tracks(p1, sample_tracks())
    loaded, warnings = load_tracks(p1)
    assert warnings == []
    save_tracks(p2, loaded)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert Path(p1).read_bytes().endswith(b"\n")


def test_detections_roundtrip_fixed_point(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_detections(p1, sample_detections())
    loaded, warnings = load_detections(p1)
    assert warnings == []
    save_detections(p2, loaded)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_bank_roundtrip_fixed_point(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_bank(p1, two_split_bank())
    loaded, warnings = load_bank(p1)
    assert warnings == []
    save_bank(p2, loaded)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_failed_write_keeps_existing_files_and_leaves_no_temp(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_bytes(b"precious\n")
    # The lone surrogate fails to encode after the second temp file is open.
    with pytest.raises(UnicodeEncodeError):
        write_json_files([(str(old), "{}"), (str(new), '"\ud800"')])
    assert old.read_bytes() == b"precious\n"
    assert os.listdir(tmp_path) == ["old.json"]


def test_non_regular_target_is_written_in_place(tmp_path):
    sink = tmp_path / "sink"
    sink.symlink_to(os.devnull)
    write_json_files([(str(sink), "{}")])
    assert sink.is_symlink() and os.listdir(tmp_path) == ["sink"]


def test_loaded_values_survive():
    obj = json.loads(dumps_canonical({"sequences": []}))
    seqs, _ = tracks_from_jsonable(obj)
    assert seqs == []
    seqs, _ = load_roundtrip(sample_tracks())
    tr = seqs[0].tracks[0]
    assert tr.track_id == 1
    assert tr.category_id == 2
    assert tr.score == 0.625
    assert tr.observations[0].mask.counts == (0, 3, 61)
    assert tr.observations[1].box.x == pytest.approx(1.0 / 3.0, abs=1e-9)


def load_roundtrip(tracks):
    return tracks_from_jsonable(json.loads(dumps_canonical(tracks_to_jsonable(tracks))))


# ---------------------------------------------------------------------------
# error paths


def test_invalid_json_is_a_schema_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_tracks(str(p))


def test_nan_literal_rejected(tmp_path):
    p = tmp_path / "nan.json"
    p.write_text('{"sequences": [{"name": "a", "score": NaN}]}')
    with pytest.raises(SchemaError, match="non-finite JSON constant"):
        load_tracks(str(p))


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_tracks(str(tmp_path / "nope.json"))


def test_unknown_field_strict_vs_lax():
    doc = {
        "sequences": [
            {
                "name": "a",
                "height": 4,
                "width": 4,
                "num_frames": 1,
                "tracks": [],
                "color": "red",
            }
        ]
    }
    with pytest.raises(SchemaError, match="unknown field") as exc:
        tracks_from_jsonable(doc)
    assert any("color" in i for i in exc.value.issues)
    seqs, warnings = tracks_from_jsonable(doc, lax=True)
    assert len(seqs) == 1
    assert any("color" in w and "unknown field" in w for w in warnings)


def test_all_issues_collected():
    doc = {
        "sequences": [
            {
                "name": "a",
                "height": 4,
                "width": 4,
                "num_frames": 2,
                "tracks": [
                    {
                        "track_id": 1,
                        "observations": [
                            {"frame": 5, "box": [0, 0, 1, 1]},  # out of range
                            {"frame": 6, "box": [0, 0, 1]},  # short box
                        ],
                    },
                    {
                        "track_id": 2,
                        "score": "high",  # not a number
                        "observations": [{"frame": 0, "box": [0, 0, 1, 1]}],
                    },
                ],
            }
        ]
    }
    with pytest.raises(SchemaError) as exc:
        tracks_from_jsonable(doc)
    text = "\n".join(exc.value.issues)
    assert "out of range" in text
    assert "expected 4 numbers" in text
    assert "expected a finite number" in text
    assert len(exc.value.issues) == 3


def test_track_validation_details():
    def seq_with(track):
        return {
            "sequences": [
                {"name": "a", "height": 4, "width": 4, "num_frames": 4, "tracks": [track]}
            ]
        }

    with pytest.raises(SchemaError, match="at least one observation"):
        tracks_from_jsonable(seq_with({"track_id": 1, "observations": []}))
    with pytest.raises(SchemaError, match="strictly ascending"):
        tracks_from_jsonable(
            seq_with(
                {
                    "track_id": 1,
                    "observations": [
                        {"frame": 1, "box": [0, 0, 1, 1]},
                        {"frame": 0, "box": [0, 0, 1, 1]},
                    ],
                }
            )
        )
    with pytest.raises(SchemaError, match="width/height"):
        tracks_from_jsonable(
            seq_with({"track_id": 1, "observations": [{"frame": 0, "box": [0, 0, -1, 1]}]})
        )
    with pytest.raises(SchemaError, match="duplicate track id"):
        tracks_from_jsonable(
            {
                "sequences": [
                    {
                        "name": "a",
                        "height": 4,
                        "width": 4,
                        "num_frames": 4,
                        "tracks": [
                            {"track_id": 1, "observations": [{"frame": 0, "box": [0, 0, 1, 1]}]},
                            {"track_id": 1, "observations": [{"frame": 0, "box": [0, 0, 1, 1]}]},
                        ],
                    }
                ]
            }
        )


def test_mask_size_must_match_sequence():
    doc = {
        "sequences": [
            {
                "name": "a",
                "height": 4,
                "width": 4,
                "num_frames": 1,
                "tracks": [
                    {
                        "track_id": 1,
                        "observations": [
                            {
                                "frame": 0,
                                "box": [0, 0, 1, 1],
                                "mask": {"size": [8, 8], "counts": [0, 64]},
                            }
                        ],
                    }
                ],
            }
        ]
    }
    with pytest.raises(SchemaError, match="does not match sequence size"):
        tracks_from_jsonable(doc)


def test_detections_validation():
    def doc_with(det, num_frames=2, index=0):
        return {
            "sequences": [
                {
                    "name": "a",
                    "height": 4,
                    "width": 4,
                    "num_frames": num_frames,
                    "frames": [{"index": index, "detections": [det]}],
                }
            ]
        }

    good = {"box": [0, 0, 1, 1], "score": 0.5, "app_emb": [1.0], "cls_emb": [1.0]}
    seqs, _ = detections_from_jsonable(doc_with(good))
    assert len(seqs[0].frames[0].detections) == 1

    with pytest.raises(SchemaError, match="missing required field"):
        detections_from_jsonable(doc_with({"box": [0, 0, 1, 1]}))
    with pytest.raises(SchemaError, match="non-empty array of numbers"):
        detections_from_jsonable(doc_with(dict(good, app_emb=[])))
    with pytest.raises(SchemaError, match="out of range"):
        detections_from_jsonable(doc_with(good, num_frames=1, index=1))
    bad_order = doc_with(good)
    bad_order["sequences"][0]["frames"] = [
        {"index": 1, "detections": []},
        {"index": 0, "detections": []},
    ]
    with pytest.raises(SchemaError, match="strictly ascending"):
        detections_from_jsonable(bad_order)


def test_detection_objectness_range_enforced():
    doc = {
        "sequences": [
            {
                "name": "a",
                "height": 4,
                "width": 4,
                "num_frames": 1,
                "frames": [
                    {
                        "index": 0,
                        "detections": [
                            {"box": [0, 0, 1, 1], "score": 1.5, "app_emb": [1.0], "cls_emb": [1.0]}
                        ],
                    }
                ],
            }
        ]
    }
    with pytest.raises(SchemaError, match="objectness"):
        detections_from_jsonable(doc)


def test_bank_errors(tmp_path):
    p = tmp_path / "bank.json"
    p.write_text('{"categories": [{"id": 1, "name": "a", "split": "rare"}]}\n')
    with pytest.raises(SchemaError, match="split"):
        load_bank(str(p))
    p.write_text('{"categories": [{"id": 1, "name": "a"}]}\n')
    with pytest.raises(SchemaError, match="missing required field"):
        load_bank(str(p))


def test_root_must_be_object():
    with pytest.raises(SchemaError, match="expected an object"):
        tracks_from_jsonable([1, 2])
    with pytest.raises(SchemaError, match="missing required field"):
        tracks_from_jsonable({})


# ---------------------------------------------------------------------------
# corrupted documents: the full issue list, at every level of both kinds


def valid_detections_doc():
    det = {
        "box": [0, 0, 1, 1],
        "score": 0.5,
        "app_emb": [1.0],
        "cls_emb": [1.0],
        "mask": {"size": [4, 4], "counts": [0, 1, 15]},
    }
    frames = [{"index": 0, "detections": [det]}, {"index": 1, "detections": [copy.deepcopy(det)]}]
    return {"sequences": [{"name": "a", "height": 4, "width": 4, "num_frames": 2, "frames": frames}]}


def valid_tracks_doc():
    ob = {"frame": 0, "box": [0, 0, 1, 1], "mask": {"size": [4, 4], "counts": [0, 1, 15]}}
    track = {"track_id": 1, "category_id": 2, "score": 0.5, "observations": [ob, copy.deepcopy(ob)]}
    track["observations"][1]["frame"] = 1
    return {"sequences": [{"name": "a", "height": 4, "width": 4, "num_frames": 2, "tracks": [track]}]}


def _seq0(doc):
    return doc["sequences"][0]


def _obs(doc, i):
    return _seq0(doc)["tracks"][0]["observations"][i]


def _frames_missing(doc):
    _seq0(doc).update(height=0, color="red")
    del _seq0(doc)["frames"]


def _two_more_sequences(doc):
    doc["sequences"] += [copy.deepcopy(_seq0(doc)), 3]


def _bad_frames(doc):
    frames = _seq0(doc)["frames"]
    frames[0]["index"] = 2
    frames[1]["index"] = 1
    frames += [{"detections": [], "extra": 1}, "frame"]


def _bad_tracks(doc):
    _seq0(doc)["tracks"] += [
        dict(_seq0(doc)["tracks"][0], category_id=True, score="high"),
        {"track_id": 0, "observations": []},
        {"track_id": 3},
    ]


def _bad_detection_fields(doc):
    det = _seq0(doc)["frames"][0]["detections"][0]
    det.update(score="x", app_emb=[], color=1)
    del det["cls_emb"]


def _bad_detection_values(doc):
    dets = _seq0(doc)["frames"][1]["detections"]
    dets[0].update(score=1.5, app_emb=[1.0, 2.0])
    dets.append(dict(dets[0], box=[0, 0, 1]))


def _wrong_mask_size(doc):
    _seq0(doc)["frames"][0]["detections"][0]["mask"] = {"size": [2, 2], "counts": [0, 4]}


def _bad_observation_values(doc):
    _obs(doc, 0).update(frame=2, box=[0, 0, -1, 1])
    _obs(doc, 1)["mask"]["counts"] = [0, 1, 14]


def _bad_observation_fields(doc):
    _obs(doc, 0).update(frame=1, extra=None)
    del _obs(doc, 0)["box"]
    _obs(doc, 1).update(frame=0, box=[0, 0, "1", 1])
    _obs(doc, 1)["mask"]["counts"] = [0, True, 15]


SEQ = "sequences[0]"
DET = f"{SEQ}.frames[0].detections[0]"
OBS = f"{SEQ}.tracks[0].observations"

# (kind, corrupt, issues): corrupt edits a valid document in place or returns
# a new root.  A null body is a wrong type like any other non-array, and a
# mask of the wrong size is reported once, against the mask.  Each fault is
# filed once: a missing field only as missing, in field order, and a frame
# index out of range only against the frame, whose detections build none.
CORRUPTED = [
    pytest.param("detections", lambda d: [d], ["$: expected an object, got list"], id="root-array"),
    pytest.param(
        "tracks",
        lambda d: {"seqs": d["sequences"]},
        ["$.seqs: unknown field", "sequences: missing required field"],
        id="root-unknown-key",
    ),
    pytest.param(
        "detections",
        lambda d: {"sequences": {"a": 1}},
        ["sequences: expected an array, got dict"],
        id="sequences-object",
    ),
    pytest.param(
        "detections",
        lambda d: _seq0(d).update(frames=None),
        [f"{SEQ}.frames: expected an array, got NoneType"],
        id="frames-null",
    ),
    pytest.param(
        "tracks",
        lambda d: _seq0(d).update(tracks=None),
        [f"{SEQ}.tracks: expected an array, got NoneType"],
        id="tracks-null",
    ),
    pytest.param(
        "detections",
        _frames_missing,
        [
            f"{SEQ}.color: unknown field",
            f"{SEQ}.height: expected an integer >= 1, got 0",
            f"{SEQ}.frames: missing required field",
        ],
        id="frames-missing",
    ),
    pytest.param(
        "tracks",
        lambda d: _seq0(d).update(name=5, num_frames=True),
        [
            f"{SEQ}.name: expected a string, got int",
            f"{SEQ}.num_frames: expected an integer, got True",
        ],
        id="meta-types",
    ),
    pytest.param(
        "tracks",
        _two_more_sequences,
        [
            "sequences[1].name: duplicate sequence name 'a'",
            "sequences[2]: expected an object, got int",
        ],
        id="duplicate-name",
    ),
    pytest.param(
        "detections",
        _bad_frames,
        [
            f"{SEQ}.frames[0].index: frame index 2 out of range for 2 frames",
            f"{SEQ}.frames[1].index: frame indices must be strictly ascending",
            f"{SEQ}.frames[2].extra: unknown field",
            f"{SEQ}.frames[2].index: missing required field",
            f"{SEQ}.frames[3]: expected an object, got str",
        ],
        id="frames",
    ),
    pytest.param(
        "tracks",
        _bad_tracks,
        [
            f"{SEQ}.tracks[1].track_id: duplicate track id 1",
            f"{SEQ}.tracks[1].category_id: expected an integer, got True",
            f"{SEQ}.tracks[1].score: expected a finite number, got 'high'",
            f"{SEQ}.tracks[2].track_id: expected an integer >= 1, got 0",
            f"{SEQ}.tracks[3].observations: missing required field",
        ],
        id="tracks",
    ),
    pytest.param(
        "detections",
        _bad_detection_fields,
        [
            f"{DET}.color: unknown field",
            f"{DET}.score: expected a number, got 'x'",
            f"{DET}.app_emb: expected a non-empty array of numbers",
            f"{DET}.cls_emb: missing required field",
        ],
        id="detection-fields",
    ),
    pytest.param(
        "detections",
        lambda d: _seq0(d)["frames"][0]["detections"][0].update(score=None),
        [f"{DET}.score: expected a number, got None"],
        id="detection-score-null",
    ),
    pytest.param(
        "detections",
        _bad_detection_values,
        [
            f"{SEQ}.frames[1].detections[1].box: expected 4 numbers",
            f"{SEQ}: detections[1]: objectness out of range [0, 1], got 1.5",
            f"{SEQ}: detections[1]: app_emb embedding dimension mismatch, got 2, expected 1",
        ],
        id="detection-values",
    ),
    pytest.param(
        "detections",
        _wrong_mask_size,
        [f"{DET}.mask.size: mask size (2, 2) does not match sequence size (4, 4)"],
        id="detection-mask-size",
    ),
    pytest.param(
        "tracks",
        _bad_observation_values,
        [
            f"{OBS}[0].frame: frame 2 out of range for 2 frames",
            f"{OBS}[0].box: box width/height must be >= 0",
            f"{OBS}[1].mask: counts sum to 15 pixels, expected 16 for size (4, 4)",
            f"{OBS}[1].frame: observation frames must be strictly ascending "
            "(one observation per frame)",
        ],
        id="observation-values",
    ),
    pytest.param(
        "tracks",
        _bad_observation_fields,
        [
            f"{OBS}[0].extra: unknown field",
            f"{OBS}[0].box: missing required field",
            f"{OBS}[1].box: expected 4 numbers",
            f"{OBS}[1].mask.counts: expected an array of integers",
        ],
        id="observation-fields",
    ),
]


@pytest.mark.parametrize("kind, corrupt, issues", CORRUPTED)
def test_corrupted_document_issue_list(kind, corrupt, issues):
    if kind == "detections":
        doc, loader = valid_detections_doc(), detections_from_jsonable
    else:
        doc, loader = valid_tracks_doc(), tracks_from_jsonable
    seqs, warnings = loader(copy.deepcopy(doc))
    assert len(seqs) == 1 and warnings == []
    doc = corrupt(doc) or doc
    with pytest.raises(SchemaError) as exc:
        loader(doc)
    assert exc.value.issues == issues


def test_null_optional_fields_read_as_absent():
    dets, tracks = valid_detections_doc(), valid_tracks_doc()
    _seq0(dets)["frames"][0]["detections"][0]["mask"] = None
    _seq0(tracks)["tracks"][0].update(category_id=None, score=None)
    _obs(tracks, 0)["mask"] = None
    bank = bank_to_jsonable(two_split_bank())
    bank["categories"][1]["prototype"] = None
    (seq,), _ = detections_from_jsonable(dets)
    assert seq.frames[0].detections[0].mask is None
    (seq,), _ = tracks_from_jsonable(tracks)
    track = seq.tracks[0]
    assert (track.category_id, track.score, track.observations[0].mask) == (None, None, None)
    loaded, _ = bank_from_jsonable(bank)
    assert loaded.get(2).prototype is None


@pytest.mark.parametrize(
    "score", [json.loads("1e999"), 10**400, -(10**400)], ids=["inf", "1e400", "-1e400"]
)
def test_track_score_must_be_a_finite_double(score):
    doc = valid_tracks_doc()
    _seq0(doc)["tracks"][0]["score"] = score
    with pytest.raises(SchemaError) as exc:
        tracks_from_jsonable(doc)
    assert exc.value.issues == [f"{SEQ}.tracks[0].score: expected a finite number, got {score!r}"]


def _quoted_issue(kind, value):
    """The one issue filed for ``value`` at a field that echoes it."""
    if kind == "score":
        doc = valid_detections_doc()
        _seq0(doc)["frames"][0]["detections"][0]["score"] = value
        loader, path = detections_from_jsonable, f"{DET}.score"
    elif kind == "track_id":
        doc = valid_tracks_doc()
        _seq0(doc)["tracks"][0]["track_id"] = value
        loader, path = tracks_from_jsonable, f"{SEQ}.tracks[0].track_id"
    else:
        doc = {"categories": [{"id": 1, "name": "a", "split": value}]}
        loader, path = bank_from_jsonable, "categories[0].split"
    with pytest.raises(SchemaError) as exc:
        loader(doc)
    (issue,) = exc.value.issues
    assert issue.startswith(f"{path}: expected ")
    return issue.partition(", got ")[2]


@pytest.mark.parametrize(
    "kind, value, quoted",
    [
        # Past Python's 4,300-digit str limit: described by size, not quoted.
        ("score", 10**5000, "an integer of 16610 bits"),
        ("score", [1, -(10**5000)], "a list holding a huge integer"),
        ("track_id", -(10**5000), "a negative integer of 16610 bits"),
        ("track_id", -(2**2000), "a negative integer of 2001 bits"),
        # Long reprs are cut at 500 characters; up to 2,000 bits an int is one.
        ("track_id", -(2**2000 - 1), str(-(2**2000 - 1))[:500] + "..."),
        ("track_id", "7" * 600, "'" + "7" * 499 + "..."),
        ("split", "r" * 1000, "'" + "r" * 499 + "..."),
        # Short ones are quoted whole, as they always were.
        ("score", "x", "'x'"),
        ("track_id", 0, "0"),
        ("split", "rare", "'rare'"),
        ("score", 10**400, repr(10**400)),
    ],
    ids=["score-5000-digits", "score-list", "track-id-5000-digits", "track-id-2001-bits",
         "track-id-2000-bits", "track-id-long-string", "split-long", "score-short", "track-id-zero", "split-short",
         "score-401-digits"],
)
def test_messages_quote_a_value_within_bounds(kind, value, quoted):
    assert _quoted_issue(kind, value) == quoted


def _huge_frame_index(doc, value):
    _seq0(doc)["frames"][1]["index"] = value
    return f"{SEQ}.frames[1].index: frame index "


def _huge_observation_frame(doc, value):
    _obs(doc, 1)["frame"] = value
    return f"{OBS}[1].frame: frame "


def _huge_duplicate_track_id(doc, value):
    tracks = _seq0(doc)["tracks"]
    tracks[0]["track_id"] = value
    tracks.append(copy.deepcopy(tracks[0]))
    return f"{SEQ}.tracks[1].track_id: duplicate track id "


def _huge_mask_size(doc, value):
    # One run covers the huge mask, so its runs are valid and only its size is wrong.
    _obs(doc, 1)["mask"] = {"size": [value, 1], "counts": [value]}
    return f"{OBS}[1].mask.size: mask size ("


@pytest.mark.parametrize("value", [10**4000, 10**5000], ids=["4001-digits", "5001-digits"])
@pytest.mark.parametrize(
    "site",
    [_huge_frame_index, _huge_observation_frame, _huge_duplicate_track_id, _huge_mask_size, None],
    ids=["frame-index", "observation-frame", "duplicate-track-id", "mask-size", "validate-sequence"],
)
def test_accepted_huge_integers_give_one_bounded_issue(site, value):
    # An accepted integer is quoted within bounds wherever a message names
    # it; past Python's 4,300 digits it must not raise a bare ValueError.
    if site is None:
        meta = SequenceMeta("a", 4, 4, 2)
        det = Detection(value, BBox(0, 0, 1, 1), 0.5, np.ones(1), np.ones(1))
        issues, start = validate_sequence(meta, [det]), "detections[0]: frame_index out of range, got "
    else:
        doc = valid_detections_doc() if site is _huge_frame_index else valid_tracks_doc()
        start = site(doc, value)
        loader = detections_from_jsonable if site is _huge_frame_index else tracks_from_jsonable
        with pytest.raises(SchemaError) as exc:
            loader(doc)
        issues = exc.value.issues
    (issue,) = issues
    assert issue.startswith(start) and len(issue) < 700, issue[:200]


def test_validate_lists_a_huge_integer_without_a_traceback(tmp_path, capsys):
    doc = valid_detections_doc()
    # json reads at most 4,300 digits, as str() writes.
    _seq0(doc)["frames"][0]["detections"][0]["score"] = -(10**4000)
    f = tmp_path / "dets.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", "--file", str(f), "--kind", "detections"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {DET}.score: expected a number, got a negative integer of 13288 bits"
    ]


# ---------------------------------------------------------------------------
# whole-list screens against the per-element references


def _synth_docs(seed: int) -> tuple[dict, dict, dict]:
    """Small valid detections, gt and bank documents, as parsed from
    canonical text (whole floats come back as ints)."""
    res = generate(
        SynthConfig(
            seed=seed, num_frames=3, num_tracks=3, frame_height=8, frame_width=8,
            app_emb_dim=3, cls_emb_dim=2, p_fp=0.3, p_drop=0.2, box_jitter_sigma=0.5,
        )
    )
    return (
        json.loads(dumps_canonical(detections_to_jsonable(res.detections))),
        json.loads(dumps_canonical(tracks_to_jsonable(res.gt))),
        json.loads(dumps_canonical(bank_to_jsonable(res.bank))),
    )


def _items(doc: dict) -> list[dict]:
    """Every detection or observation object of a document."""
    seq = doc["sequences"][0]
    if "frames" in seq:
        return [d for fr in seq["frames"] for d in fr["detections"]]
    return [ob for tr in seq["tracks"] for ob in tr["observations"]]


def _dicts(v) -> list[dict]:
    """Every JSON object in a document, the root first."""
    if isinstance(v, dict):
        return [v, *(d for x in v.values() for d in _dicts(x))]
    if isinstance(v, list):
        return [d for x in v for d in _dicts(x)]
    return []


_BAD_ELEMENTS = [True, False, 1.5, -2, 0, float("inf"), float("nan"), "1", None, 10**400, -(10**400)]


def _corrupt(doc: dict, data) -> None:
    item = data.draw(st.sampled_from(_items(doc)))
    kind = data.draw(
        st.sampled_from(["counts", "box", "size", "runs", "emb", "dims", "key", "drop"])
    )
    mask = item.get("mask", {})
    embs = [item[k] for k in ("app_emb", "cls_emb") if item.get(k)]
    if kind in ("counts", "box", "size"):
        target = item.get("box") if kind == "box" else mask.get(kind)
        if target:
            i = data.draw(st.integers(0, len(target) - 1))
            target[i] = data.draw(st.sampled_from(_BAD_ELEMENTS))
    elif kind == "runs" and mask.get("counts"):
        counts = mask["counts"]
        i = data.draw(st.integers(0, len(counts) - 1))
        counts[i] = data.draw(st.sampled_from([0, -1, -7]))
    elif kind == "emb" and embs:
        emb = data.draw(st.sampled_from(embs))
        i = data.draw(st.integers(0, len(emb) - 1))
        emb[i] = data.draw(
            st.sampled_from([json.loads("1e999"), -math.inf, math.nan, "x", 10**400, -(10**400)])
        )
    elif kind == "dims" and embs:
        emb = data.draw(st.sampled_from(embs))
        if data.draw(st.booleans()):
            emb.append(0.5)
        else:
            del emb[data.draw(st.integers(0, len(emb) - 1))]
    elif kind == "key":
        data.draw(st.sampled_from(_dicts(doc)))["extra"] = 1
    elif kind == "drop" and item:
        item.pop(data.draw(st.sampled_from(sorted(item))))


def _outcome(loader, to_jsonable, doc, lax):
    try:
        seqs, warnings = loader(doc, lax=lax)
    except SchemaError as exc:
        return "issues", exc.issues
    return "ok", warnings, dumps_canonical(to_jsonable(seqs))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loaders_match_the_per_element_reference(data):
    dets_doc, tracks_doc, _ = _synth_docs(data.draw(st.integers(0, 30)))
    tracks = data.draw(st.booleans())
    doc = tracks_doc if tracks else dets_doc
    for _ in range(data.draw(st.integers(1, 3))):
        _corrupt(doc, data)
    lax = data.draw(st.booleans())
    if tracks:
        loaders = (tracks_from_jsonable, tracks_from_jsonable_reference, tracks_to_jsonable)
    else:
        loaders = (detections_from_jsonable, detections_from_jsonable_reference, detections_to_jsonable)
    fast, reference, to_jsonable = loaders
    before = copy.deepcopy(doc)
    got = _outcome(fast, to_jsonable, doc, lax)
    assert doc == before  # not mutated (a NaN compares equal to itself by identity)
    assert got == _outcome(reference, to_jsonable, doc, lax)


_DOUBLE_FIELDS = frozenset({"box", "score", "app_emb", "cls_emb", "prototype"})


def _double_slots(v, path: str = ""):
    """(container, key, field path) for every number a loader reads as a
    double, plus the optional ``score`` of each track."""
    if isinstance(v, list):
        for i, x in enumerate(v):
            yield from _double_slots(x, f"{path}[{i}]")
    elif isinstance(v, dict):
        if "track_id" in v and "score" not in v:
            yield v, "score", f"{path}.score"
        for key, x in v.items():
            kpath = f"{path}.{key}" if path else key
            if key not in _DOUBLE_FIELDS:
                yield from _double_slots(x, kpath)
            elif isinstance(x, list):
                yield from ((x, i, kpath) for i in range(len(x)))
            else:
                yield v, key, kpath


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_number_beyond_double_range_is_one_issue_at_its_field(data):
    kinds = ("detections", "tracks", "bank")
    kind = data.draw(st.sampled_from(kinds))
    doc = dict(zip(kinds, _synth_docs(data.draw(st.integers(0, 30)))))[kind]
    container, key, path = data.draw(st.sampled_from(list(_double_slots(doc))))
    container[key] = data.draw(st.sampled_from([10**400, -(10**400)]))
    err = StringIO()
    with tempfile.TemporaryDirectory() as d, redirect_stderr(err):
        f = os.path.join(d, "doc.json")
        with open(f, "w") as fh:
            json.dump(doc, fh)
        rc = main(["validate", "--file", f, "--kind", kind])
    assert rc == 1
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {path}: ")


def _emb_shape(dim):
    return st.sampled_from([(dim,), (dim,), (dim,), (0,), (dim + 1,), (1, dim), (0, dim)])


def _emb(draw, dim, shape):
    arr = np.full(shape if shape is not None else draw(_emb_shape(dim)), 0.5)
    if arr.size and draw(st.booleans()):
        arr.flat[0] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 2.0]))
    return arr


_COORD = st.sampled_from([0.0, 1.0, 2.5, -1.0, np.nan, np.inf, -np.inf])


@st.composite
def _detection(draw, app_shape=None, cls_shape=None):
    size = draw(st.sampled_from([(4, 4), (4, 4), (2, 4)]))
    return Detection(
        frame_index=draw(st.integers(-1, 3)),
        box=BBox(*(draw(_COORD) for _ in range(4))),
        objectness=draw(st.sampled_from([0.0, 0.5, 1.0, -0.1, 1.5, np.nan, True])),
        app_emb=_emb(draw, 3, app_shape),
        cls_emb=_emb(draw, 2, cls_shape),
        mask=draw(st.sampled_from([None, RleMask(size=size, counts=(size[0] * size[1],))])),
    )


@st.composite
def _detections(draw):
    # Each embedding kind either has one shape for every detection or a
    # shape drawn per detection, so both of validate_sequence's shape
    # branches run.
    app_shape = draw(st.none() | _emb_shape(3))
    cls_shape = draw(st.none() | _emb_shape(2))
    return draw(st.lists(_detection(app_shape, cls_shape), max_size=12))


@settings(max_examples=300, deadline=None)
@given(dets=_detections(), num_frames=st.integers(0, 3))
def test_validate_sequence_matches_the_per_detection_reference(dets, num_frames):
    meta = SequenceMeta(name="s", height=4, width=4, num_frames=num_frames)
    assert validate_sequence(meta, dets) == validate_sequence_reference(meta, dets)


def test_validate_sequence_takes_frame_indices_beyond_int64():
    # A JSON frame index may be any integer; the loader still builds the
    # detection, so the gate must report it rather than overflow.
    meta = SequenceMeta(name="s", height=4, width=4, num_frames=3)
    base = dict(box=BBox(0.0, 0.0, 1.0, 1.0), objectness=0.5, app_emb=np.ones(3), cls_emb=np.ones(2))
    dets = [Detection(frame_index=f, **base) for f in (2**70, 0, -(2**70), True)]
    got = validate_sequence(meta, dets)
    assert got == validate_sequence_reference(meta, dets)
    assert [m.split(":")[0] for m in got] == ["detections[0]", "detections[2]"]


@settings(max_examples=300, deadline=None)
@given(
    size=st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
    counts=st.lists(st.integers(-3, 6), max_size=8),
)
def test_validate_rle_matches_the_per_run_reference(size, counts):
    mask = RleMask(size=size, counts=tuple(counts))
    assert validate_rle(mask) == validate_rle_reference(mask)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.integers(),
    _FINITE,
    st.booleans(),
    st.none(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FINITE.map(np.float64),
    st.lists(st.integers(), max_size=6),
    st.lists(_FINITE, max_size=6),
    st.lists(st.floats(min_value=1e307, allow_infinity=False), max_size=3),  # sum overflows
)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_dumps_canonical_matches_the_recursive_reference(tree):
    assert dumps_canonical(tree) == dumps_canonical_reference(tree)


@settings(max_examples=200, deadline=None)
@given(
    tree=_TREES,
    floats=st.lists(_FINITE, max_size=4),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64(np.nan)]),
    at=st.integers(0, 4),
)
def test_dumps_canonical_rejects_non_finite_like_the_reference(tree, floats, bad, at):
    floats.insert(min(at, len(floats)), bad)
    doc = [tree, floats]
    with pytest.raises(ValueError) as got:
        dumps_canonical(doc)
    with pytest.raises(ValueError) as want:
        dumps_canonical_reference(doc)
    assert str(got.value) == str(want.value)


def test_detections_from_jsonable_leaves_its_input_unchanged():
    doc, _, _ = _synth_docs(1)
    before = copy.deepcopy(doc)
    detections_from_jsonable(doc)
    assert doc == before


# ---------------------------------------------------------------------------
# BURST dumps

CLIP = "sequences[0] (clip01)"


# Track 2's runs [10, 2, 2, 2] as COCO's compressed string.
SQ2_STRING = rle_to_string([10, 2, 2, 2])


@pytest.mark.parametrize(
    "payload",
    [
        {"rle": {"counts": SQ2_STRING, "size": [4, 4]}},
        {"rle": SQ2_STRING, "is_gt": True},
        {"counts": SQ2_STRING},
    ],
    ids=["wrapped", "bare-rle-string", "counts-only"],
)
def test_burst_compressed_string_mask_is_decoded(payload):
    doc = burst_doc()
    doc["sequences"][0]["segmentations"][0]["2"] = payload
    assert SQ2_STRING == ":220"
    assert tracks_from_burst(doc) == tracks_from_burst(burst_doc())


@pytest.mark.parametrize("counts", ["kYW2", "0a", "0~", ""], ids=["unfit", "truncated", "bad-char", "empty"])
def test_burst_undecodable_string_mask_is_skipped(counts):
    doc = burst_doc()
    doc["sequences"][0]["segmentations"][0]["2"] = {"rle": {"counts": counts, "size": [4, 4]}}
    seqs, warnings = tracks_from_burst(doc)
    assert warnings == [
        f"{CLIP}: track 2 frame 0: mask is not valid COCO RLE for the frame size, skipped"
    ]
    assert [t.track_id for t in seqs[0].tracks] == [1]


@pytest.mark.parametrize("key", ["1_0", " 1", "+1", "1 ", "-1", "\u0661", "", "0x1"])
def test_burst_track_key_must_be_ascii_digits(key):
    doc = burst_doc()
    frame0 = doc["sequences"][0]["segmentations"][0]
    frame0[key] = frame0.pop("2")
    seqs, warnings = tracks_from_burst(doc)
    assert warnings == [f"{CLIP}: non-numeric track id {key!r}, skipped"]
    assert [t.track_id for t in seqs[0].tracks] == [1]


def test_burst_missing_category_leaves_track_unlabeled():
    doc = burst_doc()
    del doc["sequences"][0]["track_category_ids"]["2"]
    seqs, warnings = tracks_from_burst(doc)
    assert warnings == [f"{CLIP}: track 2 has no category id; left unlabeled"]
    assert [t.category_id for t in seqs[0].tracks] == [3, None]


@pytest.mark.parametrize("height", [True, 0])
def test_burst_bool_or_zero_height_skips_the_sequence(height):
    doc = burst_doc()
    doc["sequences"][0]["height"] = height
    assert tracks_from_burst(doc) == ([], [f"{CLIP}: missing or invalid height/width, skipped"])


@pytest.mark.parametrize("root", [[1, 2, 3], None, {"sequences": {}}])
def test_burst_root_must_be_an_object_with_sequences(root):
    with pytest.raises(SchemaError) as exc:
        tracks_from_burst(root)
    assert exc.value.issues == ["$: expected an object with a 'sequences' array"]


def test_burst_frame_repeating_a_track_id_keeps_the_first_key():
    doc = burst_doc()
    doc["sequences"][0]["segmentations"][0]["01"] = {"counts": [10, 2, 2, 2]}
    seqs, warnings = tracks_from_burst(doc)
    assert warnings == [
        f"{CLIP}: track 1 frame 0: key '01' repeats an earlier key's track id, skipped"
    ]
    one = seqs[0].tracks[0]
    assert [ob.frame for ob in one.observations] == [0, 1]
    assert one.observations[0].mask.counts == (0, 2, 2, 2, 10)
    assert load_roundtrip(seqs)[0] == seqs


def test_burst_repeated_sequence_name_keeps_the_first():
    doc = burst_doc()
    doc["sequences"].append(copy.deepcopy(doc["sequences"][0]))
    seqs, warnings = tracks_from_burst(doc)
    assert warnings == ["sequences[1] (clip01): duplicate sequence name, skipped"]
    assert load_roundtrip(seqs)[0] == seqs


def test_load_burst_names_the_file_and_rejects_nan(tmp_path):
    p = tmp_path / "dump.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError) as exc:
        load_burst(str(p))
    assert exc.value.issues == [f"{p}: expected an object with a 'sequences' array"]
    p.write_text('{"sequences": [{"seq_name": "a", "height": NaN}]}')
    with pytest.raises(SchemaError, match="non-finite JSON constant"):
        load_burst(str(p))


# ---------------------------------------------------------------------------
# flat config


def test_parse_flat_config():
    text = """
# tracker settings
match_threshold = 0.6

momentum=0.1   # not a comment, part of the value
"""
    out = parse_flat_config(text)
    assert out["match_threshold"] == "0.6"
    assert out["momentum"] == "0.1   # not a comment, part of the value"


def test_parse_flat_config_errors():
    with pytest.raises(ConfigError, match="line 2: duplicate key 'a'"):
        parse_flat_config("a = 1\na = 2")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_flat_config("just words")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_flat_config("= noname")


def test_value_may_contain_equals():
    assert parse_flat_config("cmd = a=b")["cmd"] == "a=b"


def test_empty_value_allowed():
    assert parse_flat_config("k =")["k"] == ""


def test_load_flat_config(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("x = 1\n# note\ny = two\n")
    assert load_flat_config(str(p)) == {"x": "1", "y": "two"}
