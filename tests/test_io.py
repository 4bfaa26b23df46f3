import copy
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from letrack.core import BBox, Detection, SequenceMeta
from letrack.io import (
    ConfigError,
    FrameDetections,
    SchemaError,
    SequenceDetections,
    SequenceTracks,
    TrackObservation,
    TrackRecord,
    bank_to_jsonable,
    detections_from_jsonable,
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
from letrack.maskops import RleMask

from helpers import burst_doc, two_split_bank


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
# mask of the wrong size is reported once, against the mask.
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
            f"{SEQ}: detections[0]: frame_index out of range, got 2 for 2 frames",
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
            f"{DET}.cls_emb: missing required field",
            f"{DET}.score: expected a number, got 'x'",
            f"{DET}.app_emb: expected a non-empty array of numbers",
            f"{DET}.cls_emb: expected a non-empty array of numbers",
        ],
        id="detection-fields",
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
            f"{OBS}[0].box: expected 4 numbers",
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


# ---------------------------------------------------------------------------
# BURST dumps

CLIP = "sequences[0] (clip01)"


def test_burst_compressed_string_mask_is_skipped():
    doc = burst_doc()
    doc["sequences"][0]["segmentations"][0]["2"] = {"rle": {"counts": "kYW2", "size": [4, 4]}}
    seqs, warnings = tracks_from_burst(doc)
    assert warnings == [
        f"{CLIP}: track 2 frame 0: unsupported mask encoding (integer run counts required), skipped"
    ]
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
