import json
import math
import os

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
    load_detections,
    load_flat_config,
    load_tracks,
    parse_flat_config,
    save_bank,
    save_detections,
    save_tracks,
    tracks_from_jsonable,
    write_json_files,
)
from letrack.maskops import RleMask

from helpers import two_split_bank


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
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert open(p1, "rb").read().endswith(b"\n")


def test_detections_roundtrip_fixed_point(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_detections(p1, sample_detections())
    loaded, warnings = load_detections(p1)
    assert warnings == []
    save_detections(p2, loaded)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_bank_roundtrip_fixed_point(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_bank(p1, two_split_bank())
    loaded, warnings = load_bank(p1)
    assert warnings == []
    save_bank(p2, loaded)
    assert open(p1, "rb").read() == open(p2, "rb").read()


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
    from letrack.io import tracks_to_jsonable

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
