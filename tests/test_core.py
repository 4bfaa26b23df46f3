import numpy as np

from letrack.core import BBox, validate_sequence
from letrack.maskops import RleMask

from helpers import det, meta


def test_bbox_area_and_tuple():
    b = BBox(1.0, 2.0, 3.0, 4.0)
    assert b.area() == 12.0
    assert b.as_tuple() == (1.0, 2.0, 3.0, 4.0)


def test_valid_sequence_has_no_issues():
    m = meta(n=5)
    dets = [det(0), det(2, box=(5, 5, 3, 3)), det(4, objectness=0.0)]
    assert validate_sequence(m, dets) == []


def test_negative_box_origin_is_allowed():
    # Boxes may extend past the frame edge; only w/h are sign-constrained.
    assert validate_sequence(meta(), [det(0, box=(-3.5, -1.0, 10, 10))]) == []


def test_meta_violations():
    issues = validate_sequence(meta(h=0, w=5, n=0), [])
    assert len(issues) == 2
    assert any("frame size" in s for s in issues)
    assert any("num_frames" in s for s in issues)


def test_frame_count_must_fit_an_int64_with_or_without_detections():
    for dets in ([], [det(0)]):
        assert validate_sequence(meta(n=2**63 - 1), dets) == []
        assert validate_sequence(meta(n=10**400), dets) == [
            f"meta: num_frames must be <= 2**63 - 1, got {10**400}"
        ]
    (issue,) = validate_sequence(meta(n=10**5000), [])
    assert issue == "meta: num_frames must be <= 2**63 - 1, got an integer of 16610 bits"


def test_frame_index_out_of_range():
    issues = validate_sequence(meta(n=3), [det(3)])
    assert len(issues) == 1
    assert "frame_index out of range" in issues[0]
    assert "detections[0]" in issues[0]


def test_objectness_out_of_range():
    for bad in (-0.1, 1.5, float("nan")):
        issues = validate_sequence(meta(), [det(0, objectness=bad)])
        assert any("objectness" in s for s in issues), bad


def test_box_violations():
    issues = validate_sequence(meta(), [det(0, box=(0, 0, -1, 5))])
    assert any("width/height" in s for s in issues)
    issues = validate_sequence(meta(), [det(0, box=(float("inf"), 0, 1, 1))])
    assert any("finite" in s for s in issues)


def test_embedding_shape_violations():
    d = det(0)
    bad = det(1, app=())
    issues = validate_sequence(meta(), [d, bad])
    assert any("app_emb must be non-empty" in s for s in issues)

    import numpy as np

    from letrack.core import Detection

    two_d = Detection(
        frame_index=0,
        box=BBox(0, 0, 1, 1),
        objectness=0.5,
        app_emb=np.zeros((2, 2)),
        cls_emb=np.ones(2),
    )
    issues = validate_sequence(meta(), [two_d])
    assert any("must be 1-D" in s for s in issues)


def test_embedding_nonfinite():
    issues = validate_sequence(meta(), [det(0, cls=(1.0, float("nan")))])
    assert any("cls_emb has non-finite values" in s for s in issues)


def test_embedding_dimension_mismatch_is_data_driven():
    first = det(0, app=(1.0, 0.0), cls=(0.0, 1.0, 0.0))
    second = det(1, app=(1.0, 0.0, 0.0), cls=(0.0, 1.0, 0.0))
    issues = validate_sequence(meta(), [first, second])
    assert len(issues) == 1
    assert "app_emb embedding dimension mismatch" in issues[0]
    assert "got 3, expected 2" in issues[0]


def test_mask_size_mismatch():
    wrong = RleMask(size=(4, 4), counts=(16,))
    issues = validate_sequence(meta(h=8, w=8), [det(0, mask=wrong)])
    assert len(issues) == 1
    assert "mask size (4, 4)" in issues[0]
    assert "(8, 8)" in issues[0]


def test_all_violations_are_collected_in_one_pass():
    bad1 = det(9, objectness=2.0, box=(0, 0, -1, 1))  # 3 issues (n=5)
    bad2 = det(0, app=np.zeros(0))
    issues = validate_sequence(meta(n=5), [bad1, bad2])
    assert len(issues) == 4
    assert sum("detections[0]" in s for s in issues) == 3
    assert sum("detections[1]" in s for s in issues) == 1
