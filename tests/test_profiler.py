"""Traffic profiling: session features, the decision tree, device profiles."""

import dataclasses
import hashlib
import math
import random
import statistics
from fractions import Fraction

import pytest

from iotbed.errors import AnalysisError
from iotbed.profiler import tree
from iotbed.profiler.features import (
    SESSION_GAP_S,
    SUMMARY_LENGTH,
    SUMMARY_NAMES,
    SequenceInstance,
    extract_features,
    pstdev,
    summarize,
)
from iotbed.profiler.profile import (
    ProfileDistribution,
    confusion_matrix,
    matrix_accuracy,
    profile_device,
    render_confusion,
    render_profile_record,
    render_profile_table,
)
from iotbed.profiler.tree import (
    Leaf,
    Node,
    StatModel,
    TrainParams,
    best_split,
    class_entropy,
    classify_sequence,
    load_model,
    predict_class,
    save_model,
    split_gain,
    train_model,
)
from iotbed.simnet.capture import CaptureRecord


def rec(seq, ts, src="a", sport=1000, dst="b", dport=2000, size=100, ttl=64,
        proto="tcp"):
    return CaptureRecord(seq=seq, ts=ts, src_addr=src, dst_addr=dst,
                         src_port=sport, dst_port=dport, proto=proto, ttl=ttl,
                         size=size, payload_entropy=7.5, payload_marker=None,
                         direction="lateral", kind="data")


class Row:
    """Bare training instance for tree tests."""

    def __init__(self, summary, label=None):
        self.summary = tuple(summary)
        self.label = label


# -- feature extraction -----------------------------------------------------


def test_summary_shape_and_names():
    assert SUMMARY_LENGTH == 10
    assert len(SUMMARY_NAMES) == 10


def test_single_session_summary_against_stats_oracle():
    capture = [rec(1, 0.0, size=100, ttl=64),
               rec(2, 0.1, size=200, ttl=64, src="b", sport=2000,
                   dst="a", dport=1000),
               rec(3, 0.4, size=50, ttl=60)]
    inst, = extract_features(capture)
    sizes = [100, 200, 50]
    gaps = [0.0, 100.0, 300.0]  # first packet contributes a zero gap
    assert inst.summary[0] == pytest.approx(statistics.fmean(sizes))
    assert inst.summary[1] == pytest.approx(statistics.pstdev(sizes))
    assert inst.summary[2:4] == (50.0, 200.0)
    assert inst.summary[4] == pytest.approx(statistics.fmean(gaps))
    assert inst.summary[5] == pytest.approx(statistics.pstdev(gaps))
    assert inst.summary[6] == 64.0
    assert inst.summary[7] == 3.0
    assert inst.summary[8] == 350.0
    # 2 of 3 packets share the first packet's source
    assert inst.summary[9] == pytest.approx(2 / 3)


def test_pstdev_is_correctly_rounded():
    # the float nearest the exact stddev: the exact variance lies between
    # the squares of the midpoints to the floats on either side
    rng = random.Random(17)
    for trial in range(400):
        n = rng.randrange(1, 30)
        values = ([rng.randrange(40, 1500) for _ in range(n)] if trial % 2
                  else [0.0] + [rng.gauss(100, 20) for _ in range(n - 1)])
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / n
        variance = sum((v - mean) ** 2 for v in exact) / n
        s = pstdev(values)
        if variance == 0:
            assert s == 0.0
            continue
        below = (Fraction(s) + Fraction(math.nextafter(s, 0.0))) / 2
        above = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
        assert below ** 2 <= variance <= above ** 2, values


def test_modal_ttl_tie_breaks_to_smallest():
    s = summarize([rec(1, 0.0, ttl=64), rec(2, 0.001, ttl=64),
                   rec(3, 0.002, ttl=32), rec(4, 0.003, ttl=32)])
    assert s[6] == 32.0


def test_bidirectional_records_share_one_session():
    capture = [rec(1, 0.0), rec(2, 0.2, src="b", sport=2000, dst="a",
                                dport=1000)]
    instances = extract_features(capture)
    assert len(instances) == 1
    assert instances[0].summary[7] == 2.0


def test_gap_timeout_splits_sessions():
    capture = [rec(1, 0.0), rec(2, 10.0),
               rec(3, 10.0 + SESSION_GAP_S + 0.001)]
    instances = extract_features(capture)
    assert [i.summary[7] for i in instances] == [2.0, 1.0]
    # exactly at the timeout the session continues
    capture = [rec(1, 0.0), rec(2, SESSION_GAP_S)]
    assert len(extract_features(capture)) == 1


def test_distinct_five_tuples_stay_separate():
    capture = [rec(1, 0.0, sport=1000), rec(2, 0.1, sport=1001),
               rec(3, 0.2, sport=1000, proto="udp")]
    assert len(extract_features(capture)) == 3


def test_instances_ordered_by_first_packet():
    capture = [rec(2, 5.0, sport=1001), rec(1, 0.0, sport=1000),
               rec(3, 6.0, sport=1000)]
    instances = extract_features(capture)
    assert [i.session_key[2] for i in instances] == [1000, 1001]


def test_extraction_against_manual_grouping_oracle():
    rng = random.Random(17)
    capture = []
    seq = 0
    for _ in range(120):
        seq += 1
        capture.append(rec(
            seq, rng.uniform(0, 500),
            src=rng.choice("xyz"), sport=rng.choice((1000, 1001)),
            dst="hub", dport=443, size=rng.randrange(40, 900),
            ttl=rng.choice((32, 64)), proto=rng.choice(("tcp", "udp"))))

    # independent grouping: sort, bucket by unordered endpoints + proto,
    # cut whenever the inter-record gap exceeds the timeout
    ordered = sorted(capture, key=lambda r: (r.ts, r.seq))
    groups = {}
    sessions = []
    for r in ordered:
        key = (tuple(sorted([(r.src_addr, r.src_port),
                             (r.dst_addr, r.dst_port)])), r.proto)
        bucket = groups.get(key)
        if bucket and r.ts - bucket[-1].ts > SESSION_GAP_S:
            sessions.append(bucket)
            bucket = None
        if bucket is None:
            bucket = groups[key] = []
            groups[key] = bucket
        bucket.append(r)
    sessions.extend(groups.values())
    sessions.sort(key=lambda s: (s[0].ts, s[0].seq))

    instances = extract_features(capture)
    assert len(instances) == len(sessions)
    for inst, session in zip(instances, sessions):
        assert inst.summary[7] == float(len(session))
        assert inst.summary[8] == float(sum(r.size for r in session))
        first = session[0]
        assert inst.session_key == (first.src_addr, first.dst_addr,
                                    first.src_port, first.dst_port,
                                    first.proto)


def test_sequence_instance_invariants():
    with pytest.raises(ValueError):
        SequenceInstance(("a", "b", 1, 2, "tcp"), (0.0,) * 9)
    inst = SequenceInstance(("a", "b", 1, 2, "tcp"), (0.0,) * 10)
    assert inst.label is None


# -- decision tree ----------------------------------------------------------


def oracle_entropy(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    from collections import Counter
    return -math.fsum((c / n) * math.log2(c / n)
                      for c in Counter(labels).values())


def oracle_best_gain(rows, min_leaf):
    """Exhaustive max gain over all features and midpoint thresholds."""
    labels = [y for _, y in rows]
    base = oracle_entropy(labels)
    best = 0.0
    for f in range(len(rows[0][0])):
        values = sorted({x[f] for x, _ in rows})
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            left = [y for x, y in rows if x[f] < thr]
            right = [y for x, y in rows if x[f] >= thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            n = len(rows)
            gain = base - (len(left) / n * oracle_entropy(left)
                           + len(right) / n * oracle_entropy(right))
            best = max(best, gain)
    return best


def test_class_entropy_matches_oracle():
    cases = [["a"], ["a", "b"], ["a"] * 3 + ["b"], ["a", "b", "c", "c"]]
    for labels in cases:
        assert class_entropy(labels) == pytest.approx(oracle_entropy(labels))
    assert class_entropy([]) == 0.0


def test_split_gain_formula():
    labels = ["a"] * 4 + ["b"] * 4
    assert split_gain(labels, ["a"] * 4, ["b"] * 4) == pytest.approx(1.0)
    assert split_gain(labels, ["a", "a", "b", "b"],
                      ["a", "a", "b", "b"]) == pytest.approx(0.0)


def test_best_split_matches_oracle_on_random_data():
    rng = random.Random(23)
    for trial in range(30):
        n = rng.randrange(10, 60)
        nf = rng.randrange(1, 4)
        rows = [(tuple(rng.choice((0.0, 1.0, 2.0, rng.random()))
                       for _ in range(nf)),
                 rng.choice("ab")) for _ in range(n)]
        min_leaf = rng.choice((1, 2, 5))
        found = best_split(rows, min_leaf)
        oracle = oracle_best_gain(rows, min_leaf)
        if found is None:
            assert oracle == pytest.approx(0.0, abs=1e-12)
        else:
            f, thr, gain = found
            assert gain == pytest.approx(oracle, abs=1e-9)
            left = [y for x, y in rows if x[f] < thr]
            right = [y for x, y in rows if x[f] >= thr]
            assert len(left) >= min_leaf and len(right) >= min_leaf


def test_best_split_tie_breaks_to_lowest_feature():
    rows = [((0.0, 0.0), "a")] * 6 + [((1.0, 1.0), "b")] * 6
    f, thr, gain = best_split(rows, 1)
    assert (f, thr) == (0, 0.5)
    assert gain == pytest.approx(1.0)


def test_best_split_requires_strict_improvement():
    rows = [((0.0,), "a"), ((1.0,), "a"), ((0.0,), "b"), ((1.0,), "b")]
    assert best_split(rows, 1) is None  # no split beats zero gain


def exhaustive_best_split(rows, min_leaf):
    """best_split by brute force: for every candidate threshold both sides
    are rebuilt with `x < threshold` and their entropies recounted, with
    the arithmetic of split_gain, so its results are exact references.
    The threshold rule is best_split's: between values a < b, the
    midpoint if it lies in (a, b], else b."""
    labels = [y for _, y in rows]
    n = len(rows)
    best = None
    best_gain = 0.0
    for f in range(len(rows[0][0])):
        ordered = sorted(rows, key=lambda r: r[0][f])
        values = [r[0][f] for r in ordered]
        for i in range(1, n):
            if values[i] == values[i - 1]:
                continue
            if i < min_leaf or n - i < min_leaf:
                continue
            threshold = (values[i - 1] + values[i]) / 2.0
            if not values[i - 1] < threshold <= values[i]:
                threshold = values[i]
            left = [y for x, y in ordered if x[f] < threshold]
            right = [y for x, y in ordered if x[f] >= threshold]
            gain = oracle_entropy(labels) - (
                len(left) / n * oracle_entropy(left)
                + len(right) / n * oracle_entropy(right))
            if gain > best_gain:
                best_gain = gain
                best = (f, threshold, gain)
    return best


# Adjacent floats whose midpoint rounds onto the lower one, so that
# `x < threshold` puts fewer rows on the left than the sorted position says.
ROUNDING_PAIRS = [(a, math.nextafter(a, math.inf))
                  for a in (1.0, 4.0, 0.5, 1e16, 3.0)]


def random_split_rows(rng):
    n = rng.randrange(2, 70)
    nf = rng.randrange(1, 4)
    classes = "abcd"[:rng.choice((3, 4))]
    a, b = rng.choice(ROUNDING_PAIRS)
    palette = [0.0, 1.0, 2.0, a, b, rng.random()]
    if rng.random() < 0.2:
        palette = [rng.random() for _ in range(n)]   # few repeated values
    return [(tuple(rng.choice(palette) for _ in range(nf)),
             rng.choice(classes)) for _ in range(n)]


def test_best_split_equals_exhaustive_search_exactly():
    assert all((a + b) / 2 == a for a, b in ROUNDING_PAIRS)
    rng = random.Random(15)
    for trial in range(400):
        rows = random_split_rows(rng)
        min_leaf = rng.choice((1, 2, 5))
        found = best_split(rows, min_leaf)
        assert found == exhaustive_best_split(rows, min_leaf), (trial, rows)
    # The midpoint of a and b rounds onto a, so the threshold is b, and
    # `x < b` keeps both rows up to a on the left, as min_leaf asks.
    a, b = ROUNDING_PAIRS[0]
    rows = [((0.0,), "c"), ((a,), "c"), ((b,), "a"), ((b,), "b"),
            ((b,), "a"), ((b,), "d")]
    found = best_split(rows, 2)
    assert found[1] == b
    assert sum(x[0] < b for x, _ in rows) == 2          # a 2/4 split
    assert found == exhaustive_best_split(rows, 2)


def test_best_split_equals_exhaustive_search_on_separated_classes():
    # classes drawn around spread-out means sort into long one-class runs,
    # where best_split skips every cut that is not a boundary
    rng = random.Random(24)
    for trial in range(60):
        n = rng.randrange(20, 150)
        classes = "abcdefgh"[:rng.randrange(2, 9)]
        spread = rng.choice((0.5, 2.0, 5.0))
        digits = rng.choice((1, 6))          # 1 repeats values, 6 rarely
        rows = []
        for _ in range(n):
            k = rng.randrange(len(classes))
            rows.append(((round(rng.gauss(k * spread, 1.0), digits),
                          round(rng.gauss(-k * spread, 1.0), digits)),
                         classes[k]))
        min_leaf = rng.choice((1, 5, 20))
        found = best_split(rows, min_leaf)
        assert found == exhaustive_best_split(rows, min_leaf), (trial, rows)


@pytest.mark.parametrize("a_below, threshold", [(6, 7.5), (14, 11.5)])
def test_best_split_scores_the_ends_of_the_min_leaf_window(a_below,
                                                           threshold):
    # the only class boundary lies outside the cuts min_leaf admits, so the
    # best admissible cut is the end of the window nearest to it
    rows = [((float(x),), "a" if x < a_below else "b") for x in range(20)]
    found = best_split(rows, 8)
    assert found[:2] == (0, threshold)
    assert found == exhaustive_best_split(rows, 8)


def test_training_with_exhaustive_search_writes_the_same_model(
        tmp_path, monkeypatch):
    # four overlapping classes; coarse rounding repeats values
    rng = random.Random(2)
    means = {"cam": (0.0, 1.0, 5.0), "hub": (0.5, 1.5, 4.0),
             "plug": (1.0, 0.5, 4.5), "tv": (0.2, 0.8, 5.5)}
    rows = [Row(tuple(round(rng.gauss(m, 0.6), 1) for m in means[c])
                + (rng.choice(ROUNDING_PAIRS[0]),), c)
            for c in means for _ in range(75)]
    for params in (TrainParams(), TrainParams(max_depth=6, min_leaf=1)):
        save_model(train_model(rows, params), str(tmp_path / "sweep.prof"))
        with monkeypatch.context() as m:
            m.setattr(tree, "best_split", exhaustive_best_split)
            save_model(train_model(rows, params),
                       str(tmp_path / "exhaustive.prof"))
        sweep = (tmp_path / "sweep.prof").read_text()
        assert sweep == (tmp_path / "exhaustive.prof").read_text()
        assert sweep.count("\nN ") >= 10


XOR = ([Row((0.0, 0.0), "alpha")] * 50 + [Row((1.0, 1.0), "alpha")] * 10
       + [Row((0.0, 1.0), "beta")] * 10 + [Row((1.0, 0.0), "beta")] * 50)


def test_xor_lattice_builds_textbook_tree():
    model = train_model(XOR, TrainParams(max_depth=12, min_leaf=5))
    root = model.tree
    assert isinstance(root, Node)
    assert (root.feature, root.threshold) == (0, 0.5)
    # skewed counts give the first axis a real gain: split 60/60 with
    # 50:10 majorities on each side
    expected = oracle_entropy(["a"] * 60 + ["b"] * 60) - oracle_entropy(
        ["a"] * 50 + ["b"] * 10)
    assert root.gain == pytest.approx(expected, abs=1e-12)
    for child in (root.left, root.right):
        assert isinstance(child, Node)
        assert (child.feature, child.threshold) == (1, 0.5)
        assert isinstance(child.left, Leaf) and isinstance(child.right, Leaf)
    assert all(predict_class(model, r) == r.label for r in XOR)


def test_single_class_training_warns_and_yields_one_leaf():
    rows = [Row((float(i), 0.0), "only") for i in range(20)]
    with pytest.warns(UserWarning):
        model = train_model(rows)
    assert isinstance(model.tree, Leaf)
    assert model.tree.dist == {"only": 1.0}
    assert model.classes == ("only",)


def test_unlabeled_instance_rejected():
    with pytest.raises(AnalysisError):
        train_model([Row((0.0,), "a"), Row((1.0,), None)])
    with pytest.raises(AnalysisError):
        train_model([])


def test_non_finite_feature_rejected():
    rng = random.Random(16)
    for bad in (math.nan, math.inf, -math.inf):
        rows = [Row((rng.choice((0.0, 1.0, 2.0, bad)),), rng.choice("abc"))
                for _ in range(29)] + [Row((bad,), "a")]
        with pytest.raises(AnalysisError, match="non-finite"):
            train_model(rows, TrainParams(min_leaf=1))


def test_min_leaf_holds_where_a_midpoint_rounds_onto_its_lower_value():
    a, b = ROUNDING_PAIRS[0]
    rows = [Row((0.0,), "c"), Row((a,), "c")] + [
        Row((b,), y) for y in "abad"]
    model = train_model(rows, TrainParams(max_depth=3, min_leaf=2))
    assert isinstance(model.tree, Node)
    for node in model.nodes():
        if isinstance(node, Node):
            assert node.left.size >= 2 and node.right.size >= 2


def test_min_leaf_respected_everywhere():
    rng = random.Random(5)
    rows = [Row((rng.random(), rng.random()), rng.choice("ab"))
            for _ in range(80)]
    model = train_model(rows, TrainParams(max_depth=12, min_leaf=7))
    for node in model.nodes():
        if isinstance(node, Node):
            assert node.left.size >= 7 and node.right.size >= 7


def test_max_depth_respected():
    rng = random.Random(6)
    rows = [Row((rng.random(),), rng.choice("ab")) for _ in range(200)]
    model = train_model(rows, TrainParams(max_depth=2, min_leaf=1))

    def depth(node):
        if isinstance(node, Leaf):
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(model.tree) <= 2


def test_leaf_distributions_sum_to_one():
    rng = random.Random(7)
    rows = [Row((rng.random(), rng.random()), rng.choice("abc"))
            for _ in range(150)]
    model = train_model(rows)
    for node in model.nodes():
        if isinstance(node, Leaf):
            assert sum(node.dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_classify_checks_dimensions():
    model = train_model([Row((0.0, 0.0), "a"), Row((1.0, 1.0), "b")] * 5,
                        TrainParams(min_leaf=1))
    with pytest.raises(AnalysisError):
        classify_sequence(model, Row((1.0,)))


def test_threshold_routing_sends_equal_right():
    rows = [Row((0.0,), "a")] * 5 + [Row((1.0,), "b")] * 5
    model = train_model(rows, TrainParams(min_leaf=1))
    assert isinstance(model.tree, Node)
    thr = model.tree.threshold
    assert classify_sequence(model, Row((thr,))) == \
        classify_sequence(model, Row((1.0,)))


def test_predict_tie_breaks_on_class_order():
    model = StatModel(Leaf({"a": 0.5, "b": 0.5}, 2), ("a", "b"), 1)
    assert predict_class(model, Row((0.0,))) == "a"


def test_model_save_load_round_trip(tmp_path):
    rng = random.Random(9)
    rows = [Row((rng.random(), rng.random(), rng.random()),
                rng.choice("abc")) for _ in range(120)]
    model = train_model(rows, TrainParams(max_depth=6, min_leaf=4))
    path = str(tmp_path / "m.model")
    save_model(model, path)
    again = load_model(path)
    assert again.classes == model.classes
    assert again.n_features == model.n_features
    assert again.params == model.params
    assert again.training_counts == model.training_counts
    for r in rows:
        assert classify_sequence(again, r) == classify_sequence(model, r)
    # the structure survives byte-exactly through a second cycle
    path2 = str(tmp_path / "m2.model")
    save_model(again, path2)
    with open(path) as fh, open(path2) as fh2:
        assert fh.read() == fh2.read()


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk"
    path.write_text("not a model\n")
    with pytest.raises(AnalysisError):
        load_model(str(path))


# sha256 of the model trained on PINNED_CLASSES.  With the stddev and the
# entropy sums rounded as each interpreter's statistics.pstdev and sum()
# round them, this corpus gives a different file on each of CPython 3.10,
# 3.11 and 3.12; the CI matrix checks that it is one file on every version.
PINNED_MODEL = (
    "2548b963b197eb583468cd90c2db29a77107081c"
    "7b5a068ad091905530580246")
# device, size mean, gap ms, spread: three classes differ only in spread
PINNED_CLASSES = (("cam", 400, 100, 0.05), ("hub", 400, 100, 0.2),
                  ("plug", 400, 100, 0.4), ("tv", 300, 150, 0.1),
                  ("mote", 300, 150, 0.3))


def test_trained_model_file_is_pinned(tmp_path):
    rng = random.Random(3)
    train = [inst for device, size_mean, gap_ms, spread in PINNED_CLASSES
             for inst in extract_features(synth_capture(
                 rng, device, size_mean, gap_ms, 64, 40, spread=spread),
                 label=device)]
    path = tmp_path / "pinned.prof"
    save_model(train_model(train), str(path))
    assert path.read_text().count("\nN ") == 10
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL


# -- device profiles --------------------------------------------------------


def synth_capture(rng, device, size_mean, gap_ms, ttl, sessions, t0=0.0,
                  peer="cloud", spread=0.05):
    records = []
    seq = rng.randrange(10 ** 6)
    t = t0
    for s in range(sessions):
        sport = 1000 + s
        ts = t
        for _ in range(rng.randrange(6, 12)):
            seq += 1
            size = max(40, int(rng.gauss(size_mean, size_mean * spread)))
            records.append(rec(seq, ts, src=device, sport=sport, dst=peer,
                               dport=8883, size=size, ttl=ttl))
            ts += rng.gauss(gap_ms, gap_ms * spread) / 1000.0
        t += SESSION_GAP_S + gap_ms / 1000.0 + 60.0
    return records


@pytest.fixture
def two_class_model():
    rng = random.Random(31)
    cam = synth_capture(rng, "cam", 900, 40, 64, 40)
    mote = synth_capture(rng, "mote", 120, 400, 32, 40)
    train = extract_features(cam, label="cam") + \
        extract_features(mote, label="mote")
    return train_model(train, TrainParams())


def test_profile_device_distribution(two_class_model):
    rng = random.Random(77)
    capture = synth_capture(rng, "cam", 900, 40, 64, 12)
    profile = profile_device(two_class_model, capture, "cam")
    assert profile.device_id == "cam"
    assert profile.n_sequences == 12
    assert sum(profile.per_class.values()) == pytest.approx(1.0, abs=1e-9)
    assert profile.top_class == "cam"
    assert profile.per_class[profile.top_class] == profile.top_confidence
    assert profile.top_confidence == max(profile.per_class.values())


def test_profile_device_filters_by_id(two_class_model):
    rng = random.Random(78)
    capture = synth_capture(rng, "cam", 900, 40, 64, 6) + \
        synth_capture(rng, "mote", 120, 400, 32, 6)
    cam = profile_device(two_class_model, capture, "cam")
    mote = profile_device(two_class_model, capture, "mote")
    assert cam.top_class == "cam" and mote.top_class == "mote"
    assert cam.n_sequences == 6


def test_profile_device_without_id_uses_whole_capture(two_class_model):
    rng = random.Random(79)
    capture = synth_capture(rng, "cam", 900, 40, 64, 5)
    profile = profile_device(two_class_model, capture)
    assert profile.device_id == "capture"
    assert profile.n_sequences == 5


def test_profile_empty_capture_is_indeterminate(two_class_model):
    with pytest.raises(AnalysisError, match="INDETERMINATE"):
        profile_device(two_class_model, [], "ghost")


def test_confusion_matrix_and_accuracy(two_class_model):
    rng = random.Random(80)
    held = extract_features(synth_capture(rng, "c2", 900, 40, 64, 15),
                            label="cam")
    held += extract_features(synth_capture(rng, "m2", 120, 400, 32, 15),
                             label="mote")
    matrix = confusion_matrix(two_class_model, held)
    total = sum(sum(row.values()) for row in matrix.values())
    assert total == len(held)
    assert matrix_accuracy(matrix) >= 0.9
    with pytest.raises(AnalysisError):
        confusion_matrix(two_class_model,
                         [dataclasses.replace(held[0], label="fridge")])


def test_render_profile_outputs(two_class_model):
    rng = random.Random(81)
    capture = synth_capture(rng, "cam", 900, 40, 64, 4)
    profile = profile_device(two_class_model, capture, "cam")
    table = render_profile_table(profile)
    assert "Tested device: cam (4 sequences)" in table
    assert "profiled as: cam" in table
    record = render_profile_record(profile)
    assert "device=cam\n" in record
    assert "top=cam\n" in record
    ranked = [ln for ln in table.splitlines()
              if "%" in ln and "profiled as" not in ln]
    shares = [float(ln.split()[-1].rstrip("%")) for ln in ranked]
    assert shares == sorted(shares, reverse=True)


def test_render_confusion_grid(two_class_model):
    matrix = {"cam": {"cam": 3, "mote": 1}, "mote": {"cam": 0, "mote": 4}}
    text = render_confusion(matrix)
    assert "accuracy: 0.8750" in text
