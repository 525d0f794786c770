"""Native decision tree over session summary vectors.

Splits are binary and axis-aligned, chosen by information gain (entropy in
bits) with candidate thresholds at midpoints between consecutive distinct
feature values.  A value >= threshold routes right.  A split is admissible
only if both children keep at least min_leaf instances.  Ties between
equal-gain splits resolve to the lowest feature index, then the lowest
threshold.  Trained models are immutable; classification is pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import log2

from ..errors import AnalysisError
from ..records import Source

MODEL_HEADER = "iotbed-profile-model v1"


@dataclass(frozen=True)
class TrainParams:
    max_depth: int = 12
    min_leaf: int = 5


@dataclass(frozen=True)
class Leaf:
    dist: dict[str, float]     # device_type -> probability, sums to 1
    size: int

    def __post_init__(self):
        total = sum(self.dist.values())
        if abs(total - 1.0) > 1e-9:
            raise AnalysisError(f"leaf distribution sums to {total}, not 1")


@dataclass(frozen=True)
class Node:
    feature: int
    threshold: float
    gain: float
    size: int
    left: "Node | Leaf"
    right: "Node | Leaf"


@dataclass(frozen=True)
class StatModel:
    tree: Node | Leaf
    classes: tuple[str, ...]
    n_features: int
    params: TrainParams = field(default_factory=TrainParams)
    training_counts: dict[str, int] = field(default_factory=dict)

    def nodes(self):
        """Yield every node and leaf, preorder."""
        stack = [self.tree]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Node):
                stack.append(node.right)
                stack.append(node.left)


def class_entropy(labels) -> float:
    n = len(labels)
    if n == 0:
        return 0.0
    counts: dict[str, int] = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    return -sum((c / n) * log2(c / n) for c in counts.values())


def split_gain(labels, left_labels, right_labels) -> float:
    n = len(labels)
    weighted = (len(left_labels) / n * class_entropy(left_labels)
                + len(right_labels) / n * class_entropy(right_labels))
    return class_entropy(labels) - weighted


def best_split(rows: list[tuple[tuple[float, ...], str]],
               min_leaf: int) -> tuple[int, float, float] | None:
    """Return (feature, threshold, gain) of the best admissible split.

    Iterating features then thresholds in ascending order with a strict
    improvement test gives the lowest-feature, lowest-threshold tie-break
    for free.
    """
    labels = [y for _, y in rows]
    best = None
    best_gain = 0.0
    n_features = len(rows[0][0])
    for f in range(n_features):
        ordered = sorted(rows, key=lambda r: r[0][f])
        values = [r[0][f] for r in ordered]
        for i in range(1, len(ordered)):
            if values[i] == values[i - 1]:
                continue
            if i < min_leaf or len(ordered) - i < min_leaf:
                continue
            threshold = (values[i - 1] + values[i]) / 2.0
            left = [y for (x, y) in ordered if x[f] < threshold]
            right = [y for (x, y) in ordered if x[f] >= threshold]
            gain = split_gain(labels, left, right)
            if gain > best_gain:
                best_gain = gain
                best = (f, threshold, gain)
    return best


def _leaf(rows, classes) -> Leaf:
    counts = {c: 0 for c in classes}
    for _, y in rows:
        counts[y] += 1
    n = len(rows)
    return Leaf({c: counts[c] / n for c in classes}, n)


def train_model(instances, params: TrainParams | None = None) -> StatModel:
    """Build a tree from labeled instances.

    A single-class input produces a trivial one-leaf model and a warning
    rather than an error.
    """
    params = params or TrainParams()
    if not instances:
        raise AnalysisError("cannot train on zero instances")
    for inst in instances:
        if inst.label is None:
            raise AnalysisError("unlabeled instance in training set")
    n_features = len(instances[0].summary)
    rows = [(tuple(float(v) for v in inst.summary), inst.label)
            for inst in instances]
    classes = tuple(sorted({y for _, y in rows}))
    if len(classes) == 1:
        warnings.warn(f"training set has a single class {classes[0]!r}; "
                      "model is a trivial one-leaf predictor")
    counts = {c: sum(1 for _, y in rows if y == c) for c in classes}

    def build(subset, depth):
        labels = {y for _, y in subset}
        if (len(labels) == 1 or depth >= params.max_depth
                or len(subset) < 2 * params.min_leaf):
            return _leaf(subset, classes)
        found = best_split(subset, params.min_leaf)
        if found is None:
            return _leaf(subset, classes)
        f, threshold, gain = found
        left = [r for r in subset if r[0][f] < threshold]
        right = [r for r in subset if r[0][f] >= threshold]
        return Node(f, threshold, gain, len(subset),
                    build(left, depth + 1), build(right, depth + 1))

    return StatModel(build(rows, 0), classes, n_features, params, counts)


def classify_sequence(model: StatModel, inst) -> dict[str, float]:
    """Route an instance's summary to a leaf and return its distribution."""
    summary = tuple(float(v) for v in inst.summary)
    if len(summary) != model.n_features:
        raise AnalysisError(
            f"summary has {len(summary)} features, model expects "
            f"{model.n_features}")
    node = model.tree
    while isinstance(node, Node):
        node = node.right if summary[node.feature] >= node.threshold else \
            node.left
    return dict(node.dist)


def predict_class(model: StatModel, inst) -> str:
    """Argmax of classify_sequence; ties break on model class order."""
    dist = classify_sequence(model, inst)
    best = max(dist.values())
    for cls in model.classes:
        if dist[cls] == best:
            return cls
    raise AnalysisError("empty distribution")   # unreachable


# ---------------------------------------------------------------------------
# persistence: structured text, versioned header
# ---------------------------------------------------------------------------

def _write_node(node, lines):
    if isinstance(node, Leaf):
        dist = ",".join(f"{c}:{p!r}" for c, p in node.dist.items())
        lines.append(f"L {node.size} {dist}")
    else:
        lines.append(f"N {node.feature} {node.threshold!r} "
                     f"{node.gain!r} {node.size}")
        _write_node(node.left, lines)
        _write_node(node.right, lines)


def save_model(model: StatModel, path: str) -> None:
    lines = [MODEL_HEADER,
             "classes: " + ",".join(model.classes),
             f"features: {model.n_features}",
             f"params: max_depth={model.params.max_depth} "
             f"min_leaf={model.params.min_leaf}",
             "counts: " + ",".join(f"{c}:{n}" for c, n in
                                   sorted(model.training_counts.items())),
             "tree:"]
    _write_node(model.tree, lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _header(lines, key: str) -> str:
    name, _, value = next(lines, "").partition(":")
    if name != key:
        raise ValueError(f"expected the {key}: line")
    return value.strip()


def _read_node(lines, classes: tuple[str, ...], n_features: int):
    line = next(lines, None)
    if line is None:
        raise ValueError("tree ends early")
    kind, _, rest = line.partition(" ")
    if kind == "L":
        size_text, _, dist_text = rest.partition(" ")
        dist = {}
        for part in dist_text.split(","):
            cls, _, prob = part.rpartition(":")
            dist[cls] = float(prob)
        if sorted(dist) != sorted(classes):
            raise ValueError(f"leaf classes {sorted(dist)} are not the "
                             f"model's classes {sorted(classes)}")
        return Leaf(dist, int(size_text))
    if kind == "N":
        feature, threshold, gain, size = rest.split()
        if not 0 <= int(feature) < n_features:
            raise ValueError(f"feature {feature} outside 0..{n_features - 1}")
        left = _read_node(lines, classes, n_features)
        right = _read_node(lines, classes, n_features)
        return Node(int(feature), float(threshold), float(gain),
                    int(size), left, right)
    raise ValueError(f"bad model line: {line!r}")


def load_model(path: str) -> StatModel:
    """A model save_model wrote; AnalysisError with path:line if malformed."""
    source = Source(path)
    lines = (text.rstrip("\n") for text in source)
    with source.parsing():
        if next(lines, None) != MODEL_HEADER:
            raise ValueError("not a profile model file")
        classes = tuple(_header(lines, "classes").split(","))
        n_features = int(_header(lines, "features"))
        kv = dict(part.split("=") for part in _header(lines, "params").split())
        params = TrainParams(int(kv["max_depth"]), int(kv["min_leaf"]))
        counts = {}
        for part in filter(None, _header(lines, "counts").split(",")):
            cls, _, n = part.rpartition(":")
            counts[cls] = int(n)
        if next(lines, None) != "tree:":
            raise ValueError("expected the tree: line")
        tree = _read_node(lines, classes, n_features)
        if next(lines, None) is not None:
            raise ValueError("more lines after the tree")
    return StatModel(tree, classes, n_features, params, counts)
