"""Native decision tree over session summary vectors.

Splits are binary and axis-aligned, chosen by information gain (entropy in
bits) over finite feature values.  The threshold between consecutive
distinct values a < b is their midpoint if it lies in (a, b], else b (two
adjacent floats round their midpoint onto a), so `x < threshold` holds
for exactly the values up to a; a value >= threshold routes right.  A
split is admissible only if both children keep at least min_leaf
instances.  Ties between equal-gain splits resolve to the lowest feature
index, then the lowest threshold.  Trained models are immutable;
classification is pure.

The split search is the sorted sweep of CART and C4.5 (Breiman et al. 1984;
Quinlan 1993): each feature is sorted once per node, and rows cross the
threshold one at a time, moving their class count from the right side to
the left.  Every entropy is summed with math.fsum, which rounds the exact
sum once whatever the order of its terms, so every gain equals
split_gain's on the same split bit for bit, and a model file is the same
on every CPython version.

Only boundary cuts are scored (Fayyad and Irani 1992, "On the handling of
continuous-valued attributes in decision tree generation", Machine
Learning 8).  A cut between the groups of equal values just left and just
right of it is a boundary unless both groups hold one class, the same one.
Between two scored cuts only rows of that one class cross, and along such
a run the weighted entropy of the children is strictly concave in the
number of rows crossed (unless the node holds one class, when no cut has
a gain), so a cut inside the run scores strictly below one of its ends.
The ends of a run are boundaries or the first and last cuts that min_leaf
admits, and those two are scored as well: with min_leaf = 8 over twenty
rows, six of class a then fourteen of class b, every admissible cut lies
inside the b run and the first of them is the best.  The cuts skipped can
therefore neither win nor tie (a skipped cut trails by at least about
1 / (2 n**3 ln 2) bits over n rows, 4e-10 at n = 1200, far above a gain's
rounding error), and the gains scored are computed as before, so the
split found, its gain and the model file are bit for bit those of
scoring every cut.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import fsum, isfinite, log2

from ..errors import AnalysisError
from ..records import Source, finite

MODEL_HEADER = "iotbed-profile-model v1"


@dataclass(frozen=True)
class TrainParams:
    max_depth: int = 12
    min_leaf: int = 5

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")


@dataclass(frozen=True)
class Leaf:
    dist: dict[str, float]     # device_type -> probability, sums to 1
    size: int

    def __post_init__(self):
        total = sum(self.dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"leaf distribution sums to {total}, not 1")


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
    return -fsum((c / n) * log2(c / n) for c in counts.values())


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
    for free.  Only boundary cuts and the two ends of the min_leaf window
    are scored; the module docstring says why no other cut can win.
    """
    labels = [y for _, y in rows]
    n = len(labels)
    base = class_entropy(labels)
    totals: dict[str, int] = {}
    for y in labels:
        totals[y] = totals.get(y, 0) + 1
    best = None
    best_gain = 0.0
    n_features = len(rows[0][0])
    for f in range(n_features):
        column = [x[f] for x, _ in rows]
        order = sorted(range(n), key=column.__getitem__)
        values = [column[j] for j in order]
        ys = [labels[j] for j in order]
        # cuts[k] is the sorted position where the value rises for the k-th
        # time; pure[k] is the class of the group of equal values that ends
        # at cuts[k] (the last group ends at n), None if it mixes classes
        cuts = []
        pure = [ys[0]]
        for i in range(1, n):
            if values[i] != values[i - 1]:
                cuts.append(i)
                pure.append(ys[i])
            elif ys[i] != pure[-1]:
                pure[-1] = None
        first = bisect_left(cuts, min_leaf)
        last = bisect_right(cuts, n - min_leaf) - 1
        left: dict[str, int] = {}
        right = dict(totals)
        moved = 0
        for k in range(first, last + 1):
            if (first < k < last and pure[k] is not None
                    and pure[k] == pure[k + 1]):
                continue
            i = cuts[k]
            for y in ys[moved:i]:
                left[y] = left.get(y, 0) + 1
                right[y] -= 1
            moved = i
            threshold = (values[i - 1] + values[i]) / 2.0
            if not values[i - 1] < threshold <= values[i]:
                threshold = values[i]
            # rows [0, i) are left of the threshold, rows [i, n) right
            nr = n - i
            h_left = -fsum([(c / i) * log2(c / i) for c in left.values()])
            h_right = -fsum([(c / nr) * log2(c / nr)
                             for c in right.values() if c])
            gain = base - (i / n * h_left + nr / n * h_right)
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
    if not all(isfinite(v) for x, _ in rows for v in x):
        raise AnalysisError("non-finite feature value in training set")
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
        left, right = [], []
        for r in subset:
            if r[0][f] < threshold:
                left.append(r)
            else:
                right.append(r)
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
            dist[cls] = finite(prob)
        if sorted(dist) != sorted(classes):
            raise ValueError(f"leaf classes {sorted(dist)} are not the "
                             f"model's classes {sorted(classes)}")
        return Leaf(dist, int(size_text))
    if kind == "N":
        feature, threshold, gain, size = rest.split()
        # parsed before the children are read, so an error names this line
        values = (int(feature), finite(threshold), finite(gain), int(size))
        if not 0 <= values[0] < n_features:
            raise ValueError(f"feature {feature} outside 0..{n_features - 1}")
        return Node(*values, _read_node(lines, classes, n_features),
                    _read_node(lines, classes, n_features))
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
