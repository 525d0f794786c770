"""Per-device probability profiling and model evaluation."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnalysisError
from ..records import dumps
from .features import extract_features
from .tree import StatModel, classify_sequence, predict_class


@dataclass(frozen=True)
class ProfileDistribution:
    device_id: str
    per_class: dict[str, float]     # proper distribution, sums to 1
    top_class: str
    top_confidence: float
    n_sequences: int
    raw_sums: dict[str, float]      # pre-normalization weighted sums

    def __post_init__(self):
        total = sum(self.per_class.values())
        if abs(total - 1.0) > 1e-9:
            raise AnalysisError(f"profile sums to {total}, not 1")


def profile_device(model: StatModel, capture,
                   device_id: str | None = None) -> ProfileDistribution:
    """Aggregate per-sequence leaf distributions into one device profile.

    Each sequence contributes its leaf distribution weighted by that leaf's
    maximum probability (the classifier's confidence), and the weighted sum
    is renormalized into a proper distribution.  The raw weighted sums stay
    available on the result.  With a device_id, only records touching that
    device count.
    """
    records = [r for r in capture
               if device_id in (r.src_addr, r.dst_addr)] if device_id \
        else list(capture)
    shown = device_id or "capture"
    instances = extract_features(records)
    if not instances:
        raise AnalysisError(
            f"no sequences attributable to {shown}; profile is "
            "INDETERMINATE")
    raw = {c: 0.0 for c in model.classes}
    for inst in instances:
        dist = classify_sequence(model, inst)
        weight = max(dist.values())
        for cls, prob in dist.items():
            raw[cls] += weight * prob
    total = sum(raw.values())
    if total <= 0:
        raise AnalysisError("all sequences carried zero confidence")
    per_class = {c: raw[c] / total for c in model.classes}
    best = max(per_class.values())
    top = next(c for c in model.classes if per_class[c] == best)
    return ProfileDistribution(shown, per_class, top, best,
                               len(instances), raw)


def confusion_matrix(model: StatModel,
                     held_out) -> dict[str, dict[str, int]]:
    """true class -> predicted class -> count, over labeled instances."""
    if not held_out:
        raise AnalysisError("no held-out instances to evaluate")
    matrix = {t: {p: 0 for p in model.classes} for t in model.classes}
    for inst in held_out:
        if inst.label not in matrix:
            raise AnalysisError(f"label {inst.label!r} unknown to the model")
        matrix[inst.label][predict_class(model, inst)] += 1
    return matrix


def matrix_accuracy(matrix: dict[str, dict[str, int]]) -> float:
    total = sum(sum(row.values()) for row in matrix.values())
    hits = sum(matrix[c][c] for c in matrix)
    return hits / total if total else 0.0


def render_profile_table(profile: ProfileDistribution) -> str:
    """Text table of class percentages, widest-probability first."""
    width = max(len(c) for c in profile.per_class)
    lines = [f"Tested device: {profile.device_id} "
             f"({profile.n_sequences} sequences)"]
    ranked = sorted(profile.per_class.items(), key=lambda kv: -kv[1])
    for cls, prob in ranked:
        lines.append(f"  {cls:<{width}}  {prob * 100:6.2f}%")
    lines.append(f"  profiled as: {profile.top_class} "
                 f"({profile.top_confidence * 100:.2f}%)")
    return "\n".join(lines)


def profile_pairs(profile: ProfileDistribution) -> list[tuple[str, str]]:
    """The (key, value) pairs of a profile record; report.rec carries the
    same pairs, bar the device, under a profiling. prefix."""
    return ([("device", profile.device_id),
             ("sequences", str(profile.n_sequences))]
            + [(f"class.{cls}", f"{profile.per_class[cls]:.6f}")
               for cls in sorted(profile.per_class)]
            + [(f"raw.{cls}", f"{profile.raw_sums[cls]:.6f}")
               for cls in sorted(profile.raw_sums)]
            + [("top", profile.top_class),
               ("confidence", f"{profile.top_confidence:.6f}")])


def render_profile_record(profile: ProfileDistribution) -> str:
    """Machine-readable k=v twin of the text table."""
    return dumps(profile_pairs(profile))


def render_confusion(matrix: dict[str, dict[str, int]]) -> str:
    classes = list(matrix)
    width = max(8, max(len(c) for c in classes) + 2)
    head = " " * width + "".join(f"{c:>{width}}" for c in classes)
    lines = [head]
    for t in classes:
        lines.append(f"{t:>{width}}"
                     + "".join(f"{matrix[t][p]:>{width}}" for p in classes))
    lines.append(f"accuracy: {matrix_accuracy(matrix):.4f}")
    return "\n".join(lines)
