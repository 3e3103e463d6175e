"""Fixed-seed synthetic corpora for desk-scale experiments and tests.

Each document gets a set of entities with concrete integer intervals drawn so
that no two intervals strictly overlap (every pairwise relation is then
expressible as a TimeML label, and the induced reference graph is globally
consistent).  Classifier runs are noisy copies of the reference: labels are
flipped, links dropped, and spurious links added, per-classifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

from .errors import ConfigurationError
from .relations import NON_NONE, invert, relation_from_intervals
from .timeml import EntityKind, EntityRef, TLink, write_timeml


@dataclass(frozen=True)
class SyntheticClassifier:
    name: str
    flip_rate: float = 0.2
    drop_rate: float = 0.0
    extra_rate: float = 0.0

    @property
    def default_weight(self) -> float:
        return max(0.05, round(1.0 - self.flip_rate, 4))


def _draw_intervals(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """n intervals, every pair of which relation_from_intervals names."""
    intervals: List[Tuple[int, int]] = []
    while len(intervals) < n:
        start = rng.randrange(40)
        cand = (start, start + rng.randrange(1, 9))
        if any(relation_from_intervals(cand, other) is None for other in intervals):
            continue
        intervals.append(cand)
    return intervals


def _entities(document: str, n_events: int, n_timexes: int) -> List[EntityRef]:
    out = [EntityRef(EntityKind.DCT, "t0", document)]
    out += [EntityRef(EntityKind.TIMEX, f"t{i}", document) for i in range(1, n_timexes)]
    out += [EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i}", document)
            for i in range(1, n_events + 1)]
    return out


def reference_links(rng: random.Random, entities: Sequence[EntityRef],
                    arc_density: float) -> List[TLink]:
    """Consistent-by-construction links sampled from one interval model."""
    intervals = _draw_intervals(rng, len(entities))
    links = []
    for i in range(len(entities)):
        for j in range(i + 1, len(entities)):
            if rng.random() >= arc_density:
                continue
            rel = relation_from_intervals(intervals[i], intervals[j])
            if rng.random() < 0.5:  # exercise canonicalization on read-back
                links.append(TLink(entities[j], entities[i], invert(rel)))
            else:
                links.append(TLink(entities[i], entities[j], rel))
    return links


def perturb_links(rng: random.Random, entities: Sequence[EntityRef],
                  reference: Sequence[TLink], spec: SyntheticClassifier) -> List[TLink]:
    links = []
    covered = set()
    for link in reference:
        covered.add(frozenset((link.source, link.target)))
        if rng.random() < spec.drop_rate:
            continue
        rel = link.rel
        if rng.random() < spec.flip_rate:
            rel = rng.choice([r for r in NON_NONE if r is not link.rel])
        links.append(TLink(link.source, link.target, rel))
    if spec.extra_rate > 0:
        for i in range(len(entities)):
            for j in range(i + 1, len(entities)):
                pair = frozenset((entities[i], entities[j]))
                if pair in covered or rng.random() >= spec.extra_rate:
                    continue
                links.append(TLink(entities[i], entities[j], rng.choice(NON_NONE)))
    return links


def generate_corpus(root: Path, *, seed: int, n_docs: int,
                    classifiers: Sequence[SyntheticClassifier],
                    n_events: Tuple[int, int] = (4, 8),
                    arc_density: float = 0.6) -> List[str]:
    """Write a reference/runs/weights corpus layout; returns the doc ids."""
    if n_docs < 1:
        raise ConfigurationError(f"document count {n_docs} is less than 1")
    names = [spec.name for spec in classifiers]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"repeated classifier name(s): {', '.join(repeated)}")
    for what, value in [(f"flip rate of {spec.name!r}", spec.flip_rate)
                        for spec in classifiers] + [("arc density", arc_density)]:
        if not 0 <= value <= 1:  # also rejects NaN
            raise ConfigurationError(f"{what} {value} is not in [0, 1]")
    root = Path(root)
    ref_dir = root / "reference"
    ref_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    doc_ids = [f"synth_{d:03d}" for d in range(n_docs)]

    for doc in doc_ids:
        entities = _entities(doc, rng.randint(*n_events), rng.randint(1, 3))
        reference = reference_links(rng, entities, arc_density)
        write_timeml(entities, reference, ref_dir / f"{doc}.tml")
        for spec in classifiers:
            run_dir = root / "runs" / spec.name
            run_dir.mkdir(parents=True, exist_ok=True)
            links = perturb_links(rng, entities, reference, spec)
            write_timeml(entities, links, run_dir / f"{doc}.tml")

    with open(root / "weights.txt", "w", encoding="utf-8") as fh:
        fh.write("# synthetic classifier weights\n")
        for spec in classifiers:
            fh.write(f"{spec.name} {spec.default_weight}\n")
    return doc_ids
