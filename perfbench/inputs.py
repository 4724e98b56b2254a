"""Fixed benchmark inputs: model files, their digests, and seeded objects.

Everything the program receives is generated here from the workload seed,
except the two trained model pairs, which are files checked against
``models/MANIFEST.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MODEL_DIR = Path(__file__).resolve().parent / "models"

#: resolution -> kind -> file name under ``models/``.
MODEL_SPECS = {
    8: {"structure": "r8_structure.model.json", "affordance": "r8_affordance.model.json"},
    16: {"structure": "r16_structure.model.json", "affordance": "r16_affordance.model.json"},
}

#: The models' training set (the README walkthrough dataset).
TRAIN_OBJECT_SEEDS = range(20)

#: Benchmark object seeds start here, so no benchmark object was trained on.
FIRST_OBJECT_SEED = 1000

#: Seed kept out of every tuning run; later claims must also hold on it.
HELD_OUT_SEED = 9001


class InputError(RuntimeError):
    """A fixed input is missing or its digest does not match the manifest."""


def manifest_path() -> Path:
    return MODEL_DIR / "MANIFEST.json"


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_manifest() -> dict:
    try:
        return json.loads(manifest_path().read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read model manifest: {exc}") from exc


def load_models(resolution: int):
    """The (structure, affordance) pair for ``resolution``, digest-checked."""
    from voxaff.netcore import model_from_dict
    from voxaff.pipeline import StageModels

    manifest = load_manifest()
    loaded = {}
    for kind, name in MODEL_SPECS[resolution].items():
        path = MODEL_DIR / name
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise InputError(f"missing model file {name}: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != manifest.get(name, {}).get("sha256"):
            raise InputError(f"model file {name} does not match its manifest digest")
        loaded[kind] = model_from_dict(json.loads(data))
    return StageModels(structure=loaded["structure"], affordance=loaded["affordance"])


def object_seeds(seed: int, count: int, stream: int) -> list[int]:
    """``count`` object seeds whose templates cycle mug, hammer, chair, lamp.

    ``generate_object`` picks the template from ``seed % 4``, so slot i gets
    template i % 4 and a seeded, otherwise random, shape.  ``stream``
    separates the object sets of different workloads.
    """
    import numpy as np

    rng = np.random.default_rng([seed, stream])
    bases = rng.integers(FIRST_OBJECT_SEED // 4, 250_000, size=count)
    return [int(4 * b + i % 4) for i, b in enumerate(bases)]
