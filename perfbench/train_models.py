"""Train the fixed model pairs the benchmark loads, and write their digests.

The ``plan`` workload runs r = 8 models; ``perceive`` runs an r = 16 pair.
Both are trained here, once, at the shipped ``TrainerConfig`` on the 20
objects ``generate_object(0..19)`` (the dataset of the README walkthrough),
so no benchmark run pays for training and every run loads the same bytes.
Benchmark objects are drawn from seeds >= 1000, so the models never saw
them.

The r = 16 pair trains for 6000 steps instead of the shipped 2000: after
2000 steps its structure model samples sparse fragments (mean IoU 0.07 on
``perceive`` queries), after 6000 it reconstructs objects (mean IoU 0.53).

    python3 perfbench/train_models.py    # retrain all four models

Training is a pure function of (dataset, config, seed); on another BLAS
build the last bits of the parameters may differ.  Set-up checks every
model file against the manifest and names the file that moved.
"""

from __future__ import annotations

import sys

from env import pin_threads

pin_threads()

from inputs import MODEL_DIR, MODEL_SPECS, TRAIN_OBJECT_SEEDS, file_sha256, manifest_path  # noqa: E402

#: Training steps per resolution (2000 is the shipped default).
TRAIN_STEPS = {8: 2000, 16: 6000}


def train_all() -> dict:
    import json

    from voxaff.netcore import TrainerConfig, save_model, train_affordance, train_structure
    from voxaff.synthscene import generate_object

    dataset = [generate_object(seed) for seed in TRAIN_OBJECT_SEEDS]
    MODEL_DIR.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for r in sorted(MODEL_SPECS):
        cfg = TrainerConfig(resolution=r, steps=TRAIN_STEPS[r])
        for kind, trainer in (("structure", train_structure), ("affordance", train_affordance)):
            name = MODEL_SPECS[r][kind]
            result = trainer(dataset, cfg)
            save_model(MODEL_DIR / name, result.model, cfg)
            manifest[name] = {
                "sha256": file_sha256(MODEL_DIR / name),
                "resolution": r,
                "kind": kind,
                "steps": cfg.steps,
                "final_loss_mean_last100": float(result.losses[-100:].mean()),
            }
            print(f"trained {name}: {cfg.steps} steps, "
                  f"mean loss of the last 100 steps {manifest[name]['final_loss_mean_last100']:.4f}")
    with open(manifest_path(), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


if __name__ == "__main__":
    train_all()
