"""The dataset pipeline: generation, on-disk format, CSV export.

Datasets are reproducible down to the byte: every trajectory draws from its
own counter-keyed stream, so the same seed gives the same states and the
first n trajectories of a larger pool are a smaller pool, and the
manifest/payload pair round-trips exactly.
"""
import json
import pathlib
import tempfile

import numpy as np

from cartmech import build_system, generate_dataset, load_dataset, save_dataset
from cartmech.dataset import export_trajectory_csv


def main():
    system = build_system("coupled", n=2)
    ds = generate_dataset(system, 4, steps=20, seed=7, split="test")
    print("trajectories:", len(ds), " states:", ds.states.shape)

    again = generate_dataset(system, 4, steps=20, seed=7, split="test")
    print("same seed, same states:", np.array_equal(ds.states, again.states))
    print("prefix property:", np.array_equal(ds.subset(2).states,
                                             generate_dataset(system, 2, steps=20,
                                                              seed=7, split="test").states))

    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, tmp)
        back = load_dataset(tmp)
        print("roundtrip exact:", np.array_equal(back.states, ds.states))
        manifest = json.loads((pathlib.Path(tmp) / "manifest.json").read_text())
        print("manifest:", {k: manifest[k] for k in ("system", "states_shape")})

        csv_path = pathlib.Path(tmp) / "traj0.csv"
        export_trajectory_csv(csv_path, ds.times[0], ds.states[0], system.topology.dim)
        print("csv header:", csv_path.read_text().splitlines()[0][:60], "...")


if __name__ == "__main__":
    main()
