"""The ``bubble`` operation: spherelab's public API along acceptance criterion 8.

Usage: python bubble_op.py OUT_JSON

Builds the level-8 icosphere, precomposes the equator map into S^4 with a
dilation of factor 5 about z, evaluates the Dirichlet energy and one
alpha-energy gradient, and runs concentration detection.  Writes the
energy and the detections as JSON for the benchmark's checks.
"""

import json
import sys

from spherelab import energy, flow, sphere_mesh


def main(out_path):
    mesh = sphere_mesh.build_icosphere(8)
    f = energy.dilated_equator_map(mesh, 4, 5.0, axis="z")
    dirichlet = energy.dirichlet_energy(f)
    grad = energy.alpha_energy_gradient(f, 1.05)
    detections = flow.detect_concentration(f, 1.0, 0.2)
    doc = {
        "faces": mesh.face_count,
        "energy": dirichlet,
        "gradient_norm": float(grad.norm()),
        "detections": [{"center": d["center"].tolist(),
                        "local_energy": d["local_energy"]} for d in detections],
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
