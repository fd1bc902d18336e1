"""One closure_k3 pass: the full Lefschetz closure of a K3 model.

    PYTHONPATH=src python3 perfbench/closure.py specs/k3_b22.json

Builds the model, completes one sl2 triple per class of a Lefschetz
spanning set of H^2 (graded by degree), closes the operators under the
bracket, and prints one JSON line with the closure dimension and whether
L_beta lies in it.
"""

import json
import sys

from phl.lie import degree_grading, lefschetz_spanning_set, lie_closure, membership, sl2_complete
from phl.models import ModelSpec, build_model


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        model = build_model(ModelSpec.from_json_dict(json.load(fh)))
    h0 = degree_grading(model)
    ops = []
    for x in lefschetz_spanning_set(model):
        lx = model.lefschetz_matrix(x)
        ops.append(lx)
        ops.append(sl2_complete(lx, h0))
    ops.append(h0.matrix())
    algebra = lie_closure(ops)
    l_beta = model.lefschetz_matrix(model.classes.beta)
    doc = {"b2": model.quad.b2, "closure_dim": algebra.dim, "contains_l_beta": membership(algebra, l_beta)}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
