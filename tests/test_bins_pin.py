"""One digest over the output of every harness algorithm on a fixed seeded
set: a speedup that must leave the bins unchanged fails here if it does not.

The pin covers each packing's bins in order (each bin sorted), ``source``
and ``flags``; an algorithm unfit for an instance is recorded as its
``CapabilityError``. A change that alters an output on purpose says which
and why, and updates the pin with it.
"""

import hashlib
import json

from cbp import CapabilityError, harness, recognize
from cbp.harness import GeneratorSpec, generate

from conftest import CLASSES

BINS_PIN = "ef73f9ab40597907432f0c48250bc74d2ff2a0ed62838c391d8c266b3404fedf"


def pinned_specs() -> list[GeneratorSpec]:
    specs = [
        GeneratorSpec(klass=klass, n=n, density=0.4, seed=1000 + n)
        for klass in CLASSES
        for n in (8, 12, 16, 40)
    ]
    specs += [
        GeneratorSpec(
            klass="b3dm-reduction", x_count=4, y_count=4, z_count=4, t_count=4, guess=2, variant=variant, seed=7
        )
        for variant in ("BPB", "BPS")
    ]
    return specs


def outputs() -> list:
    out = []
    for spec in pinned_specs():
        inst = generate(spec)
        info = recognize(inst)
        for name in harness.ALGORITHMS:
            try:
                packing = harness.run_algorithm(name, inst, info)
            except CapabilityError:
                out.append([name, "CapabilityError"])
            else:
                out.append([name, [sorted(b) for b in packing.bins], packing.source, list(packing.flags)])
    return out


def test_every_algorithm_gives_the_pinned_bins():
    digest = hashlib.sha256(json.dumps(outputs()).encode()).hexdigest()
    assert digest == BINS_PIN
