"""The sign-mixture term walk, pinned bit for bit.

For each sign-mixture instance of the `hard_instances` benchmark workload,
a SHA-256 digest covers the hex `active_terms` triples and the hex `mean`
at a 4,097-point grid, at every term center and just inside and outside
every term ball.  The digests were recorded before the three instance kinds
shared one walk.
"""

import hashlib

import pytest

import banditlab.instances as inst

_INTERVAL = {"kind": "interval", "resolution": 2.0 ** -20,
             "scan_resolution": 2.0 ** -10}

_DESCRIPTORS = {
    "lineage": {"kind": "lineage",
                "space": dict(_INTERVAL, resolution=2.0 ** -40),
                "tree_depth": 6, "gamma": 0.3, "depth_cap": 6, "seed": 0,
                "lineage": "seeded"},
    "noncompact": {"kind": "noncompact", "space": _INTERVAL,
                   "centers": [0.1, 0.3, 0.5, 0.7, 0.9], "r": 0.05,
                   "sizes": [2, 3], "t_schedule": None, "seed": 0,
                   "guarantee_breaking": True},
    "maxminlcd": {"kind": "maxminlcd", "space": _INTERVAL, "b": 0.5,
                  "depth_cap": 3, "seed": 0, "n_list": [3, 3, 3],
                  "guarantee_breaking": True},
}

_DIGESTS = {
    "lineage": "d15da9a3c450dc1ec8f6e2313508f9a71e851ab916df6bac2e1c02b5b22d3c7b",
    "noncompact": "d3c50c8053201960193317b3d404cba327cc48a5278e9444923059bca53781c7",
    "maxminlcd": "942feda12d2f15e62a67f5aacc5f180a095984e40d79436f321bf5d672ee5844",
}


def _balls(instance):
    """(center, radius) of every term ball, read from what each instance
    is built from (tree, wedge centers, bump-ball forest), not from
    `active_terms`."""
    if instance.kind == "lineage":
        return [(node.center, node.radius)
                for node, depth in instance.tree.nodes()
                if 1 <= depth <= instance.depth_cap]
    if instance.kind == "noncompact":
        return [(c, instance.r) for c in instance.centers]
    balls, out = list(instance.roots), []
    while balls:
        ball = balls.pop()
        out.append((ball.center, ball.radius))
        balls.extend(ball.children)
    return out


def _points(instance):
    points = [i / 4096 for i in range(4097)]
    for center, radius in _balls(instance):
        points.append(center)
        for scale in (1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40):
            points += [center - radius * scale, center + radius * scale]
    return sorted(set(points))


def walk_digest(instance):
    h = hashlib.sha256()
    for x in _points(instance):
        terms = ";".join(f"{key!r},{value.hex()},{bias.hex()}"
                         for key, value, bias in instance.active_terms(x))
        h.update(f"{x.hex()} {instance.mean(x).hex()} {terms}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(_DESCRIPTORS))
def test_term_walk_pinned(kind):
    instance = inst.instance_from_descriptor(_DESCRIPTORS[kind])
    assert walk_digest(instance) == _DIGESTS[kind]
