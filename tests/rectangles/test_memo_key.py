"""Soundness of the rectangle-memo key.

The memo key (:meth:`~repro.rectangles.bitview.BitKCView.signature`,
``rectsig/2``) hashes the expression digests of the row blocks a view
was compiled from.  The reference below is the per-cell structural
signature the memo was keyed by before (``rectsig/1``): shape,
row/column costs, node partition of the rows and every cell as
``(row_pos, col_pos, cube_id, value)`` with first-occurrence
``(node, cube)`` ids.  At every iteration of every golden case, equal
keys must imply equal fingerprints, and rebuilding the same network from
scratch must give the same key.
"""

from __future__ import annotations

import hashlib

from repro.rectangles.cover import kernel_extract
from repro.rectangles.rectangle import default_value
from tests.rectangles.test_golden_extract import SEARCHERS, _networks


def structural_fingerprint(view) -> str:
    """The per-cell structural signature of a compiled view."""
    values = view.value_table(default_value)
    cube_ids = {}
    items = []
    for rpos, rcells in enumerate(view.cells):
        nid = view.row_node[rpos]
        for cpos in sorted(rcells):
            eid = rcells[cpos]
            cid = cube_ids.setdefault((nid, view.entry_cubes[eid]), len(cube_ids))
            items.append((rpos, cpos, cid, values[eid]))
    payload = repr((
        "rectsig/1",
        len(view.row_labels),
        len(view.col_labels),
        tuple(view.row_cost),
        tuple(view.col_cost),
        tuple(view.row_node),
        tuple(items),
    )).encode()
    return hashlib.sha256(payload).hexdigest()


def test_equal_keys_imply_equal_structure(monkeypatch):
    import repro.rectangles.cover as cover

    real = cover.build_kc_matrix
    seen = {}
    n_views = 0

    def spy(network, nodes=None, **kwargs):
        nonlocal n_views
        mat = real(network, nodes=nodes, **kwargs)
        view = mat.bitview()
        key = view.signature()
        assert key is not None
        fingerprint = structural_fingerprint(view)
        assert seen.setdefault(key, fingerprint) == fingerprint
        # A from-scratch rebuild (fresh blocks) keys identically.
        assert real(network, nodes=nodes).bitview().signature() == key
        n_views += 1
        return mat

    monkeypatch.setattr(cover, "build_kc_matrix", spy)
    for _, make in _networks():
        for searcher in SEARCHERS:
            kernel_extract(make(), searcher=searcher)
    assert n_views > len(seen) > 100  # keys repeat across the searchers
