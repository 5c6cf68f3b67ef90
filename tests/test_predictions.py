"""Every model prediction pinned bit for bit.

One SHA-256 per family over the ``float.hex`` of each prediction, the way
``tests/golden_values.json`` pins buffers.  A family is one registry
entry ``(kind, dims, algorithm)`` (2D AllReduce once per ``xy``
composition), the two Auto-Gen curves, each fixed reduction tree's
``model_time`` and the 1D lower bound.  Each is evaluated over

* 1D rows of ``P`` in 2..64, 128 and 256 PEs, and the 2D grids
  2x2, 3x5, 8x8, 16x16 and 64x64;
* ``B`` in 1, 2, 3, 7, 63, 64, 256, 1024 and 4096 wavelets;
* ``T_R`` in 1, 2 and 7,

skipping specs the registry marks infeasible (their predictions are
never used).  The label of each point goes into the digest too, so a
point that appears or disappears moves it.  A refactor of the model
must leave every digest where it is; a deliberate model change
regenerates them with ``PYTHONPATH=src python tests/test_predictions.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.autogen.dp import autogen_time_curve
from repro.autogen.hybrid import autogen_hybrid_curve
from repro.autogen.tree import binomial_tree, chain_tree, star_tree, two_phase_tree
from repro.core.registry import COLLECTIVES, CollectiveSpec
from repro.fabric.geometry import Grid
from repro.model.lower_bound import reduce_lower_bound_time
from repro.model.params import CS2

P_1D = tuple(range(2, 65)) + (128, 256)
GRIDS_2D = ((2, 2), (3, 5), (8, 8), (16, 16), (64, 64))
BS = (1, 2, 3, 7, 63, 64, 256, 1024, 4096)
PARAMS = tuple(CS2.with_ramp_latency(tr) for tr in (1, 2, 7))
TREES = {"star": star_tree, "chain": chain_tree, "tree": binomial_tree,
         "two_phase": two_phase_tree}

_PINNED = {
    "allgather/1d/allgather":
        "e0ccc6133f1029861e56504b5e9339ca1e3cb0158454e77f6c8d9e32335935d6",
    "allreduce/1d/autogen":
        "994a44befa07bb9c636a31f901da608aaf88cf83523492ce49391f3583b414a1",
    "allreduce/1d/chain":
        "82897c04591fbce22ca060043c64b743fc263d7a6e3331e34f7c4b676ce83369",
    "allreduce/1d/ring":
        "2253d43f66a32fcad03a6d6e06cbedeaf0af3822c52f58faed80f646466fa6d6",
    "allreduce/1d/star":
        "0e61ca28f53e819fed9cbd12eff978dd14994de36a2eaa02ae6835758dcf098e",
    "allreduce/1d/tree":
        "4e32713deae97f0d91946df88deffe02483c2bc9a098cebad539a9ed2ba2600a",
    "allreduce/1d/two_phase":
        "ed94d446abaa89736ab5ac9163e68d36456895f861f2b30b7533df3ff8d8b5e1",
    "allreduce/2d/autogen":
        "79860acc7ae804e4d0bd0017ea0f936899f2cc3a3d9043ab460cf845bb7d2916",
    "allreduce/2d/chain":
        "42ede7fcf4b68c77bfd30c773bb94550c723b6cb72ae669bdb984d8f1bf762e9",
    "allreduce/2d/ring":
        "755b286a860777e96a459e4084055bb22e1a003e68e6e69238ec74bfb05da6f1",
    "allreduce/2d/snake":
        "3a29eddeeb3b2535d846108ec67b0ae502678d7c9c3bff50d17181fff90fc3de",
    "allreduce/2d/star":
        "e74d1c5d2e4fcf3c02ca906d65a32b4d7b775acd70554de3094510be60e3b8c3",
    "allreduce/2d/tree":
        "08232769ac2a5c9c9abc72b026c58cf05443d18d9e30d76ba871a9f8b77aa3fa",
    "allreduce/2d/two_phase":
        "8ef32c1a1dcc5985290e257c99bf10f37baa6a045e24a9cabc3da25f15d0db03",
    "broadcast/1d/flood":
        "806b8e2d820c801aef20e2079c7386882c8dba2622cd5e48297feb1369c47a74",
    "broadcast/2d/flood":
        "ccb051cd447fa655892cec2af101f3dead9349f014264733b88b297fd3c788c9",
    "gather/1d/gather":
        "cae4ef25b7e8b5f82ed871f339d900c7e7d9b8a48cd33075987e389409a3b9a9",
    "reduce/1d/autogen":
        "4ccc9808a892e6d6c6797dd7e196dff1323ce2137cf81e1903ced2e3be0a7438",
    "reduce/1d/chain":
        "e12219e116826e6c2eaabc6463f9dc8da6f1c64fe48ddef1bfd24e97bf6def7e",
    "reduce/1d/star":
        "cae4ef25b7e8b5f82ed871f339d900c7e7d9b8a48cd33075987e389409a3b9a9",
    "reduce/1d/tree":
        "4858b979c5a5d49fa69fa65c9deec096f8472f7c8f289be408e28cdeccaabe17",
    "reduce/1d/two_phase":
        "e18d13810750607728122b3a302fdc46cf0c475e5cb45caed44f1449bbd037ce",
    "reduce/2d/autogen":
        "d218df65128331f50b178db91c34f62d31226cac5d14f554ae5926ebfe181ae7",
    "reduce/2d/chain":
        "7345588dd60fb88f1f7210d954aa2227b47a869966105b7c0421292b1ae39c57",
    "reduce/2d/snake":
        "d1dbf572b77c028a166ff5854c0e85df6e85b6451d3df4c1cb852f9c77e2ce70",
    "reduce/2d/star":
        "39a9960fefd261a8226015524e5d9372ce484a1aa19a142d66b132324c043e62",
    "reduce/2d/tree":
        "09b238820d3ff24b83c67daa0e65d5cc6f46a0b971acf177d209d92ed81afc4a",
    "reduce/2d/two_phase":
        "8bea6d4802344d20f4b594e1697735d3f87015b15d4cdc86cbd09c274a6f1159",
    "reduce_scatter/1d/reduce_scatter":
        "c0d9f0dde80eb9a0ceb7665c5c584d01b0c069d4ef9c89a4ee0266cb36cee91d",
    "scatter/1d/scatter":
        "cae4ef25b7e8b5f82ed871f339d900c7e7d9b8a48cd33075987e389409a3b9a9",
    "autogen_time_curve":
        "fc39c1a5315b3fa3653c3654115bdc7d282fa5680f4eda21f6fc202d2c2719a7",
    "autogen_hybrid_curve":
        "957fb7afc3983e758926d7f50fc9ca824d32956ebfc3afe750761a079839c6b3",
    "model_time/star":
        "afed9cbd20fef1b9aa7df2d9fc91ccadbfc61ad69879f0010ec61de3148c8c45",
    "model_time/chain":
        "e2b0c240bc99760a8f3ade15d928a55ae845dbc9b244e22279025a03e44d1e98",
    "model_time/tree":
        "187ed4af4a63e665baded883d69a9bee531b5dce1b7e3f0af53c31d46d749f23",
    "model_time/two_phase":
        "9047c79f9f1db0b6794866522f36555fc7f59e2cd6be769cb552410f45a444ee",
    "reduce_lower_bound_time":
        "cf20da0dcda70334bb6c3f861755554328431f533506dcf22cc3b6e3af8f6293",
}


def _entry_points(kind, dims, name):
    """``(label, prediction)`` of one registry entry over the grid."""
    entry = COLLECTIVES[(kind, dims, name)]
    shapes = [(1, p) for p in P_1D] if dims == 1 else GRIDS_2D
    xys = (False, True) if (kind, dims) == ("allreduce", 2) else (False,)
    for xy in xys:
        for rows, cols in shapes:
            for b in BS:
                for params in PARAMS:
                    spec = CollectiveSpec(kind, Grid(rows, cols), b,
                                          algorithm=name, params=params, xy=xy)
                    if entry.feasible(spec):
                        label = f"xy={xy} {rows}x{cols} b={b} tr={params.ramp_latency}"
                        yield label, entry.predict(spec)


def _curve_points(curve):
    bs = np.array(BS)
    for p in P_1D:
        for params in PARAMS:
            for b, t in zip(BS, curve(p, bs, params)):
                yield f"p={p} b={b} tr={params.ramp_latency}", t


def _tree_points(builder):
    for p in P_1D:
        tree = builder(p)
        for b in BS:
            for params in PARAMS:
                yield (f"p={p} b={b} tr={params.ramp_latency}",
                       tree.model_time(b, params))


def _lower_bound_points():
    for p in P_1D:
        for b in BS:
            for params in PARAMS:
                yield (f"p={p} b={b} tr={params.ramp_latency}",
                       reduce_lower_bound_time(p, b, params))


def families():
    """Family name -> zero-argument generator of ``(label, value)``."""
    out = {
        f"{kind}/{dims}d/{name}": (lambda k=kind, d=dims, n=name:
                                   _entry_points(k, d, n))
        for kind, dims, name in sorted(COLLECTIVES)
    }
    out["autogen_time_curve"] = lambda: _curve_points(autogen_time_curve)
    out["autogen_hybrid_curve"] = lambda: _curve_points(autogen_hybrid_curve)
    for name, builder in TREES.items():
        out[f"model_time/{name}"] = lambda f=builder: _tree_points(f)
    out["reduce_lower_bound_time"] = _lower_bound_points
    return out


def digest(points) -> str:
    sha = hashlib.sha256()
    for label, value in points:
        sha.update(f"{label} {float(value).hex()}\n".encode())
    return sha.hexdigest()


def test_every_family_is_pinned():
    assert sorted(families()) == sorted(_PINNED)


@pytest.mark.parametrize("family", sorted(_PINNED))
def test_predictions_match_pinned(family):
    assert digest(families()[family]()) == _PINNED[family]


if __name__ == "__main__":
    print("_PINNED = {")
    for name, points in families().items():
        print(f'    "{name}":\n        "{digest(points())}",')
    print("}")
