"""Snapshot guard: the regenerated figure outputs must not move.

The files under ``benchmarks/out/`` are the committed, seed-verified
renderings of every figure and table the benches regenerate.  Refactors
of the planning/execution pipeline must be *model-preserving*: rerunning
the benches has to reproduce these files bit for bit.  The SHA-256
manifest below was taken from the seed outputs; if a change legitimately
moves the model, regenerate the files, update the manifest in the same
commit, and say why.

In a full-suite run pytest executes ``benchmarks/`` (regenerating the
files) before ``tests/``, so this guard catches drift in the same run;
in the fast tier (``-m "not bench"``) it checks the committed files.
"""

import hashlib
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "out"

#: sha256 of every committed figure/table rendering (seed state).
SNAPSHOT_SHA256 = {
    "ablation_autogen_caps.txt": "71d0b10616e3a407f4c83c2da7fc778edf389f4a842d997d467c7f7407adab16",
    "ablation_fifo.txt": "2e0c6a41826b1e9604baa9a63c1ae693bd362b8f78d977b4dd10bc3a647d5bd8",
    "ablation_middle_root.txt": "12ca3a7268b8e7d45e418e06e5ecd1f3633a23ecd013403fb481da7c2115d81b",
    "ablation_ring_mapping.txt": "7eb022276aae8643262d38e3fe72cb9d48f6964dfdd67abffdf8633652b4a41d",
    "ablation_tr.txt": "2014c9ff8ce06a1b1d6b0dd45d8a4317f782cea24573ec39aa66b2c30e24cc8a",
    "ablation_two_phase_s.txt": "df7b329f6872ea167bf7979bac3d6d7565cb7718629d41422ab8e819b71d6ecc",
    "fig10_regions.txt": "92a31e54999a9c993d63b92841943681f71568344b6e3baf5b0834ba6dbef87e",
    "fig11a_broadcast_scaling.txt": "2ba1dd356dbe3b5cee8fc616d7de3ae2f762f88ff3056fe380d1e747f4e77fbc",
    "fig11b_reduce_scaling.txt": "2e0d3e180255a1da6272b002cd7856cb8ea2b1f6c984282277871c98f3b7cba3",
    "fig11c_allreduce_scaling.txt": "e02894fa85b6d8cb6d044b64d1a731b4a123c09e7ee891cb31447f542facd146",
    "fig12a_broadcast_pes.txt": "8df6a39e9c828ea808aa0c07b7384b76ddfe420230c289ee63c02b334a6a8821",
    "fig12b_reduce_pes.txt": "621c5e2fca4138866ea0a1cfde9cf3a80fad1dae29affb7229ca22a8d2ec355f",
    "fig12c_allreduce_pes.txt": "9e60966f28484759eb933b4a217f730563b3cc48c5a2216d7d8232923bf3eb56",
    "fig13a_2d_reduce_16x16_measured.txt": "e5502df685298b4f953e99228293776d44abb378bdf552b2765280f7b3b9db5d",
    "fig13a_2d_reduce_full_model.txt": "0d8578a549380f7d20cf7954f3f42bfc72dd4c8097d22ea7c401cb734e227307",
    "fig13b_2d_allreduce_16x16_measured.txt": "d3d9fe69f9bf4208eed5840f006e1cefbfc01382cc77d9a0f5b499635aca9edb",
    "fig13b_2d_allreduce_full_model.txt": "486547fb9c29b03e543c95e0181556425dbec1b4afeec5cb9abe75d077f4bf88",
    "fig13c_2d_reduce_grids_measured.txt": "7c4ab4326a8de25129ae5f20cb808fd2112dac9131662a590b10d0005304406a",
    "fig13c_2d_reduce_grids_model.txt": "0eb57614050de4fa3bc2c899407b5a342fb1e998ab6dab59ba6b6fb96cf6c016",
    "fig1_autogen.txt": "85f581d9a2624f2334854379effc690b4158e2708efebd3d68ea1303be16a0b8",
    "fig1_chain.txt": "b671048ee4931f474963227b65ca33289a338257368947e6ac1fec5edc4fc39d",
    "fig1_star.txt": "ab55ce0fc7c8ccd8d969f3c2b347f98c517acff448bdd64f8cd3c3ec9ecdc71d",
    "fig1_tree.txt": "9d815b72e2211932b3bd51c38834dc2fd7fd3c9f535e2a2465f99632e7bb7b74",
    "fig1_two_phase.txt": "c7369870a4e3774362968dbc0ffe277696fa0fe145b7dcf682a16395f3bfa9c3",
    "fig8_regions.txt": "50ba5350dd55938d3f4b91ea99bd4c0216efae954a779c94602b2a0aaeb002db",
    "headline_autogen_measured.txt": "677dc1d048d12daa04334e2a448e378fe7f8af22a0874452b2d3bf201bb8267d",
    "headline_claims.txt": "d9364a4b41b85ae153cb63f49ce5406d0470792799436226d4801cec9ac5fd0c",
    "sec83_calibration.txt": "26c716b8697e31116bcefe38ffeda812e2c7209a93aa9663239d726998ae96ac",
}


@pytest.mark.parametrize("name", sorted(SNAPSHOT_SHA256))
def test_figure_snapshot_is_bit_identical(name):
    path = OUT_DIR / name
    assert path.exists(), f"committed figure output {name} is missing"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SNAPSHOT_SHA256[name], (
        f"{name} drifted from the seed snapshot: the refactor moved the "
        "model (or the bench's formatting). If intentional, update "
        "SNAPSHOT_SHA256 and document why."
    )


def test_manifest_covers_every_committed_output():
    committed = {p.name for p in OUT_DIR.glob("*.txt")}
    unguarded = committed - set(SNAPSHOT_SHA256)
    assert not unguarded, f"outputs missing from the manifest: {sorted(unguarded)}"
