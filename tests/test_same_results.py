"""Byte-identity of the outputs that define "same results".

A refactor must leave the `verify` report and the `msp gen` output unchanged
byte for byte.  The sha256 digests below were recorded before `stirling` and
`series` shared one triangle builder, one Prop 5.5 kernel and one term
renderer; the n = 20 rows of B and L were recorded while those two kinds
were still weighed type by type, and those of S and A before S, B and L
shared one entry into their descent.  A change that alters any of these outputs
on purpose records new digests and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from mspkit import cli, msp, verify


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# verify.report_json(run_suite(15, seed=s), 15, s); the CLI's
# `verify run --max-n 15 --format json` stdout adds one newline to it
REPORT_DIGESTS = {
    0: "e3f819c4d2b583f850aa82468b17fad20ad336a3973f75fa1621533121e1611c",
    7: "301977bc4902b264a88019aebbdc0d3447b9c0415c2e32f2dc02b0308a30fc26",
}

# `msp gen --kind K --n 6 --format F`, then (except for Bn) the same with --k 3
GEN_DIGESTS = {
    ("S", "text"): "44c4af8b751a6d9dffa19a92f42a7a2bf7d71c7d364ac394ff029ffbee6e2215",
    ("S", "json"): "212b99c01772f174061928cad955224bbd3e33416a7cb50e728bbdb95cc829c8",
    ("S", "latex"): "2defc4b1aff3e861d797419776a2b249a0ab1bb2567e591f62850fcffd6f5d25",
    ("B", "text"): "f180364f55684ccc03e719643421780401a25e77f0eeb49b2e853947a5af8b17",
    ("B", "json"): "c1277e6c9d95da8a7fa370a6a40fa30e04ebe4dce2489d7132f97d9b7205008d",
    ("B", "latex"): "d71b85dbd5d1fd17eb273cf0513487cb0e11c9b0fac697ea629f6fb40722c23f",
    ("Bt", "text"): "9f8aa1bb78f34f491947e0044a137c60c80f8d2f427e2b1e5091c0f9a40d7413",
    ("Bt", "json"): "31ae070280fa6bff9b1dae40e9e142d987828811b80fd248c134cc84957af0f6",
    ("Bt", "latex"): "a00d13aa1ec753b222eb6653fa71c048c0da12ae0c1fedfafe30bc5408a89ea1",
    ("L", "text"): "2c4b9b4341e7fcc57cadb55b1d3bf338671af336dc935da14366c0ae8935a97c",
    ("L", "json"): "f2b0d4dc72e330d3f5371e0669ca7932dfb159291ef9ccbbc48973a45bb64874",
    ("L", "latex"): "6ff2032c212e98013dbacabf48c1e396cc94da3549ebb3d8a138253458c23076",
    ("A", "text"): "6f9aa29c6ed62b44a1f64a53c4f8b86b1912898a2eed19609bdd65cc422579e8",
    ("A", "json"): "fb3f51e5f5305cdd031e46f532662f94e1843118520aab42385660f0c55cf1ff",
    ("A", "latex"): "80e246ec383852558a542e71c5129e93f8a4ee6635f298791dafe87248f64e14",
    ("Bn", "text"): "dc32931cb703decaea01fbf1cf38ebb237116fdb355bb88439b2214b93db3dcc",
    ("Bn", "json"): "7f70048963e5a27229ae0500f1d2f797721c62576c583b530f9fdab411df2bd8",
    ("Bn", "latex"): "77560045e5e495ebf0e3c8afe589081b709d3f73572eec41567d1370a98effc9",
}


# `msp gen --kind K --n 20 --format F --force`: whole rows, large enough that
# every block-size branch of the S, B and L builds runs
GEN20_DIGESTS = {
    ("S", "text"): "b611633451d22c7c803b8d815ac3a8d0793fa5fc70da4f367493dfc941b1ea0e",
    ("S", "json"): "96c2703f8d98c95455be599fb3026ddc1f748f29888a14e4e869078167284f75",
    ("S", "latex"): "d5b87b41a40a1ed7d027f96d9aab6e3a771c0cd37c6464ee1f4ba67238979e65",
    ("A", "text"): "81cb4cfd0029b5323df17fbe49db05ee0c2151cf9979b9fdd9095847fd5ea7d8",
    ("A", "json"): "97068acd894932e53cb2f8b69fa6240bbad268eaed4439dd114cb811a33dec32",
    ("A", "latex"): "72a08b83eeb40c0aa237a66a5f7105c8acac42227aa1308e6baeb10d96e6e16a",
    ("B", "text"): "25cbe81b849501202a2be0bafb3eeb98e704d0ef38583e5b3543a36675b420ef",
    ("B", "json"): "ba4afb48f8c64d2ec14c3fb3dde62121924568ac43dfe4f39062a675733c55e9",
    ("B", "latex"): "46d92ccc4c9f525d8b9326cf2734611eb7ffa9527eab388713a1bb5fa4fbf972",
    ("L", "text"): "bc29f6bf81149f27a93bcbeb9bafaaeb0a116b384633de35de0281f0f4b0923e",
    ("L", "json"): "cd491a304a8c8dd70b770fe71feb43998d92156e0697f91b75d2c03c016cc287",
    ("L", "latex"): "06d4a6a9f4550bd1f374575a64e6dcbb491804dcb01791d1b9be81555f948d75",
}


# `msp gen --kind K --n 26 --format F --force`: the largest rows that the
# gen-cold benchmark renders, recorded while every member was still sorted
# on output
GEN26_DIGESTS = {
    ("S", "text"): "92dc81e7722ebfa8b977ac47fb50555ca8bee51a02f86406a648862f3ca77678",
    ("S", "json"): "0b75f1fe720323c094a2756bf09556353b073ccb6af900687aa1fa085b48de5c",
    ("S", "latex"): "e1a7c93af1080657ce1f74600422069b555f2ce5c9c87a0b0aa3777c7f6148ea",
    ("A", "text"): "25857c56a0c5e30894935e2b6d6964a58805512f0644b78f7b6a3057ac297e35",
    ("A", "json"): "4a9a17cad776e18016f52b7b03187417cc14ceaf96e2ecfdcc81b63c85f6d651",
    ("A", "latex"): "763a19fce878ffa8498e85a9614e5df0f287e0c7c7e21066156b5895fdd010ad",
    ("B", "text"): "b0d58f8db105365cf58790175190e0665f9e6cb8b670418a30c734f81dc9e0f0",
    ("B", "json"): "5769a1c5a710ff990a248494d6e6a687b278d5d4210e6819958eb96ef446a718",
    ("B", "latex"): "bdab71042388d5ee28ed0135a600ac8a2255dd31cc877659c05e10d72480d5b5",
    ("L", "text"): "8fc3390cebc77dc92b640083ce5779c84e1a93d68797252ebab4cf8535fadcd9",
    ("L", "json"): "f8fe1957f591e18ca9db7c204efb239e16446d3a4c0b723d1839b0662044b06c",
    ("L", "latex"): "f45b06b46b92293fb82cc49fd13420695763b7db0fb1a8cb59dcf20e71f100ae",
    ("Bt", "text"): "c97742564a2fff3bc5821d1d6c0d273554bcbbac6f00108db974a74c15723841",
    ("Bt", "json"): "aa5de468f86405bfc2eac3fa17c0316cb3172a4073db9074d854ee71ffb6d1ec",
    ("Bt", "latex"): "4de7d002e5851a8f10edb2b7f7ff4148b480dc771fcd510ba23b67921c873acb",
}


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_verify_report_digest(seed):
    report = verify.report_json(verify.run_suite(15, seed=seed), 15, seed)
    assert sha256(report) == REPORT_DIGESTS[seed]


def test_gen_digests_cover_every_kind_and_format():
    assert set(GEN_DIGESTS) == {
        (kind, fmt) for kind in msp.KINDS for fmt in ("text", "json", "latex")
    }


@pytest.mark.parametrize("kind, fmt", sorted(GEN_DIGESTS))
def test_gen_output_digest(capsys, kind, fmt):
    runs = [["--n", "6"]] + ([] if kind == "Bn" else [["--n", "6", "--k", "3"]])
    for extra in runs:
        assert cli.main(["msp", "gen", "--kind", kind, *extra, "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == GEN_DIGESTS[kind, fmt]


@pytest.mark.parametrize("kind, fmt", sorted(GEN20_DIGESTS))
def test_gen_row_20_digest(capsys, monkeypatch, kind, fmt):
    monkeypatch.setattr(msp, "_DEFAULT_CACHE", msp.MspCache())
    argv = ["msp", "gen", "--kind", kind, "--n", "20", "--format", fmt, "--force"]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out) == GEN20_DIGESTS[kind, fmt]


@pytest.mark.parametrize("kind, fmt", sorted(GEN26_DIGESTS))
def test_gen_row_26_digest(capsys, monkeypatch, kind, fmt):
    monkeypatch.setattr(msp, "_DEFAULT_CACHE", msp.MspCache())
    argv = ["msp", "gen", "--kind", kind, "--n", "26", "--format", fmt, "--force"]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out) == GEN26_DIGESTS[kind, fmt]
