"""Golden-bytes guard: sha256 pins of the CLI's stdout for fixed inputs.

The CLI pins were taken before the cap, binomial and phi helpers were merged;
any refactor of those layers must leave every byte of these outputs alone.
The noncommutative pins hash the (P'_n, Q'_n) pair itself, in the MultiPoly
JSON schema over (a, b, c, q, x, y), and were taken while the pair was still
stored as a map from words x^i y^j to coefficients over (a, b, c, q), with
(i, j) appended as the last two exponents.  The audit pins hash the
provenance file of the closed form, one JSON line per contribution, and were
taken before the closed-form loops were rewritten around one Lemma 1 row.
"""

import hashlib

import pytest

from newtonpoly import cli
from newtonpoly.qalgebra import nc_iterate

# generate --n N: recurrence and closed emit the same bytes, so one pin per n.
GENERATE = {
    0: "51dd3fc8c09551212a5bcf714dc4329317483231ee2791661bd090de8cc1242b",
    1: "ed4558bde8e6b499b5f2e3d786842a5e27656a6da64dce3394d76e705cafc9bc",
    2: "d909beba7aa0d20d2bfec504fcf3a30bbbb67aa674727dbd82a3469220d7c29a",
    3: "66d2cfa87be3c0aa97d5a403afdf6a5f1054a44c0fd8b2d83700cccc6c603ae6",
    4: "ee55fd971f2da7ce7079c601ef51f6bf2b272fd9ef619bae81976bbd3a9633cb",
    5: "0dc64a604c5072ff9bc34a8508ca13e81c62c7b44afa890e27bf300e64ba3035",
}

# generate --method rootform, indexed by REFERENCE_TRIPLES entry, then n = 0..4.
ROOTFORM = {
    (1, 0, -1): (
        "323f1455138bb8d407b124f8fba27f5067bf60083b1124f9322a0f6a105ac66d",
        "d5d0c0d931d52362812a9ffd47626a878a8536f03389948e3335333f9b181879",
        "e36594c9093a402aea3eb198bf387300a6ec0513c8a5eaead38622e6cb592001",
        "59ebf1a90d4e6e656c9a94bd7a5876c7129a74396e7031b6bbbec9ff1ad5b727",
        "8cbfe216bd887149d61094b32706e45299b2d7faa567e450a4d93e5efce428ce",
    ),
    (1, -3, 2): (
        "20aea6b274b13a5520af96617ad9db81c099b1377c5ff90e4ef88a61f8e0a042",
        "68e30190d2abab186b1776c19843c8090c00fd58a41ae9edf7771c4aba5a391e",
        "4f208a8115699b0c296ecccb07984c49bfbaf66ee3f937f416cbc1a86169f46a",
        "fe92bb3f9312aff30a8ca4e1d9c9f6b1d9d88c85b62d96d93889c8c5a4df62e6",
        "6fca61546a3983f5ced54d14f511d90a09fcf48cb15f5ffe29c583e8acc81753",
    ),
    (2, 1, -3): (
        "714bc6bdfde4c2bdaaf924cdb8b98448503bc442ba4243a63061795f46fbbdb6",
        "3ec0343c5bbfd13082cee6e3a6477e5f19ecb37d02f9644b688d244cac815aa8",
        "3250f72bbb4c23eff502fa72dada7eacffc6ed32f8f2217a87bb7170cde106be",
        "99e2ecc115601350262b1c151cb31349b08130870271509918ae2743c36796f6",
        "bdc1a3fba3971ff573c6a856f5e321c0a7831626bde6ece77157464ef3beeff1",
    ),
    (1, 0, 1): (
        "f6963fd679db938218eb1ce33a2e7d337d8829b2050ad98eb89cf2aae1539624",
        "712bb923ecc34074cb2da234734670fc1582c2950db16cebadeef37bf28e7f8c",
        "98a43df343f42772395b2e38735691f15827f5c892ed5a08802dd7b94f8bd01d",
        "2407464126615e364597821832efe3e302d1dd779e88c49e2f7d92ba40e6e143",
        "a1aec75904cd44873070783ae01742c011d8245b891728b7d77bb9678cf53801",
    ),
    (3, -2, -1): (
        "1544610cf9e95de9b24481db14a49de2301af87f7339761ef921dba3175988f3",
        "fc73797a5dc8c5f5b91d6081090f4f0a3798d621d86c7acd249fda859db768ca",
        "d198202e1f4cf616a4e750a501a861c448689c2e6fe049c9f2f0af6714585953",
        "1d1672587fb67db9ac444590573b30c8b3fa560efefeecd7309e7e02821c8867",
        "03de048cf81ad67f4feee6e97a94b66cd108be5828f28be20730e6aa332326a8",
    ),
}

# verify <suite> with default arguments, plus smoothness at n = 5 in both modes.
VERIFY = {
    ("equivalence",): "3c26d1b024863ff81ab3d4679fe8afe26ddf4ea8b6bbbe9422ebaa8a1af12968",
    ("lemma1",): "7c5a41c9582429eec1ccd37e8681e23a9b48adb872d8711bf6f9a9153b5e2dba",
    ("coprime",): "7e58b0349b164949d386a63f0aee3bb432eaa638fa9937e70be12df560c866e0",
    ("conjugacy",): "e4f00b9fef1e6a1b4a72e5640c44e6d67ab200b908a3b282048b31c426ce912d",
    ("qconjecture",): "72ed35bb2d77aca6d11e77f7ac99e7e6f9ab482fd674cab88675946b139ea213",
    ("qbinom",): "da389b673d9a17987eea61add2eaf837fa27c4cd00a46aa219ecee1bb92e3da5",
    ("smoothness", "--n", "5", "--mode", "inclusive"):
        "ae0829684148492c418fe81f278a8e8c725368217919a5389d48a17930337291",
    ("smoothness", "--n", "5", "--mode", "strict"):
        "add643956d20f2adb6a1ae3de6cb19880af25cf37d0b720b8208df738659347c",
}

# generate --method rootform --n 8 on triples outside REFERENCE_TRIPLES: d = 64,
# d = 36 with c = 0, and the positive non-square d = 5.
ROOTFORM_N8 = {
    (4, 4, -3): "914fdb3d75eda4b88999a1086fff249432543580132a624061d86c7454927ac4",
    (2, -6, 0): "be0baac9f9a2eb5e5e80e2bfd904d21190a0aea957b71f891ce0c17b1cd18521",
    (1, 1, -1): "874baa0e97f9dfc5447913d90c2fc46fc109e4caf0e6ba8e3322878e3745aa9d",
}

# verify qbinom past its default ranges.
QBINOM_WIDE = (
    ("qbinom", "--max-n", "8", "--product-max-n", "16", "--symmetry-max-n", "32"),
    "34ea14adb0bd5fd7ec865b38388b91b7960847b89414a9f18d6bd597991ce3ab",
)

# The provenance file of generate --n N --method closed --audit, n = 0..5.
AUDIT = (
    "ae34b5232b1fef46bdc5ff27daddbcda90b2ebbffdda655a7ce046458a36c9f6",
    "52b40f5de2d11c2e6dd508c417d539585c40a71e0d2a3e3982147a0380c6c94e",
    "dd02d2dcf24487caeaff98dc3920fbe06ddf34b383c1146e71228f4695a062b5",
    "aff56c497118203202dbef356a2d840ba3bde64c087f4cebfa80edfa62c56b0d",
    "25725ce4696f094df467fba3cd957ab8b205cd9468544075bb181e16f7533d32",
    "5ae5323b4e428474b158a3d67bb23ce4f0efad9656e60301c72a1d8c8c06e4e3",
)

# canonical_json of (P'_n, Q'_n).to_dict() from nc_iterate(n), n = 0..4.
NC_ITERATE = (
    ("19991e109b259f49b8b8dc1ee8c3e405cad4f61b58730ca5513893b3974fb225",
     "4aa2d24b9da0bc045f1b2f6700b2ff4ed99e7e684d0b54c0d9d82f58fc787776"),
    ("55c9db336eeb3151ae6172946b4f80906ca3397c73e86eb1f739f9fba4ae0c1c",
     "63a300b04b51a426940036e665c9d0f2b520c53e6f03ac3971d0be71f7e5497f"),
    ("0121d3afae05e812d02705af9b597d7a2c9482c6168d3b78fcb7631a99d88df0",
     "89ad0968234b8f018f3fdae47a20e52fc9fad3198ca98f0be6f62fddf568f402"),
    ("d7b0b7aec30f34f1db0c2ca7267a3ba85d954461b2dd43eda8ade27dedf9a435",
     "4b21a242e4f8b3ed62fa7ac87d689167644e422b6a8dd5f38b1f5fd74779c22f"),
    ("05a7435911f4f0ac5c6685440bd7fb5596c18adaf467d1e226ffd0b444a35388",
     "5c628246d81812f870c232c85ca907509d5d3fe68821a5104ea08530449697b8"),
)


def stdout_sha256(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == cli.EXIT_PASS
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_rootform_pins_cover_every_reference_triple():
    assert tuple(ROOTFORM) == cli.REFERENCE_TRIPLES


@pytest.mark.parametrize("method", ["recurrence", "closed"])
@pytest.mark.parametrize("n", sorted(GENERATE))
def test_generate(capsys, method, n):
    assert stdout_sha256(capsys, "generate", "--n", str(n), "--method", method) == GENERATE[n]


@pytest.mark.parametrize("n", range(len(AUDIT)))
def test_generate_audit(capsys, tmp_path, n):
    target = tmp_path / "audit.jsonl"
    stdout_sha256(capsys, "generate", "--n", str(n), "--method", "closed", "--audit", str(target))
    assert hashlib.sha256(target.read_bytes()).hexdigest() == AUDIT[n]


@pytest.mark.parametrize("triple", sorted(ROOTFORM))
@pytest.mark.parametrize("n", range(5))
def test_generate_rootform(capsys, triple, n):
    a, b, c = triple
    digest = stdout_sha256(capsys, "generate", "--method", "rootform", "--n", str(n),
                           f"--a={a}", f"--b={b}", f"--c={c}")
    assert digest == ROOTFORM[triple][n]


@pytest.mark.parametrize("triple", sorted(ROOTFORM_N8))
def test_generate_rootform_n8(capsys, triple):
    a, b, c = triple
    digest = stdout_sha256(capsys, "generate", "--method", "rootform", "--n", "8",
                           f"--a={a}", f"--b={b}", f"--c={c}")
    assert digest == ROOTFORM_N8[triple]


def test_verify_qbinom_wide(capsys):
    argv, digest = QBINOM_WIDE
    assert stdout_sha256(capsys, "verify", *argv) == digest


@pytest.mark.parametrize("argv", sorted(VERIFY), ids=" ".join)
def test_verify(capsys, argv):
    assert stdout_sha256(capsys, "verify", *argv) == VERIFY[argv]


@pytest.mark.parametrize("n", range(len(NC_ITERATE)))
def test_nc_iterate(n):
    digests = tuple(hashlib.sha256(cli.canonical_json(poly.to_dict()).encode()).hexdigest()
                    for poly in nc_iterate(n))
    assert digests == NC_ITERATE[n]
