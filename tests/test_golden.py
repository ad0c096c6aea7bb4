"""Pinned digests of the g-code layer's outputs on the shipped corpus.

The digests were recorded with the character-by-character value parser
that the regex one replaced.  A change to parsing, transforms or
accounting that alters one byte of these outputs fails here.
"""

import hashlib
from fractions import Fraction

import pytest

from flawsim.audit import account
from flawsim.policy import TamperPolicy
from flawsim.tamper import apply_policy

# name: (account(doc).to_csv(), reduction 3/10, relocation n=2)
DIGESTS = {
    "clean_comments.gcode": (
        "d5c1acc162a6e66bd33b7fe5cbab4a9b5d95c07a31b930f8cdad0128d1b04975",
        "50ebfdc39df5f7a025110aab6633ba99bb242f8316cc507a883710c627c19b51",
        "996fe66818cefa32522ab2eef83e55cb000b15e1353a60633c8c0b4b922beb29",
    ),
    "clean_crlf.gcode": (
        "d5c1acc162a6e66bd33b7fe5cbab4a9b5d95c07a31b930f8cdad0128d1b04975",
        "332b5628bc04685e3cc6d5a2b4afe9e73942bd20cc22d38f94bac0fa29ee4a23",
        "3966f2e3580ce2179a31d91e7b4c98041342e22d4fd49651c941b20ad6db1dc5",
    ),
    "clean_decimals.gcode": (
        "62dbeb89c05f995292992a22979bb6f46a645235e6dbc4e6743920d776ce84b2",
        "216d771b8f96e368fdbe4e97a401eb709b923e3486e846b7664ad53694b0355e",
        "97397ccc8e5df926692aca032dee4853882bcbe90f6e4ffc3ef7b2f977ebbac4",
    ),
    "clean_dense_markers.gcode": (
        "dbd4be8ec8af25f63b57632faad4e29a0ab2fb527d8071b3206e782f729c033d",
        "323aabc23472b94047f43cc86838cea32ee5488499032b4d2fc5c6020716c911",
        "ae4dea9b478e8f30811024781dc2237e403ba5228af250645f540856a64949d2",
    ),
    "clean_fine_flow.gcode": (
        "6b4e3ee994d59ada3c5d55e839c192172853e99158c8d03e6d805d3da80e4118",
        "cc0c7f9d6b94186eea2d926b824e6acca84c62e5c149e3b792aa76dee018cee7",
        "fbe650784b124125c425608fa9390b52f81f25227d7680277f23b9feb84e0c7e",
    ),
    "clean_g92_reset.gcode": (
        "d5c1acc162a6e66bd33b7fe5cbab4a9b5d95c07a31b930f8cdad0128d1b04975",
        "83fb8a395459146e64964f95301c42390753b811011fe7eef5d679cda574d1db",
        "527a622d31df38cf017e9232e0e826c56b153a3b4f9eac46fed38bfff504b525",
    ),
    "clean_heavy_flow.gcode": (
        "1a2e0e0676d338ca63f498dd50fe67271d5ea58888134c34efb6bca71852b857",
        "696c3dcec7dd01b1f0b0cccbb854633f91e30ea9ff3bf6d691dac12fbd51f257",
        "089a96003e8b4265e6cd0f7962561aeecd9abc9a356b79080504e32f773960ba",
    ),
    "clean_jitter.gcode": (
        "851764dffa9d751e9ef17bcd92fd616a87fb001b318a02f200768526acf77089",
        "b0406c960d44d4aa47a4cc8fc6d62a5929a011a8f85c30efc22e6eb7186f6a53",
        "2f93302dbbf14644c95031ac85c0062e85899a2ad18517ec30d03931219f41c6",
    ),
    "clean_long.gcode": (
        "9380d9257b1a94a5d9e350837c4de6c48a40ab3a8aaaa73000d6d35f6e9099ac",
        "1f0219ff0d89ae61c1badd8ec9ddb2074cc347d1dd73e574e6deaa36236dd227",
        "f7624d254329930d6c2eebbf99fa688a75fae9f1a8048d73c00c9a913f17b917",
    ),
    "clean_mixed.gcode": (
        "09728b02b106ccdb571fa99f2fe704dadb4d38999d35d9ecba6814cee1d20eb7",
        "3b5da6d02d7edfb534f881adc122e846990a4e19123b812dca5edac105d1b478",
        "bfb62aa50badb47213c68c3663d442a6d9bedbb7ac803fc10ebf481293eefe5a",
    ),
    "clean_mixed_crlf.gcode": (
        "6720738cfd616ef2861d8c36df817df9e0fffe1540c92dee3eca568b91308a24",
        "f73a51ce4ff355d01ede3638056bb77a4f2288dd34ff213a1f644b30c7a50e51",
        "32e844067975b0db67efae64e45e5b148105f80f06fb1b5271ebf3f13f33b689",
    ),
    "clean_serpentine.gcode": (
        "94448a838035462820a672d3b6be2197461dd428143497d29e2411296197939c",
        "694355308cf78c993b4e522b74fb594b6a290234cf7c3c9c30a892522daffd8f",
        "3ee9def9abb28b07a1cb1152e0cd2f49863a592897d3bf7184fc8f6df844608d",
    ),
    "clean_short_segments.gcode": (
        "3352ab3507cc01a74533f388842351cc1bd2161a86a4185df0c7d9ee47c3c142",
        "be456b0bdf5cc30e7c9347eda4f20e6caee80fb4981c86f6009f3dda3b8d547c",
        "3958f003f42097600b2295334acf41543024d3390699173b2e82a264fa8aae88",
    ),
    "clean_small.gcode": (
        "72ef2bb90b965b7d930d490cda1753bd034ade35a21729150094142612bb84b9",
        "c10e459b4b258f8d6d3c386148458a38bec952b3c1e51fb9f1f007c03750651d",
        "ac2327d92fd854af10d5ebf3f3609d7fb195424f6655f8eeb678bd6c26f6d37d",
    ),
    "clean_sparse_markers.gcode": (
        "94448a838035462820a672d3b6be2197461dd428143497d29e2411296197939c",
        "b960635303f2229782e6f8455fee96619020fde6579765c7d09206e17a596d78",
        "ca49cb9b55db9421b5c1fe4a4ca236ae80cb98a67cf6abc7c580d6f2cdb240a9",
    ),
    "clean_three_layers.gcode": (
        "2e7a52963c20123005f77d8e16b7d864180af10318987a0db604962cf27ee2c6",
        "fcf9d36c66cd049f757008ec5466ff58006a2e2f8d00c83b9981deea3ca0796f",
        "ecae6bad7bb714a81f61ac5f6b561b515a907ecdc9a58291d77ed94c69297436",
    ),
    "clean_travels.gcode": (
        "1700ebfe9feb8cd9173c0cd98c2f29cc1e5d45e601d3898ff128a1770daab3bc",
        "c2841238e3eb36b8f3ba3bbdc244f48648f6f28cba4a12c01d3e96881e50901d",
        "86409fcac9b7c04a1facee276e3235c6ee52e922295a784bb5e6533b0502bc5a",
    ),
    "clean_two_layers.gcode": (
        "28a8afe002b05540a50f0088bee9c5d34b5d4dcca890086618e7f83fae000cd6",
        "7be0b53cfa03144c4eb1b521d9783367dbb1f9ca1074a36d6f06521185b5728c",
        "8bd9d0a92f75e8151868fe99c0cf3e3d11b8eb75cf1b014ef25e242d50abb92e",
    ),
    "clean_uniform_n2.gcode": (
        "cae96ec3fe76104f7f31cf5472b77cdc345a28ab45de62ad371e10164a09c278",
        "8e3c220285dd1fdda12091396d4d2708f565b29ff4fe5cca52454b09ad119731",
        "3ce63ff5d6895a4011641c58469d2430560df4669d529eb9dd1b23ff70cdc167",
    ),
    "clean_uniform_n3.gcode": (
        "c14205dd61622e1a7a941e43b3e2e63a4605f903d1c8bb1f0ef0fd1f537cfd0b",
        "b069c4019e2fa401a5b9503525444505504a1f26a9efd7a33d33490a090e69de",
        "5bc59a96e95e75b522960e98791d2e2d8c504f54a314969aa486a305f11983c3",
    ),
    "clean_uniform_n4.gcode": (
        "057d4230ffcfec3f95f71db4198a6b5bbe4d6cb11a03a81dc7afbfbdaff783d7",
        "40710a9a7aa25fb9581535e30b53a52e9483b17667ee740b8393745fd5b59970",
        "4ed944a31fec0b51acc458ea7bbfd64dfdf5a227ad2f4dcfc202cd469f21ac81",
    ),
    "clean_wide.gcode": (
        "74e5596c01bbdc764fc2fcc52288ed65659795cfa6c3ac93a0e1a98c424c3c7a",
        "949928d923a3aba2c89ee860827380b71482e00159dbcdc8718f63c6cd0bc6fd",
        "814d52131fc5bba8fb5d9d785356c8b7c7a87279e32562ece57808546dd0968c",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_corpus_document_is_pinned(gcode_corpus):
    assert sorted(gcode_corpus) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_match_pinned_digests(name, gcode_corpus):
    doc = gcode_corpus[name]
    got = (
        sha256(account(doc).to_csv()),
        sha256(apply_policy(doc, TamperPolicy.reduction(Fraction(3, 10)))),
        sha256(apply_policy(doc, TamperPolicy.relocation(2))),
    )
    assert got == DIGESTS[name]


# Small documents for the accounting edge cases the corpus does not reach.
# name: (document, account(doc).to_csv() digest, total extrusion)
ACCOUNTING = {
    "duplicate_params": (
        "G1 X1 X5 Y2 E3 E9\nG1 X2 E4 E1\nG0 X3 X4 Y1 Y7\nG92 E1 E6\nG1 X6 Z0.3 Z9 E2\n",
        "095ba34bef5ed8915f3885b40c39b0aff000e468ff23a472544e0a930898f528",
        "5",
    ),
    "g92_axes": (
        "G1 X10 Y10 Z0.2 E5\nG92 X0 Y0 Z0 E0\nG1 X3 Y4 E1.5\nG92 X1 Y1 Z1 E10\n"
        "G1 X1 Y1 Z2 E10.5\nG92 E-2 X7\nG1 X8 E-1\nG92 Y-3.25\nG1 Y0 E0\n",
        "224c3b34938192827d3d0e3879efe97a088e39aa69346e50743c8673fa65d11c",
        "9",
    ),
    "extrusion_modes": (
        "M83\nG1 X1 E0.5\nG1 X2 E-0.25\nG1 X3 E0.75\nM82\nG92 E0\nG1 X4 E1\n"
        "G1 X5 E1.5\nM83\nG1 X6 E0.125\nM82\nG1 X7 E3\n",
        "81d338e01c86d083746149e20b5d1c1d7ea15a5ba5cab9312e2173cf2809d0c8",
        "4.375",
    ),
    "retract_travel_g0": (
        "G1 X5 E2\nG1 E1.2\nG1 E2\nG0 X8 E2.5\nG1 X8 E3\nG0 X9 Y9\nG01 X10 Y9 E2.00005\n"
        "G1 X10 Y9\nG00 X0.00001 E-0.5\nG1 X3 Y4 E-1\n",
        "326d9720cc54c555b9518aec3bf71771d5a53cd5fa4760c10a4a834ef52ed642",
        "3.8",
    ),
}


@pytest.mark.parametrize("name", sorted(ACCOUNTING))
def test_accounting_matches_pinned_digests(name):
    doc, digest, total = ACCOUNTING[name]
    report = account(doc)
    assert (sha256(report.to_csv()), report.total_extrusion.to_text()) == (digest, total)
