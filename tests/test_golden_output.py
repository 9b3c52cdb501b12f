"""Stdout identity: each command's exit code and stdout sha256 are pinned.

The timing field ``"elapsed_ms": N`` is blanked before hashing; every other
byte of stdout is part of the contract. The first 17 hashes were recorded before
the Frobenius action became a plain matrix, the next six searches before
search began to work once per isomorphism class, and the last four
searches, which print every row they find, before each row's matrix was
read off its class by a change of basis, and the four full l = 7 tables
before ``--triples all`` began to decide cups per pair and stream its rows,
and the last four l = 5 and l = 7 analyses (two split lines and a unipotent
one over GF(p^2), and full torsion) before those groups were read off the
Galois case instead of a torsion basis, and the last three l = 3 analyses
(a split line with beta = delta = 1, a split line over GF(5^3) and a
unipotent line over GF(13^2)) before the l = 3 normalization was read off
Cayley-Hamilton and kernel vectors, and the last four (l = 3 full torsion
with moved-vector witnesses, the l = 5 unipotent table, the 5^9-row l = 5
full-torsion table and a 20,000-triple sample of it) before tables were
held as one byte per triple and written in whole-pair blocks, and the
last three (E[9] over an extension of GF(47), and the no-fixed-points
reports at l = 5 and l = 7) before torsion_basis stopped walking psi_n's
factors at the first spanning pair. So a refactor that changes any output
byte fails here. To print the table for the current code, run

    PYTHONPATH=src python tests/test_golden_output.py
"""

import contextlib
import hashlib
import io
import re

import pytest

from ellmassey import cli

ELAPSED = re.compile(rb'"elapsed_ms": \d+')

# (argv, exit code, sha256 of stdout with elapsed_ms blanked)
GOLDEN = (
    ("analyze --p 7 --a 0 --b 2 --ell 3 --triples all", 0, "765af1a11093d7b89976e9089ab19840fdaabb9559b97240b9e317bad431c479"),
    ("analyze --p 5 --a 0 --b 1 --ell 3 --triples all --format csv", 0, "9206a1ee279ae4b68b08984d68c78d096fbc936c6d6f1b8c060916d398d1cdc3"),
    ("analyze --p 7 --a 0 --b 1 --ell 3 --triples all", 0, "d9ca389d9ac8824e6921b38e623d3c2e4b0c7773b3f00a60451a9a8693a13a90"),
    ("analyze --p 5 --a 1 --b 0 --ell 3 --triples all", 0, "4b746f78913650e45c420fbd36a916c41c65d3c763215600f54e96c3326a5366"),
    ("analyze --p 7 --a 6 --b 6 --ell 5 --triples sample 50", 0, "208d8efe3b0cdd52902de9c8b0740ad61420cca36c00d61fe9b17262b5708b75"),
    ("analyze --p 23 --a 1 --b 1 --ell 7 --triples sample 50", 0, "93644bdce2353d14803d320fb03e1b302dfef03bfe728566565e396aaa48f466"),
    ("analyze --p 29 --a 1 --b 7 --ell 7 --triples sample 50 --format csv", 0, "a541ea575a66e2cda6a2a568ec846891600f77bb6af2d4ef7b00135314f99370"),
    ("analyze --p 11 --a 1 --b 7 --ell 5 --triples same-char", 0, "7b887ad1d4247aa46c47447c66655d1e5d398d2cf69134924b598f298bd34d12"),
    ("analyze --p 5 --a 1 --b 0 --ell 7 --triples same-char", 0, "0327c79b3610ee89fc0f5504e69c2e4c42730842f36689a1e56ea5aae88839a5"),
    ("analyze --p 11 --k0 2 --a 1,2 --b 6 --ell 3 --triples sample 20", 0, "4c91d8d061425f2139407eea3ede917c41ed8320dd8315671a7c5e8856151eb3"),
    ("verify --p 5 --a 0 --b 1 --ell 3", 0, "db4366a0ae8da03b35005fe9a40e07aaed872b4ceb0022168ac9631ddc052bb3"),
    ("verify --p 11 --a 1 --b 7 --ell 5 --mode sample 100", 0, "3ba13e0a779e1f38dcc407f3e0e552e3d8666b7db0643c6d70c6d31d298af29b"),
    ("verify --p 29 --a 1 --b 7 --ell 7 --mode sample 30", 0, "ca841a9a196a3cc9d358990cf10b3702e09458d9e56e721befc328e2ff87e704"),
    ("search --ell 3 --case full3 --max-p 100", 0, "a8da2beb1ed30e35eb8199d44af0173588aa73fc163bf6ce67149097ac25679c"),
    ("search --ell 3 --case unipotent --max-p 100 --format csv", 0, "17e033257eda76953d411ad2be666e95f5188be28981af78bd055edfc6eeaf1f"),
    ("search --ell 5 --case split --max-p 100", 0, "00d3a83af81c405bec7054d4dee95eb633cca00a62b98d148aab2b08443a0ce5"),
    ("search --ell 7 --case split --max-p 100", 0, "cd87d9fccfc42d39cea77674780c7a6802a1665b14fa430ddb5c0ed3345c9063"),
    ("search --ell 3 --case full3 --max-p 2000 --limit 80", 0, "91897c30b5a36a8dc6f48335e34f4c25bb3b444d5fffb2e6a8f3a4d7352f6374"),
    ("search --ell 3 --case unipotent --max-p 2000 --limit 30", 0, "48bc09bc7be0302c60f8832e1c5b13d79d8ab317494a7bb153b69d4bf7753cc2"),
    ("search --ell 5 --case split --max-p 2000 --limit 20", 0, "a3770dd6fe9dcee4eb888f56f67ce86bc2b791e193624e69493ec75391cf957d"),
    ("search --ell 3 --case full3 --max-p 2000 --limit 400 --format csv", 0, "a5c49968cb4b99990daad06ce24396abaaec22456c08e0c0a4f41d73300ca2b4"),
    ("search --ell 5 --case unipotent --max-p 2000 --limit 200", 0, "ce5855ee476e2cc5045737975198e12a2f86078da92fff50493ddcde6fac339f"),
    ("search --ell 7 --case unipotent --max-p 60 --limit 100", 0, "47db3d9b2ed2504dd31e11bf76b7adadab78849b910af6801776e0a0b33712de"),
    ("search --ell 5 --case split --max-p 30 --limit 100000", 0, "10f21df6de3f771a54832a337ae660efcd05e765103926e99e81512a161b4444"),
    ("search --ell 3 --case split --max-p 40 --limit 100000 --format csv", 0, "0be7d4fda9ce643ea831253f8e1166a138444f9ea4de800fbeacf2339d022ab1"),
    ("search --ell 7 --case split --max-p 20 --limit 100000", 0, "ed683d795055c71e3ffd770de3298e97e87ca8e3ef532d2b6420de47ec09b149"),
    ("search --ell 5 --case unipotent --max-p 41 --limit 100000", 0, "6620770fcc79617e96f944cb16ba82c441da5082ce931d172ef44c0d005aed3a"),
    ("analyze --p 23 --a 1 --b 1 --ell 7 --triples all", 0, "0ca7ecaeeb6f97246e992bec33aae1fcecb814819402c0ac1149e31f24818aca"),
    ("analyze --p 23 --a 1 --b 1 --ell 7 --triples all --format csv", 0, "038631f56054f344a37cfab4dcc4252da9dbb0e3a654f0f555c486e893ab03a9"),
    ("analyze --p 29 --a 1 --b 7 --ell 7 --triples all", 0, "3b9b8a39194358e42d026bbe88bff0d5d01693c4e1bd24ac1b909e0fb7228512"),
    ("analyze --p 29 --a 1 --b 7 --ell 7 --triples all --format csv", 0, "367a5cac37ea3ecf5889de05218eac9ff5d5ec212750d2288ce75e1715a041fc"),
    ("analyze --p 7 --k0 2 --a 1 --b 1 --ell 5 --triples same-char", 0, "717ab5da7e1dc5656eafce99ea2fccdee805a1ce5485ca0487900d501579adac"),
    ("analyze --p 5 --k0 2 --a 2 --b 1 --ell 7 --triples same-char", 0, "f60421d9183b3138628fc79bd06ec3844e42a48620966d6c5e6d7d0faefe64bc"),
    ("analyze --p 11 --k0 2 --a 1 --b 1 --ell 5 --triples same-char", 0, "7cc20e64c6ade4100b1d1fbeca99c7a89921446a96aa15f24c73141306040632"),
    ("analyze --p 31 --a 0 --b 11 --ell 5 --triples same-char", 0, "16fed898e792a55dd25bed67cbd0667f87c5a33136d03f3c1fad6712455e1cd6"),
    ("analyze --p 5 --a 1 --b 1 --ell 3 --triples all", 0, "e42eae06145da81ed33515f077e0bc9d9fcceeedce0d9379b763ab19c56e2436"),
    ("analyze --p 5 --k0 3 --a 0 --b 1 --ell 3 --triples same-char", 0, "b022d7e65b4aef1a088a760d1cab1ba293917eea3b991edc6b55bae3cbff166b"),
    ("analyze --p 13 --k0 2 --a 0,1 --b 1 --ell 3 --triples same-char", 0, "880bc7840e29ca501ee504e897b71f01981abcdd25f582fa718bd4db963a1b54"),
    ("analyze --p 13 --a 0 --b 3 --ell 3 --triples all", 0, "bece7d525ba557074a1eb7ce382074a8ecea00b4d3619536b33ab88c94c93d7d"),
    ("analyze --p 11 --a 1 --b 7 --ell 5 --triples all", 0, "765661332543417d70478e5bd2e891cf691cc68d16a8e5111d70e08ae5304018"),
    ("analyze --p 31 --a 0 --b 11 --ell 5 --triples all --format csv", 0, "7fd4f559ecd775c6255504bf36848948a279219743af541e806da79906d30d4b"),
    ("analyze --p 31 --a 0 --b 11 --ell 5 --triples sample 20000 --format csv", 0, "cad96ec8bfdbc8f248115b944c2166fd0f969999690b915a53704bcec9a603bf"),
    ("analyze --p 47 --a 35 --b 30 --ell 3 --triples all", 0, "ddcfec29dec083639310d48ab08f6f4f67fcc0e27e4e40e04e35f5074a4d85ad"),
    ("analyze --p 13 --a 1 --b 5 --ell 5 --triples all", 0, "cd17a9e07a9098e57fe4816544b7498bda7de12137066d34eabcce5f58ba12fe"),
    ("analyze --p 5 --a 0 --b 1 --ell 7 --triples all", 0, "866d12b1fa5fc4c6ed263f0bfe3d1c566891320a88ecc63f80776289e6a3a4ef"),
)


def run_hashed(argv: str):
    """(exit code, sha256 hex of stdout with elapsed_ms blanked) of one in-process run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv.split())
    out = ELAPSED.sub(b'"elapsed_ms": N', buf.getvalue().encode())
    return code, hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(argv, code, digest):
    assert run_hashed(argv) == (code, digest)


if __name__ == "__main__":
    for argv, _, _ in GOLDEN:
        code, digest = run_hashed(argv)
        print(f'    ("{argv}", {code}, "{digest}"),')
