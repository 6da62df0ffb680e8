"""Golden reports: fixed jobs whose standard output must stay byte-for-byte the same.

Each digest is the SHA-256 of everything ``kzero`` printed to standard
output for the arguments beside it.  A change to the numbers, the
layout or the key order of a report shows up here; a deliberate change
to a report updates its digest in the same commit.
"""

import hashlib
import math

import pytest

from kzero.cli import main

GOLDEN = [
    (
        "71b00e8f86db7380ba02a05cd861c0312629f366e692bcd3917b1190b90a4b5a",
        ["run", "--mode", "ruled", "--genus", "1", "--deg-e", "2", "--deg-q", "1"],
    ),
    (
        "247ec6264b2f4d3951a1f8631983da9cf2fd7617d2d1399abeb6aa2ee6feee45",
        ["run", "--mode", "ruled", "--genus", "0", "--deg-e", "-1", "--deg-q", "-1", "--json"],
    ),
    (
        "8649063022f5aa2ebfac5c5a4fccc6332a60ad4dd3506e4b1757c380910e71d6",
        ["run", "--mode", "ruled", "--genus", "2", "--deg-e", "3", "--deg-q", "-2", "--series-order", "40", "--json"],
    ),
    (
        "207fe2393d2c7c1dd0603989c7f64ee75f9edd69a20085189375820ea0fc9e21",
        ["run", "--mode", "ruled", "--genus", "5", "--deg-e", "-7", "--deg-q", "4", "--series-order", "120", "--json"],
    ),
    (
        "c371c137414ed2069168bd1f82968b023e174c9664f9b3cf955ca3db502c33cc",
        ["run", "--mode", "pnbundle", "--point", "--n", "2", "--koszul", "1:0,3:0,3:0,1:0", "--json"],
    ),
    (
        "2565af3b91d38e9c01f7f34b05d1211e50e1a3a625ea250a2d9047e9a870750b",
        ["run", "--mode", "pnbundle", "--genus", "1", "--n", "2", "--koszul", "1:0,3:2,3:1,1:0",
         "--series-order", "60", "--json"],
    ),
    (
        "02aee52ee4eea2755f494f3779c2c42887e62d6675ac10174c244190acc12d24",
        ["run", "--mode", "point", "--relation", "1,-3,3,-1", "--json"],
    ),
    (
        "7e0f75acb71a94686b0af1bc4bfe909f06dc158996e5e58eac057984968567e8",
        ["run", "--mode", "point", "--relation", "1,-7,2,-1", "--series-order", "80", "--json"],
    ),
    # ranks past CPython's 4,300-digit int-to-string limit (a 3.4 MB report), in both layouts
    (
        "407f94890d795641bf1f8d985ea3ac4194cef7f261cac2fd8508da64731a2dcd",
        ["run", "--mode", "point", "--relation", "1,-1000,1", "--series-order", "1500", "--json"],
    ),
    (
        "3e8727af0fdbb46143457e91791523f77983accad3a872705dbb3a023b26d196",
        ["run", "--mode", "point", "--relation", "1,-1000,1", "--series-order", "1500"],
    ),
    # zero ranks, reached through sums that cancel: 1 0 -1 0 1 ...
    (
        "ade14b431f8a9daafdd71823690cb0f21aae06bcb25ee2ad7a0a29ddb357b750",
        ["run", "--mode", "point", "--relation", "1,0,1", "--series-order", "9", "--json"],
    ),
    (
        "a46390a379b84981e91a23c5caba9844aa6fc5f4bf30914d74bab9a520082a68",
        ["run", "--mode", "point", "--relation", "1", "--series-order", "5"],
    ),
    # bundle ranks by the rank law binomial(n + i, n): P^40 over a point (a 158 kB report), and the largest
    # n of the benchmark's bundle jobs over a curve
    (
        "a8ef789223cc0946c38928716ebff730c6d921f4eb07d58fdbbdf736b6b22218",
        ["run", "--mode", "pnbundle", "--point", "--n", "40",
         "--koszul", ",".join(f"{math.comb(41, q)}:0" for q in range(42)), "--series-order", "2000", "--json"],
    ),
    (
        "ef0b314302c55bfc455ee3cdaba5bfac223ec245784d2d40247452b742b81af1",
        ["run", "--mode", "pnbundle", "--genus", "3", "--n", "8",
         "--koszul", "1:0,9:2,36:-1,84:3,126:0,126:-4,84:5,36:1,9:-2,1:0", "--series-order", "1600", "--json"],
    ),
    ("55f591885005b070132706dabb153d43332870ad09cb96f300cca40ed3dcdb4c", ["verify"]),
    ("756c55950e37376dc0656901d8c297a09e4af0164e1e1eb0e12b32ebd2d5547e", ["verify", "--grid", "2,7"]),
]


@pytest.mark.parametrize("digest, argv", GOLDEN, ids=[" ".join(argv) for _, argv in GOLDEN])
def test_report_is_byte_for_byte_unchanged(digest, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
