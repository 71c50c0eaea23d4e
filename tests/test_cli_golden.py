"""Golden CLI output: the SHA-256 of stdout for fixed invocations.

The hashes pin every byte a command prints (header, data rows, notes), so a
refactor that is meant to keep output identical is checked end to end.  The
commands run in-process with one thread; data rows do not depend on the
thread count (see test_cli.test_correlate_deterministic_across_threads).
"""

import hashlib

import pytest

from divcorr.cli import main

GOLDEN = [
    ("delta --x 100.5 --voronoi-n 10000",
     "902588af4e750e0c42c4a76147fee863f40c1e8389a231caa3a07dc77ff5af7b"),
    ("cf --theta surd:2 --terms 10",
     "da69ec3c1ebd7a1b86b4a40dd7cf73589733ce3f5c1a6a998aef375fb65c0f46"),
    ("cf --construct taubeta:2/1:4",
     "8d3d47c37196d3009273db7c9142f6188c890f49758a1d52933fa4f6713fef50"),
    ("cf --construct taubeta:3/2:3",
     "9b5fd14ad0c3a2a880dbd091b1c25b1b03011b5c28f4eda1dd18048cfdc7ddf1"),
    ("cf --construct jarnik:expexp:6",
     "67b778d9a4afb856e6e8ab8f96ee059cc1da2830f95b0341d2aa9d679fcd0b1c"),
    ("correlate --theta rat:2/1 --xmin 1e3 --xmax 1e5 --points 8 --fit",
     "cf248ba8d22d3bbfd1801f54b48414939a7cb9fc738d3aeea65a8b2096e782a5"),
    ("correlate --theta taubeta:2/1:4 --psi exp:3 --xmin 1e3 --xmax 1e5 "
     "--points 6",
     "21b1726a4a43c5dde71595ac4a1e4aa11b2164ca8f7b1ad9c8649ca633469549"),
    ("--format json correlate --theta surd:2 --xmin 100 --xmax 1e4 "
     "--points 4 --fit",
     "c82456eff00cc1cabdc80f76e01b7532b075457fc70e3eceaef1b6cb98d17ad7"),
    ("compare --theta surd:2 --x 10000",
     "8c7ddae88aad099fa9daf4bc86f4396d419850a8fbfbae43d3037ec54f23a938"),
    ("compare --theta taubeta:2/1:4 --psi exp:3 --x 10000",
     "63182d4b3832e7d42631dd3a52f6ed3ca73161b181ea7083bfb1d13a8af256c0"),
    ("verify --suite legendre",
     "7f8a0cbb0fb39a47e4267771de82c1cd4fa25283568e511347525937edfe7715"),
    ("verify --suite cf",
     "dd224c1ed9b4683295d7fbcf8354bfac3a26d0de4225a5ac7a135f33364e38ec"),
    ("verify --suite spectral",
     "5d77c8803fa880371b7807d71d666eda307f64d08ceaee4d5931c866f6006e9c"),
    ("verify --suite lambda",
     "491f3206c5c500ba6792c0cc30f36f4f7228b5ca6218aacb4cc2b3f8b1d10b90"),
    ("verify --suite tong",
     "62f150882aa7b4ca444360b0f0dc113f346d9d55dccbb783169f18cd27914740"),
    ("cf --theta surd:2435 --terms 5",
     "8e1bb3d2a9c6ce50ff40c49032916568947dc86429fe2f737d5c4b1265278b94"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_stdout_is_byte_identical(capsys, command, digest):
    code = main(["--threads", "1", *command.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
