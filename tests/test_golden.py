"""Byte-identity of CLI output: SHA-256 of stdout (or the ``--out`` file)
and the exit code, for the README commands and a spread of flag
combinations.  A change that alters any of these bytes must say why and
re-record the digest.
"""

import hashlib

import pytest

from pretzelhfk import cli

# (argv, exit code, sha256 of the output bytes); "OUT" stands for an --out path
GOLDEN = [
    ('--pretzel -2,3,3', 0,
     "a9024c31c79090fb3c1bb51fa47cac502f55a907678532425e6021020bab1f39"),
    ('--pretzel -2,3,5 --verify --format json', 0,
     "0a534e2953b99728dfd5b31774d68b59858f81c5488c8afd9c56840b2c1e1c9b"),
    ('--sweep a=1..3,b=1..3,c=1..3 --family all --verify --format json --out OUT', 0,
     "35309718ed3880fada13df771d2a984a6a498e63ef95c56ad8539451c2a4cea2"),
    ('--sweep a=1..2,b=1..2,c=1..2 --format csv', 0,
     "f10e739f97e0d3e3ee93b321ddfc2d0547b390ed773044d40fe960b65b1112c7"),
    ('--pretzel -2,3,5 --verify --format pretty', 0,
     "4099f30b1a50f055a598d9f03de55b01ecb327828430c1a7bd951bd1c6b08522"),
    ('--pretzel -2,3,5 --verify --format csv', 0,
     "5416198fccb1139ad98e328978e5a05d8544c1155d5ea2617392e00f3472fc22"),
    ('--pretzel -4,5,7 --format json', 0,
     "2067aa09e9735a8b38b2b660c9dd75e10c8149ccc5b353504b3caef4a7acbd92"),
    ('--pretzel -4,5,7 --variant a --format json', 0,
     "2067aa09e9735a8b38b2b660c9dd75e10c8149ccc5b353504b3caef4a7acbd92"),
    ('--pretzel -4,5,7 --variant b --format json', 0,
     "2067aa09e9735a8b38b2b660c9dd75e10c8149ccc5b353504b3caef4a7acbd92"),
    ('--pretzel -4,5,7 --variant both --format json', 0,
     "42617eb9bf3ef658578188cfb8840cbfcdbe039fe6db289b59e2e5525bceb73b"),
    ('--pretzel -4,5,7 --variant a --verify --format json', 0,
     "8c898e4d151679ca5c63d3238dbaa490aaa8e2d08a956c0db922ccd56b74e67d"),
    ('--pretzel -4,5,7 --variant both --verify --format pretty', 0,
     "58c05d45520219a764a271decb8f19a8167e8d7e1cbc67abc622a9a4996460b4"),
    ('--pretzel -4,5,7 --oracle fox --format json', 0,
     "1c6e1420e001580cac78b8d3622998377bd9a5ad534185c475bc13ffc96f2e8a"),
    ('--pretzel -4,5,7 --oracle statesum --format json', 0,
     "1c6e1420e001580cac78b8d3622998377bd9a5ad534185c475bc13ffc96f2e8a"),
    ('--pretzel -4,5,7 --oracle both --format json', 0,
     "2067aa09e9735a8b38b2b660c9dd75e10c8149ccc5b353504b3caef4a7acbd92"),
    ('--pretzel -4,5,7 --oracle fox --variant both --format pretty', 0,
     "32d20d377c9aa416962c85be1ad5476cd6d53f161269db4b8e803b1a0a1dd170"),
    ('--pretzel -4,5,7 --oracle statesum --variant a --verify --format json', 0,
     "8c898e4d151679ca5c63d3238dbaa490aaa8e2d08a956c0db922ccd56b74e67d"),
    ('--pretzel 2,-3,-5 --verify --format json', 0,
     "dc6abb3491102da429231ae4c1f58e0addbea6f3dbe97cda2a2e27c2f42517ba"),
    ('--pretzel -2,3,-5 --verify --format json', 0,
     "18064ea99d57220063596819842a1c926632769eaa258bc2ab246bab0bd60c4b"),
    ('--pretzel -5,4,-3 --format pretty', 0,
     "ad558858d33895344d54aa67162c9398f0cf613697df202e59fcc4a44577bdc4"),
    ('--pretzel 2,-3,5 --oracle statesum --format json', 0,
     "f24b375362080806530dcf838c1616ff596ca9bb30d81a89adca2acc9b293e56"),
    ('--pretzel 4,-5,3 --verify --format pretty', 0,
     "ce0bf8f7201288046c18a977009a4d413fb2790a42e3f006d128bee3f9a3ed91"),
    ('--pretzel 2,-3,3 --variant a --oracle fox --format csv', 0,
     "d04e51fa464b713224854a59cc3e161acdc4ddf0557b20b37906681c4c80f9b1"),
    ('--pretzel 3,5,7 --format json', 2,
     "36fd266856342cf7c7ae0b9658a4b907ca50d14f8e4e48bc10705c3ef94b3e9d"),
    ('--pretzel 3,5,7', 2,
     "3ba6088339a609747b6458cb2fba5b19db87a84e96915866c9f467780c46a61d"),
    ('--pretzel 2,4,6 --format json', 2,
     "d7f84879f00dfbbdd2b9462959caf26ace4bdc11c63d99114371b42b84b7034d"),
    ('--pretzel 2,4,6 --verify --format csv', 2,
     "37b6c91418206044253a18f5e13e43febea5703af90cccec1f49df90a06d8819"),
    ('--sweep a=1..2,b=1..2,c=1..2 --family thm2 --verify', 0,
     "6f97881b618b2d86b4c473f9c78bf5824dce287c9b812395a68c0fe03761cd09"),
    ('--sweep a=1..2,b=1..3,c=2..3 --oracle statesum --variant both --format csv', 0,
     "6d9d22a0689a1b7d7af21d771825d8f11420d01f1effa42c732b520c0da744b8"),
]


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_output_digest(args, code, digest, tmp_path, capsys):
    out = tmp_path / "out.txt"
    argv = [str(out) if a == "OUT" else a for a in args.split()]
    assert cli.main(argv) == code
    data = capsys.readouterr().out.encode()
    if "OUT" in args.split():
        assert data == b""
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
