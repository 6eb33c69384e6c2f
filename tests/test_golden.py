"""Golden fingerprints: SHA-256 of the `write_tree` bytes of every builder.

A refactor must leave every value here unchanged. A deliberate change of a
builder's output updates the affected values together with a CHANGES.md entry
that says why the trees moved.
"""

import hashlib

import pytest

from shallowlight.cli import BUILD_ALGOS, _build_tree
from shallowlight.instances import generate
from shallowlight.textio import write_tree

CASES = {
    "uniform-2000": ("uniform", 4.0**-3, 2000),
    "comb": ("comb", 4.0**-4, None),
    "cnet-comb": ("cnet-comb", 4.0**-4, None),
    "sector-lb": ("sector-lb", 4.0**-4, None),
    # deeper ladders: ladder_depth is 4 at 4^-5 and 5 at 4^-6
    "cnet-comb-4^-5": ("cnet-comb", 4.0**-5, None),
    "cnet-comb-4^-6": ("cnet-comb", 4.0**-6, None),
    "circle-4^-5": ("circle", 4.0**-5, None),
}

GOLDEN = {
    ("uniform-2000", "steiner"):
        "e463758edee151b775df37550afb842085a804ddcb24c4032901d8eeab13ae28",
    ("uniform-2000", "restricted"):
        "1a8d9b8290ea274ce4b286c41b03e9aab5fd912ca0b02491d9b5f1497e728cca",
    ("uniform-2000", "kry"):
        "3fa954c285ac3901e55dc739c24d52a9bb1d9eb5f638f2bc5bf47117bcc09691",
    ("uniform-2000", "abp"):
        "a19650a7a9899527c677eec7680bed5bd73555b1b4720b090696f71eedd99ebf",
    ("uniform-2000", "solomon"):
        "3c819823a9ddd8b9c33ea29ff7b53a7762ec5e1f65d90970e0b4d1c61078f4c9",
    ("uniform-2000", "mst"):
        "eceeddcae386dad2259628edb88ea0799413a5ee697de6c89fb91228b581f7ed",
    ("comb", "steiner"):
        "670bd8a1011d162047816413320dbafab9fddf8546e188223314437635c05c6a",
    ("comb", "restricted"):
        "301d9ec1cad43c4190b912df3a9fdc8fc5a10d23e509b9459b6f9587947e416a",
    ("comb", "kry"):
        "d0dc16983ca5a3a3d6e9b682c5a6f4fe9def4ed9fdf7d35d6693080abc227d4f",
    ("comb", "abp"):
        "baf8af8762b6b02048ad5d5ed256a3d78c2d9da981791566ce4235332c148be9",
    ("comb", "solomon"):
        "da64475be128c28b5c38fc02fd8ff7181c7fdc9de39006d558036d2d28d1b060",
    ("comb", "mst"):
        "e090f6f682e6953f123afe9316140874f17e163bb068ee213e758d6649736eb5",
    ("cnet-comb", "steiner"):
        "896dbbb91d9221c43d1f5a196d82032bc36c02b767a5c6ff71a18770df3285ac",
    ("cnet-comb", "restricted"):
        "88486232a80f63a3ecb67c92bd7901afe143261a0b70c0e12a45adcb0b0623ca",
    ("cnet-comb", "kry"):
        "984129b1c94ea759256ff96aa6c60625b30f1dd2bf3f591bb15cc7c23842c279",
    ("cnet-comb", "abp"):
        "5df603e45b1b7ad94d52fe048bdbd522a57198e93006ca82cf0cd7b04ec8e33e",
    ("cnet-comb", "solomon"):
        "558d08a20e4958fde4eca3c652e52e7ebd169fd3b4c90d85ec4bdcaf4665eb19",
    ("cnet-comb", "mst"):
        "392989ad1ef91b05d23514ebc5c3128935dd4c88b6c9af6b7b6f05065bf48ec2",
    ("sector-lb", "steiner"):
        "542376fa0d9701da07a9849d71f2146d918e13817dc8dbe38a69cba3a4df158d",
    ("sector-lb", "restricted"):
        "ce040a2029295a3e2707992ccf96a7905c37596189932a5f4519af2a2d63ae16",
    ("sector-lb", "kry"):
        "8bd78baac01f5aa4bf7e9923cf66af740604400631ce050ddf9b66d65aa9cd7e",
    ("sector-lb", "abp"):
        "1a2b55585ec1fcfafa659aaf8082266239dfee4703cddf514155ed0a3d8a16d9",
    ("sector-lb", "solomon"):
        "fcfc9eb449f4f7cb7ff89941983d6a86c94a467140983aa5f0ba1cf9fabbeeb9",
    ("sector-lb", "mst"):
        "31cc3bb26e5fcb830fca5c35594b3a99d23dacceb5e9ff3662f67587e087ef22",
    ("cnet-comb-4^-5", "steiner"):
        "6d711ff9915d7097077d669cd2eb24706425e686733d0c8c4e406525af5a4e4b",
    ("cnet-comb-4^-5", "restricted"):
        "95bd2ec8c9719a432876f3b36c95df7e2552e89e16422c10cd59dd66a21ae850",
    ("cnet-comb-4^-5", "kry"):
        "e665d326ab47089a9e8fd5198d5f2b2184b4de7b241e663a87f32c4ec9c6b1e3",
    ("cnet-comb-4^-5", "abp"):
        "a8ce311b2272386c7fb14bd62ef8c4109c179cd0a6f61e383ac44ed41eb6e009",
    ("cnet-comb-4^-5", "solomon"):
        "08a5dabb0516e81a5667d1d2e563579f1bd183e9729b657045c52f81b57783fe",
    ("cnet-comb-4^-5", "mst"):
        "7462386f8d59f5d95bea27442adb0c76dd63c99961be6c6d7ae9a1842ec62582",
    ("cnet-comb-4^-6", "steiner"):
        "5a9893739aec39c8dd59f2665ca742c05b0603a0ddd99a943f6d7525dd9a0687",
    ("cnet-comb-4^-6", "restricted"):
        "68e8867bf771702f64c8d898ace7b4577e24aaf40bd261c76bb77619a8a7674a",
    ("cnet-comb-4^-6", "kry"):
        "9839bd1cb398bc03a9772da1a28f83087a892a29c416b6bc2aab13538477d926",
    ("cnet-comb-4^-6", "abp"):
        "aa9b300143027f87f7595d46d3b49f6bf8c7b3bbd9c9dad39da6391b92dccde0",
    ("cnet-comb-4^-6", "solomon"):
        "04795c8b6cee233f6287bd6fb894e98991525885dd261c76d9b5dfd006a2fb00",
    ("cnet-comb-4^-6", "mst"):
        "5e5e9f7b71a41499d2e8633426f0b6641f2bae9e4643135af6f2e1d806304a8d",
    ("circle-4^-5", "steiner"):
        "87e563aec476e4bb5026785c632a72c7722f5421ead87d0da4cfd9951f256215",
    ("circle-4^-5", "restricted"):
        "20b8982e13eff85c2bded7a7d78d00c0e62dd9dccc5a9c7d0fc0f66ad1520113",
    ("circle-4^-5", "kry"):
        "040a7950cb99e7703795d1367abdee9d5d5aab25b0a14d31323b5c82bff26367",
    ("circle-4^-5", "abp"):
        "69e07df0afde9ea56d69acf9a53fb23cf36af3eb9bf848cc5c8dfbd22d3def0e",
    ("circle-4^-5", "solomon"):
        "1c979f4677e42baca4eefc14844f64ed05e62d13ab65930f3ba81b395d5d6c3c",
    ("circle-4^-5", "mst"):
        "ed7f6ebdad6ba323b48f9d6036acd7ec680753c22e39de86732b778c42733d0e",
}


@pytest.fixture(scope="module")
def instances():
    return {name: generate(kind, eps=eps, n=n, seed=0)
            for name, (kind, eps, n) in CASES.items()}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("algo", BUILD_ALGOS)
def test_write_tree_fingerprint(tmp_path, instances, case, algo):
    path = tmp_path / "t.tree"
    write_tree(str(path), _build_tree(instances[case], algo))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(case, algo)]
