"""Golden CLI outputs: the sha256 of everything a run writes (stdout, then
each side file by name) for initial-ideal, sparse-en --certify-cw and
cw-check at 2x4 and 3x5 under the diagonal order and a committed weight
order, and for strand --betti-csv and polarize --summary-csv on the worked
3x5 dual, each at p = 2 and p = 32003.

The digests were recorded from the implementation before integer-weight
initial terms; a change that moves any byte of these outputs fails here.
Regenerate them only for an intended change of output, and say so.
"""

import hashlib
from pathlib import Path

import pytest

from rainbowcw.cli import main

DATA = Path(__file__).parent / "data"


def _sized(command, n, m, order):
    argv = [*command, "-n", str(n), "-m", str(m)]
    return argv + ["--order-file", str(DATA / f"order_{n}x{m}.json")] if order else argv


RUNS = {
    f"{' '.join(command)} {n}x{m} {'weights' if order else 'diagonal'}":
        _sized(command, n, m, order)
    for command in (["initial-ideal"], ["sparse-en", "--certify-cw"], ["cw-check"])
    for n, m in ((2, 4), (3, 5))
    for order in (False, True)
}
RUNS["strand --betti-csv dual35"] = [
    "strand", "--dual-file", str(DATA / "dual35.json"), "--betti-csv", "{tmp}/betti.csv"]
RUNS["polarize --summary-csv dual35"] = [
    "polarize", "--dual-file", str(DATA / "dual35.json"), "--summary-csv", "{tmp}/summary.csv"]

GOLDEN = {
    "initial-ideal 2x4 diagonal p=2":
        "a750678abd7dc0268a7f80d2de4c287335b1aeba3953010d6b212c96d754b311",
    "initial-ideal 2x4 diagonal p=32003":
        "f987a42b0fa1557a8bf671d65475ba2d2b06337f3e61fb5535c4fd7b7f9c1443",
    "initial-ideal 2x4 weights p=2":
        "1ce0a967be8479f75bf73d1ace75f3d1c0fba9b3ad4af7af8f41a21b35a43328",
    "initial-ideal 2x4 weights p=32003":
        "c93b8226f874a7fde4ae2254893c3d8d5545fcaef1080f3e33bd5208c878cd54",
    "initial-ideal 3x5 diagonal p=2":
        "af488a57529154451cd756e5a1ed18aae55e8297b644c48deb759282b253c648",
    "initial-ideal 3x5 diagonal p=32003":
        "f63ccbb2b16e20c26096f281c87c85329c4ba3be0eb3d4cc30325895b390fe64",
    "initial-ideal 3x5 weights p=2":
        "3e8f813e8cd285d96265aa4fa156ec635cf75aadf20bc727c977ead8cf410ca8",
    "initial-ideal 3x5 weights p=32003":
        "8ae69eeb419b8c22ba2fdd3fc0836850d9540ab8558b0d89387ab54a865384f4",
    "sparse-en --certify-cw 2x4 diagonal p=2":
        "e44fa10a075b523c8eb8de77a24b7d87190c1686c4f2f160e1f94e219ba0afeb",
    "sparse-en --certify-cw 2x4 diagonal p=32003":
        "53c3657112854ab29217bccd12f39de839e3cc6de6dbedb460e79944ca4d1fc1",
    "sparse-en --certify-cw 2x4 weights p=2":
        "db7400c52a50d1cb950f6caef833f64f009a0786abce04b47c3253e93b3cd5f4",
    "sparse-en --certify-cw 2x4 weights p=32003":
        "beda7534af00faad0c8b06d63d3ee95eaaafe39068e0dee8ee60a8baaf46e8f1",
    "sparse-en --certify-cw 3x5 diagonal p=2":
        "cb93d03783076154ebab4eae8ce74f814f19cdf8f696d81c2acda6dfcf02c3e9",
    "sparse-en --certify-cw 3x5 diagonal p=32003":
        "eaaddef1e0cd141cbfa8aaa97c95e6e3f25a085f6d8dbd34b62981f5d41876ad",
    "sparse-en --certify-cw 3x5 weights p=2":
        "8542eb7d5169a0852301d1ee955b9497c5ebabe513e9012a9a01d05c5198c894",
    "sparse-en --certify-cw 3x5 weights p=32003":
        "33166280fbd233c0abffa78b928e74fb43ef8e8b8f243d3750e85731aa43d462",
    "cw-check 2x4 diagonal p=2":
        "81f58d7b658a8894757c7df20e172f7a465fc0c2f6e05aa2da2e7900feabe3f3",
    "cw-check 2x4 diagonal p=32003":
        "5d2d1501fdbcf43185f60990f358599173d4a6efdab87bc008fc554e57a4788c",
    "cw-check 2x4 weights p=2":
        "0bc0728fd59c0182b1f54dcc0f5b77f9f7494b24864df2adcd797b65d188d972",
    "cw-check 2x4 weights p=32003":
        "27fa2f413d0880cc06900add2ed10142aeef306132de2d56f40603ca5afddcc4",
    "cw-check 3x5 diagonal p=2":
        "bbc098c391a6ea6dc98733e04da5532eb4c3d4cf671a74e78bfb4b4db110c524",
    "cw-check 3x5 diagonal p=32003":
        "a937767891fcf2fc9e45572ddf991b6ad883da33bcd71380eec28d2eff677d91",
    "cw-check 3x5 weights p=2":
        "e1f2a935814b432809825d86ce1c0b2d9f384f0a844848653995b506b5d847b8",
    "cw-check 3x5 weights p=32003":
        "0950ec188f1a2bc2f3bf02b76ba6e703524ffc5d69503d7bdd1d4d1eb7974174",
    "strand --betti-csv dual35 p=2":
        "714ab66d25e4e4b0e748d360fecaa7add8c67017ea4ba799ae480dfebcf7034d",
    "strand --betti-csv dual35 p=32003":
        "01b24e055c48f5f13ec5564657dc3e145a75c4429e3dd7081b5aadc6eea31302",
    "polarize --summary-csv dual35 p=2":
        "2d6561fd7e7763a9c7edcbaf9a1107763ef3230dadace98aa630319efdac3118",
    "polarize --summary-csv dual35 p=32003":
        "479292bd75916d635ed62914f78f6eac1eae19aab2385f831e3f69e1f3c93548",
}


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("name", list(RUNS))
def test_cli_output_matches_golden(name, prime, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RAINBOW_PRIME", raising=False)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in RUNS[name]] + ["--prime", str(prime)]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    for side in sorted(tmp_path.iterdir()):
        digest.update(side.read_bytes())
    assert digest.hexdigest() == GOLDEN[f"{name} p={prime}"]
