"""Golden CLI outputs: the sha256 of everything a run writes (stdout, then
each side file by name), each at p = 2 and p = 32003, for
- initial-ideal, sparse-en --certify-cw and cw-check at 2x4 and 3x5, and
  sparse-en --certify-cw and cw-check at 2x5, 3x4, 2x6, 3x6 and 4x6, under
  the diagonal order and a committed weight order per size;
- sparse-en --export dot at 2x4 and 3x5 under both orders;
- strand --betti-csv and polarize --summary-csv on the worked 3x5 dual;
- experiment --mode free-vertex-orders at 3x5, and --mode
  free-seq-necessity at 3x6 with and without --random-orders;
- free-seq on the worked 3x5 dual and on a 15-facet 3x6 dual with no free
  sequence (``data/dual36_none.json``);
- betti on a non-squarefree ideal in a plain polynomial ring
  (``data/ideal_plain.json``) and strand --betti-csv on the 4x7 dual
  ``[[1,2,3,4]]`` (``data/dual47.json``);
- cw-check at 2x7 and sparse-en --certify-cw at 3x7 under the diagonal
  order, whose interval homology covers the largest order complexes of
  the suite;
- sparse-en --certify-cw and cw-check at 3x6 under a tie-heavy order with
  weights in 0..2 (``data/order_3x6_ties.json``), where distinct products
  of contraction terms tie at the top weight and the lexicographic
  tiebreak picks the multidegree of 47 of the 91 basis elements in
  degrees 2 to 4 (and 8 of the 20 initial terms).

The 2x4 and 3x5 digests of the first three commands and the dual35 runs were
recorded from the implementation before integer-weight initial terms, the
betti and dual47 digests from the numpy Koszul kernel before the
standard-subset indicator became an int bitset, the rest from the
label-based face poset before it became an int-mask view of its complex,
the 2x7 run at p = 2 and the 3x7 runs from the row elimination before the
sparse matrices became lists of columns, and the free-seq and
free-seq-necessity runs from the search that counted facets per target
before it shared the one free-vertex test.  The 3x6 ties runs were recorded
from the sparse EN build that made a product monomial for every
contraction term, before it scored the terms as ints.  The diagonal
free-seq-necessity digests were recorded again when its manifest began to
record the diagonal order (it wrote the manifest of the random-order run).
A change that moves any byte of these outputs fails here.  Regenerate them
only for an intended change of output, and say so.
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
RUNS.update(
    (f"{' '.join(command)} {n}x{m} {'weights' if order else 'diagonal'}",
     _sized(command, n, m, order))
    for command in (["sparse-en", "--certify-cw"], ["cw-check"])
    for n, m in ((2, 5), (3, 4), (2, 6), (3, 6), (4, 6))
    for order in (False, True)
)
RUNS.update(
    (f"sparse-en --export dot {n}x{m} {'weights' if order else 'diagonal'}",
     _sized(["sparse-en", "--export", "dot"], n, m, order))
    for n, m in ((2, 4), (3, 5))
    for order in (False, True)
)
RUNS["experiment free-vertex-orders 3x5"] = [
    "experiment", "-n", "3", "-m", "5", "--mode", "free-vertex-orders",
    "--samples", "12", "--seed", "3", "--targets", "2,3,4"]
RUNS["strand --betti-csv dual35"] = [
    "strand", "--dual-file", str(DATA / "dual35.json"), "--betti-csv", "{tmp}/betti.csv"]
RUNS["polarize --summary-csv dual35"] = [
    "polarize", "--dual-file", str(DATA / "dual35.json"), "--summary-csv", "{tmp}/summary.csv"]
RUNS["betti ideal_plain"] = ["betti", "--ideal-file", str(DATA / "ideal_plain.json")]
RUNS["strand --betti-csv dual47"] = [
    "strand", "--dual-file", str(DATA / "dual47.json"), "--betti-csv", "{tmp}/betti.csv"]
RUNS["free-seq dual35"] = ["free-seq", "--dual-file", str(DATA / "dual35.json")]
RUNS["free-seq dual36_none"] = ["free-seq", "--dual-file", str(DATA / "dual36_none.json")]
RUNS.update(
    (f"experiment free-seq-necessity 3x6 {'random orders' if random_orders else 'diagonal'}",
     ["experiment", "-n", "3", "-m", "6", "--mode", "free-seq-necessity",
      "--samples", "5", "--seed", "1", *(["--random-orders"] if random_orders else [])])
    for random_orders in (False, True)
)
RUNS["cw-check 2x7 diagonal"] = _sized(["cw-check"], 2, 7, False)
RUNS["sparse-en --certify-cw 3x7 diagonal"] = _sized(["sparse-en", "--certify-cw"], 3, 7, False)
RUNS.update(
    (f"{' '.join(command)} 3x6 ties",
     [*command, "-n", "3", "-m", "6", "--order-file", str(DATA / "order_3x6_ties.json")])
    for command in (["sparse-en", "--certify-cw"], ["cw-check"])
)

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
    "betti ideal_plain p=2":
        "86ca089eb0e0ff0c46a2e4a23e83b3cadd1870d1bdc5a72f3bb50ff84fdb88ed",
    "betti ideal_plain p=32003":
        "0a6a2f2eb129420888deb829a3234616c55c0717b36b2690b0ffc94263775869",
    "strand --betti-csv dual47 p=2":
        "095371885ba61b3d34493979e0a4a3e281ddf1f3f46718b4a863f4a1a0b8bb26",
    "strand --betti-csv dual47 p=32003":
        "b73c19fdc3240ab8f4bee2b1114c9c2dbc0c7384bacb7f7cb50f727272b6ae7a",
    "sparse-en --certify-cw 2x5 diagonal p=2":
        "c2758e61c338392c7974d724f25fa47448cac16f38eeb9ce7f105c8d120488a5",
    "sparse-en --certify-cw 2x5 diagonal p=32003":
        "40ea32ed08ff61c2cda4359b2eb7053cd96d7437746a0492a99925e9a9d12e6b",
    "sparse-en --certify-cw 2x5 weights p=2":
        "012f5fefb4a1b29362b170ffa08fcfd85e4d0f06edccb8104b4c93c2d852d0e5",
    "sparse-en --certify-cw 2x5 weights p=32003":
        "449ab0b01ce7a51222f6a855c5fced94bb0e3d5395c2b7981447f7c2112c57f3",
    "sparse-en --certify-cw 3x4 diagonal p=2":
        "dd35121a3432bf25da10966097229640287e0c34edf83983f608e41afd348a9a",
    "sparse-en --certify-cw 3x4 diagonal p=32003":
        "d352743ea3ef26a2dea8ca88d7f4d15e2e08cec0dbe0a18edc8976c9af6f6669",
    "sparse-en --certify-cw 3x4 weights p=2":
        "a2c87e8bc166d0844a95e7b4f8f309142fcdda1479dd0b734f9b7a39a2090fae",
    "sparse-en --certify-cw 3x4 weights p=32003":
        "4a866ea019af0427ffe450444e6cd5506b13ea2ffc3253c5ea8fe0c28c183a9c",
    "sparse-en --certify-cw 2x6 diagonal p=2":
        "143302228fc25b1f9fd98951323a069550c17327092b715ea526e7cbf7c8ee09",
    "sparse-en --certify-cw 2x6 diagonal p=32003":
        "e92528969af3e5db5fce3b3bcd834582691ee1c4a3f2a31a4c6f6d06edd3a4d0",
    "sparse-en --certify-cw 2x6 weights p=2":
        "9f7bbaf999679e535a3f43cdcbbf454b12197a47d0b67da836581ae561d33a98",
    "sparse-en --certify-cw 2x6 weights p=32003":
        "0756e0a43882860ef9073fd7c984b22579bf0248cd656ad98cb51fb5b94abbef",
    "sparse-en --certify-cw 3x6 diagonal p=2":
        "ca80261579e19863511439d4f8aaeb7c72819de51e2960d29140c322753470c8",
    "sparse-en --certify-cw 3x6 diagonal p=32003":
        "4fe31d576674e3ca3cac958de143ea8da9e5fc33a05cb79c6f150091eb8dd3e0",
    "sparse-en --certify-cw 3x6 weights p=2":
        "521a0f5452c9dfbe299d405222e5dbfac2525390b103c5e036c4e5731b89b559",
    "sparse-en --certify-cw 3x6 weights p=32003":
        "136802a66ebbe94534c6d5e586ff36a662ad1ae6e1700c75a750fbaa7f1065b4",
    "sparse-en --certify-cw 4x6 diagonal p=2":
        "395d88e7f26cb3ec5ac03fc2e4b2555ee8f3725d4561bd8f309443b74348fb8a",
    "sparse-en --certify-cw 4x6 diagonal p=32003":
        "495d9688990faace5f0d45fe69d0fda5fa6860368726c56b9664ab11ba867090",
    "sparse-en --certify-cw 4x6 weights p=2":
        "77c75de7318be9ebecc025757b07bc97da6ed69f0ef005d6e0f6c89f7947882c",
    "sparse-en --certify-cw 4x6 weights p=32003":
        "83390f871e95ef9ae5fc2de592a2e871b8285b5bc2798f9f25ccab4a50123739",
    "cw-check 2x5 diagonal p=2":
        "fffc1f132ca43b522cc01bc0a5d9d4d48f45d859709d6f3134be71bc2f796bd6",
    "cw-check 2x5 diagonal p=32003":
        "1dc3caa1c885dec769afa7fa7b37b34ab7cdf00defc8e47a3e22b47d04609091",
    "cw-check 2x5 weights p=2":
        "a13f03d28af0b651149a149751d3b96f865e0a054ad49bedecfa8d612e0e3e03",
    "cw-check 2x5 weights p=32003":
        "26a69feb5948dfa9b1fcfc76cb3fc31ca641399f4214550bf3e5bd2f3a1ea43b",
    "cw-check 3x4 diagonal p=2":
        "46ffcc9caf5be2da1c28c9dedf07dacbdcce7e9bb131e0b143e74cb5a9d0a98a",
    "cw-check 3x4 diagonal p=32003":
        "72a97c1aec639922314cd8d7d913d55a32bb4349306a9e948bd52c75bab68566",
    "cw-check 3x4 weights p=2":
        "bf2c5b0e20dc02831acfc07dd90129cfb9a1c1b0c7ae08f85b37482ba313cb6b",
    "cw-check 3x4 weights p=32003":
        "7b00778cf821ba46c10ccac387421b9e793389c38b70f73d7927c30434fd2b3c",
    "cw-check 2x6 diagonal p=2":
        "09ca986c68206d06bb73b5f03e2042b562ac58d9938b10225d432d0fb7490247",
    "cw-check 2x6 diagonal p=32003":
        "36287103f14649cadd5f9241e23254144db7c658f1f94cbe9ef6a026cbcd5581",
    "cw-check 2x6 weights p=2":
        "7a89d929c0d602d387ec602273cc8d4f2061fa1944b647fca82e682bd586096c",
    "cw-check 2x6 weights p=32003":
        "5e5a4676dbf520b87831272df1c94491fc31afcc2f2d6d820adf35deaa6fc9d5",
    "cw-check 3x6 diagonal p=2":
        "05fff443386edeaf5f45c77bf50094c15f58670b8a78ea489b5ad39c6c8dac42",
    "cw-check 3x6 diagonal p=32003":
        "198a29e43e4b78e7a17c695a61111b72f17d752637e197efe5e83188ccf444c0",
    "cw-check 3x6 weights p=2":
        "6dbf7064308d864e89aea2b63f921dc9759bb082cc88257eb9132d7e3651e9c0",
    "cw-check 3x6 weights p=32003":
        "20c11eb79c5d45a616507ca12a1e4878f6a8c20b05e36394733f3b35a9c892ee",
    "cw-check 4x6 diagonal p=2":
        "e5090a959cd483d8aa8f6d0410bb4ac03b803597312c7feb2de54913d6b93345",
    "cw-check 4x6 diagonal p=32003":
        "c49e6e83c6bc755c02b4b02c47fc416e66f604be8ca4f14ae2ccabf540918c67",
    "cw-check 4x6 weights p=2":
        "ff2146bdf61606072f41c127dedd7156cbd8fea8e2db83cfa2ebf41b5bd35117",
    "cw-check 4x6 weights p=32003":
        "e69552a11cf3ade4879d4d2a694ad455e82d15c829b0cc8b268ef2d881867799",
    "sparse-en --export dot 2x4 diagonal p=2":
        "0b63abe52832aee09be65d0d0221ead27a7e391003cad64766b1320b3482039e",
    "sparse-en --export dot 2x4 diagonal p=32003":
        "0b63abe52832aee09be65d0d0221ead27a7e391003cad64766b1320b3482039e",
    "sparse-en --export dot 2x4 weights p=2":
        "0cbee8291bcfd251269d56f0ee0207e4c18599b65379da53760c8c140cd0c91f",
    "sparse-en --export dot 2x4 weights p=32003":
        "0cbee8291bcfd251269d56f0ee0207e4c18599b65379da53760c8c140cd0c91f",
    "sparse-en --export dot 3x5 diagonal p=2":
        "4e83f973f26c8fb9b65987b8bb9403143da0a7fd91ae38e14526875e5050cf8e",
    "sparse-en --export dot 3x5 diagonal p=32003":
        "4e83f973f26c8fb9b65987b8bb9403143da0a7fd91ae38e14526875e5050cf8e",
    "sparse-en --export dot 3x5 weights p=2":
        "fd44684268b3204428c1f368c8881d617eb0d3c058d390031bd96e931e2ff75a",
    "sparse-en --export dot 3x5 weights p=32003":
        "fd44684268b3204428c1f368c8881d617eb0d3c058d390031bd96e931e2ff75a",
    "experiment free-vertex-orders 3x5 p=2":
        "d7764e1fb2f5622cb3f73764ed373e7dff210fa84e4a01d375b0f755e8d00e27",
    "experiment free-vertex-orders 3x5 p=32003":
        "206957663a2e717aecd206b97a8481fdb537fbad29ca0043158e695514609e4b",
    "cw-check 2x7 diagonal p=32003":
        "1f96dbf53dde98a1ee74c3454f0121140225cc9ee560e0b07d59cdb93c8dcc7c",
    "cw-check 2x7 diagonal p=2":
        "6d0b951638a2b21954e763c1e51b0abfa7cd2e0aefc8eeeeb8ed98e4c9142c8c",
    "sparse-en --certify-cw 3x7 diagonal p=2":
        "6a74e0590eb7edd6694c04233d37c85b2f00e86a5690ea0d13e73722215b3859",
    "sparse-en --certify-cw 3x7 diagonal p=32003":
        "52106682dc7ae9a945af79960296d74b28613cc54b187b317e77699595a59ed5",
    "free-seq dual35 p=2":
        "5f6d44db9bebb1b876038edd4f30e0d723f34962ad269880d845e10728f15bda",
    "free-seq dual35 p=32003":
        "3a48e43af1aa77b89d6e3ce1ea2a77266f1216e10a5550c61ca478baf173b76a",
    "free-seq dual36_none p=2":
        "f1df7bc139b332e1f5dea7d4293f8f14fceee23ef0db594e643d1a26411e2b65",
    "free-seq dual36_none p=32003":
        "b0f60f6c3274ccf2a48f7790e1ed89b29d4ce5be88d7516357aefb1d2fd6facd",
    "experiment free-seq-necessity 3x6 diagonal p=2":
        "03dbfc3c7c90edb71ccc9fe8569b67d003b30bbb23d456a51fa42ebfc7a40fe8",
    "experiment free-seq-necessity 3x6 diagonal p=32003":
        "8bbdb89202e53d3a2a3ed905ba582c70b236303c7e8028dc4fdff35398831284",
    "experiment free-seq-necessity 3x6 random orders p=2":
        "a3d7ff0cc6d766fe4cf98e8a65ee037dbef393365cd6b64751f4fc0621edea12",
    "experiment free-seq-necessity 3x6 random orders p=32003":
        "f4fb8d8e28d1b2d7a6b87877c51f44f5e07f22d0e1ccc4a0860aaad31489e225",
    "sparse-en --certify-cw 3x6 ties p=2":
        "4a27e4dd72ecd293ae08707e9427ee6761222bd446b37299cb2fea648672ea97",
    "sparse-en --certify-cw 3x6 ties p=32003":
        "08af634adc74fe2e263811e9617d868b0a8f005a7e5e68b0f2d647673bf056fe",
    "cw-check 3x6 ties p=2":
        "a76609aad22031b5c44a11854fe05fb3a76fd58f4a4614544c7a297cc3342107",
    "cw-check 3x6 ties p=32003":
        "e7a0fbcae8c4f318050323e9fe7983f5f42b97e4ee4c267f3b62c0e98d532324",
}


def _digest(argv, prime, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--prime", str(prime)]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    for side in sorted(tmp_path.iterdir()):
        digest.update(side.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("prime", [2, 32003])
@pytest.mark.parametrize("name", list(RUNS))
def test_cli_output_matches_golden(name, prime, tmp_path, capsys):
    got = _digest(RUNS[name], prime, tmp_path, capsys)
    assert got == GOLDEN[f"{name} p={prime}"]

