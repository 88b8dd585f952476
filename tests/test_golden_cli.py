"""Byte-identity of CLI outputs on fixed inputs.

The sha256 of every file the commands below write is pinned.  A refactor
that is meant to keep behaviour must keep these files byte for byte; a
change that moves one on purpose updates its hash and says why.
"""

import hashlib

from longspan.cli import main

GEN = [
    ("u1.pts", ["--kind", "uniform_square", "--n", "9", "--seed", "1"]),
    ("u2.pts", ["--kind", "uniform_square", "--n", "9", "--seed", "2"]),
    ("c.pts", ["--kind", "two_cluster", "--n", "8", "--seed", "1", "--epsilon", "0.001"]),
    ("n1.nbs", ["--kind", "random_neighborhoods", "--n", "6", "--seed", "1",
                "--vertices-per-nb", "3"]),
    ("dc.nbs", ["--kind", "diam_counterexample", "--n", "5", "--seed", "0"]),
]

GOLDEN = {
    "c.pts": "d4c57dda67874823096043d45a7caa88ab36542c4aabc54f81ccdb12cfd734c5",
    "c.report": "009be151a2760ad3b2f9ea713f3a03f286b06db0103f4ff59b6fb5d047e04112",
    "c.svg": "9c492d827f612c93b470ae44331cf0a900ec2caf9ad4afdf7eb7f2067a41da6c",
    "c.tree": "f1d7cc50b363d1349a9f509adf270959e608bdf3acc66389a1d19eca1b9cc73b",
    "constants.json": "eb2ac105655b8ef11a58de1236b3c2f9f9104bb605589a2b24cd5aa3f672ff65",
    "dc.nbs": "c067ae1da66816b13540680ca76d73a15df327788dec933af490c2e3378446da",
    "dc.report": "78ef322b1e47a2b79fb4e9e07b454ba9537d62d219d867befa7e89e37414fa76",
    "dc.svg": "c3bbe075eef8c55e544fa64a630f18a21a1879d3b4c31168fe527bcd6ba852d8",
    "dc.tree": "3a2c66da3a3c944a8f202d11ce2de856ea9fa19038aa004646bb0a36a21a2209",
    "lemmas-0.json": "8138b59da80af8e60151986001c20cf939d3743e21683d29baf1fb7c249ded9b",
    "lemmas-1.json": "3de01a12fa1dcb1666420d5a274562068b6eaaab2f2154a4ea41021cda724b54",
    "n1.nbs": "4fd3be634fe6d7c8d50034b3190bde0c350c60f4d35813a55123460ef5647bb0",
    "n1.report": "67e5b26fa508d219e1b03e81d56e580e6e9d854a1c618ff1eb9b0d9b8b2bbceb",
    "n1.svg": "be92ff1cdb6f9b297d733f3bdc1874db19bc684337b0b0b9c1f94d325b10e943",
    "n1.tree": "2fda176ab29c565e957d0401a235dc465666a8c50bd60dbc1acd133d8923e161",
    "ratios.json": "b859d1716395196f9c573b85b59a8685adf64b83bc0d21b0b1c0e15e99b5e3b7",
    "u1.pts": "fd198c18d2ffb2efe4f4d66fed00c922be990e807997690aedec8959bb52036f",
    "u1.report": "2c8a64c74ce81095458cc9c9458b1a6b1f47921eee1be516fcd1089fc0de3722",
    "u1.svg": "015c2d6d5e5600f89a7e1fcd3501f0c417086bd8b1e82ae48d27c736e61f0ec7",
    "u1.tree": "2f82730c325b210a31f7c32f4cde2aa4ceec9c79bc7d97b224e133295eb344d1",
    "u2.pts": "b69aab255fdbe1abcac2438bad83a51bfab430b9b3497b518f1b8b04ab12d1cc",
    "u2.report": "898ca1a14d886c57ab2df8a90b2923f606db5e62b5322704932fd7b9954c000a",
    "u2.svg": "ceacf4172126d2753c341c855445eab70c1f8a0728588a6eb131d82ea14873c7",
    "u2.tree": "7e00ac3a1feb3fc850cc257340b2d3d275627834914f8e2553ebb4abcfdc302c",
}


def _run_corpus(tmp_path) -> dict[str, str]:
    def path(name: str) -> str:
        return str(tmp_path / name)

    commands = [["gen", *args, "--out", path(name)] for name, args in GEN]
    for stem in ("u1", "u2", "c"):
        commands.append(["ncst", "--points", path(f"{stem}.pts"), "--out", path(f"{stem}.tree"),
                         "--svg", path(f"{stem}.svg"), "--svg-regions",
                         "--report", path(f"{stem}.report")])
    for stem in ("n1", "dc"):
        commands.append(["stnb", "--nbs", path(f"{stem}.nbs"), "--out", path(f"{stem}.tree"),
                         "--svg", path(f"{stem}.svg"), "--svg-regions",
                         "--report", path(f"{stem}.report")])
    for seed in ("0", "1"):
        commands.append(["bench", "--suite", "lemmas", "--seed", seed,
                         "--out", path(f"lemmas-{seed}.json")])
    commands.append(["bench", "--suite", "paper-constants", "--out", path("constants.json")])
    commands.append(["bench", "--suite", "ratios", "--seed", "1", "--out", path("ratios.json")])
    for argv in commands:
        assert main(argv) == 0, argv
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(tmp_path.iterdir())
    }


def test_cli_outputs_match_pinned_hashes(tmp_path):
    assert _run_corpus(tmp_path) == GOLDEN
