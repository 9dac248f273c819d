"""The CSV and JSON mirror of every non-sweep subcommand, pinned by SHA-256.

The benchmark's reference pins ``sim --config --json`` and the sweeps are held
to their per-point oracle, so these are the byte checks on the ``sim``,
``size``, ``calibrate`` and ``mc`` tables and their JSON mirrors. A change to
any pinned output is a change to what users read, and must say why.
"""
import hashlib

import pytest

from dyncomp.cli import main

# call -> (SHA-256 of the CSV, SHA-256 of its --json mirror)
PINS = {
    "sim": ("d1fdfad59513af7d2f28edd63b49516de5e0c053c86f9e869ed041f2295741b9",
            "13cd48ccb3745e96d3177bad1f8bae148f5e5f57bb233c402af9de066996a5ad"),
    "sim --set alpha=1.37": (
        "e8fdca9144eac2b91e1dd568e21d14eeda9c0d80410cdf276da4cd9e965c908e",
        "183f88ee2a44762b88c6f1749fadfe198fc48b48d1edcc7afbf00995c7569870"),
    "size": ("b1657176e7b6d45a8d919914b0a1a6344a16ca7ec02552254e9213d9e00bd064",
             "a3d0e22d06f299d1b493312c2ace5a89bd1062c6806fa00e3a90e74f4718624b"),
    "size --set alpha=1.37": (
        "f0b694c1085eebe84b9549e5bf7e2ef8df55518b924bac51979a20c04c099980",
        "6d2bfaf4a81defc189b960ae6108b3bedce8dbe0e536ed0f480492ba7ae2be0d"),
    "calibrate": ("b0bcc5e9bb338ca6e380886fb5da33f2c81264e1d5e5c39999bec49a21ffcc1d",
                  "217b11817be78961b9037b5de9c627e74439eaae37220fcd05813a633a626f4f"),
    "calibrate --set alpha=1.37": (
        "aac6eec5e879c824b92bb957bd8bed6082eee34f462f09a41d1a19b8799b8e2f",
        "78635ef0cc16f7f1cc9476dbdbd7424ae84aa624bb3567e6bcbe444ee8ac6c3a"),
    "calibrate --trial 3 --set cal.phases=2": (
        "0786797b525384f6788eae3ac47038c1c933d091d30228f5fc997113821fd6f4",
        "cd2e77c99cbb641ffee11ab762939861f3d89dab0a1d13657c9621961bd771f0"),
    "mc": ("9d5cec2cbb9a2cb1416530eb25c5abebb430dda5fee7b436ab5fda51434091ed",
           "9d0320a0c37a31b73dc02701e40203954d97a907e2e52b6bce4a00b02a3fe136"),
    "mc --set alpha=1.37": (
        "444e02377d3bdc8bd00ff1987f2ff3813fa1e15e71a932b8c001e30a9ce2eff1",
        "c6f9c178f567da04bb45a4f4e0fb19e0d74de09904aecb750a78f7e64900296f"),
    "mc --trials 50 --calibrate --seed 4": (
        "869d46231c3448d6697355659dabfd5c77ca6d1ca591c4f930d0e4217504c2b2",
        "8e9adfbd378b55fb5c44cae8e742c567adbf5f86dd3021818f485e0c834355ef"),
}


@pytest.mark.parametrize("call", PINS)
def test_csv_and_json_mirror_bytes(call, tmp_path):
    out = tmp_path / "table.csv"
    assert main(call.split() + ["--out", str(out), "--json"]) == 0
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest(out), digest(out.with_suffix(".json"))) == PINS[call]
