"""Pinned history digests: what every scheduler records, byte for byte.

A seeded run is byte-deterministic under any ``PYTHONHASHSEED``, so "the
recorder and the schedulers' bookkeeping record what they recorded before"
is a digest comparison, the way ``tests/faults/test_campaign_harness.py::
TestPinnedOutput`` pins drill output.  For the 12 registry protocols and one
run each of the three distributed topologies the literals below pin sha256 of
``str(db.history)``, ``repr(db.recorder.live)``,
``repr(check_one_copy_serializable(db.history))`` and that report again with
``edges`` and ``cycle`` masked.  The first two were taken at ``e44ad8e``,
the fourth at ``cdce730``, and the third was re-pinned when the certifier
began storing MVSG(H) in compact form (the fourth did not move); they must
never move unless a change *means* to alter what a scheduler records.  The one exception is the third column: a
change to how the certifier *stores* its graph moves ``CheckReport.edges``
and nothing else, so it may re-pin the third column exactly when the fourth
stays put.  ``cycle`` is masked too because which cycle of a cyclic graph
the search reports is not part of the verdict; the one run that is not 1SR
(``dist-mv2pl``) has its cycle checked against the reference graph instead.

Run as a script (``PYTHONPATH=src python tests/histories/
test_history_digests.py``) this file prints the capture; the test runs it
that way because identities of read-only transactions come from the
process-wide ``Transaction._ids``, so the capture needs a fresh interpreter.
"""

import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: name -> (history, live, check report, check report less edges and cycle) sha256.
PINNED = {
    "vc-2pl": (
        "38c0bed6449a2c8039223bab9cebac38337ce89e7996b931390116109a361d28",
        "a014cea5f753c1e7c2fb30d13ae4363a7a5f1bc49141f209ceb762e1fb295560",
        "4e0b3b108139b26aeac8c245ece8520103a369881a41b0bb6f9cb7a9b8e5b9e2",
        "d361a1207628ffc30d30291e346f8f284f485c9ac3ba741aecfa7dbed3471873",
    ),
    "vc-to": (
        "214c1ba97add5690eb5780ef1817844776b2101c693c3a50c7705fcfce6355b3",
        "8c91a8f40b0eeec0bd9b71d90fdec627cc427f2377c3c12503cc40f23b232881",
        "2500a0861657a7e72237550bfbdad3f0b5f2796646f53e64e63ad2cda795d353",
        "e7cecdaf4abd709a9f181364fb0b3454629ff806aa69915050478bdfd95ddcc1",
    ),
    "vc-occ": (
        "1ef45703e4f0c50073ba25d008ae3a34a46b615819660c36657ecb557638d388",
        "d92897a6ba8664bccbc3296b1cbc22b45bb33ee7dbd57ac5afc712f1ca15166a",
        "70fdb7f44004f4b722a057eb14c351993f88ad000f71a45ebef82b265413a9b1",
        "156bb893206345dc15ff7851e5c7cb92be02ed22cee7b613c97b2a9ccbad66f0",
    ),
    "mvto-reed": (
        "6409d7993da4544365f0d2e962dc25bd5ae19dab2e6b52f3fbda1d4e45c54248",
        "a073a310846968cb7ab6825d3c5e80da0b00c9be742bacef749ce469d5552d6d",
        "330c6bd91ee1364ad1d482a3ce5e0fe8c1f4a8f7bd50842fbde5e9b399a14b46",
        "ee26a20027ea25893b8321eeef60e0264c4eabe2cdc93e8e29ee3b4ee2c872e0",
    ),
    "mv2pl-chan": (
        "b159829463c950c83231991c1ecb387f7f7eb8dc41cb7ccb6297ddca9ebf6a71",
        "3b4709622313ba13caba0c3783ad16a7002c17ccba42edfa2451f582423191da",
        "ccdcc54f7642091f9f9138ee828b72ad1339519604cabc6d6d2b5bfadeab62a7",
        "d19e09ddc7aa2dd137ee6beee6634c5bb2cae8075b75580949f66ba5f1901496",
    ),
    "weihl-ti": (
        "fdb07eed55013fb43a7a33c5ba7ee59c1fc33996269cb9b4201ed48bb06e5a2e",
        "57e38828719a1404abda0deed85b588c7a0fd522da12d5e35f6ce1537da7ca94",
        "8fa529562429a2a7d9a179eccdc75be0e32e50e023882de45c2c871f4f7f4da2",
        "29fe49e27bd1561623ae5e5af591a28242dc422f67436706e9312f9a2b5d03e8",
    ),
    "sv-2pl": (
        "0f341c3431d4d70d1adb5d04700a52002110063db8f98874189887c0464ad496",
        "da2dc7293c62dd77443c071e7c299ef969e233f81d4b23459ee82f18788d63a9",
        "05a563e09724da37c0f286ec342e6c2b355d5baa7aebe04c1472ba5e6b39adeb",
        "3ec9e0ac4d18d09ac4152f65e1cc82d5f4712ccdb04babff68f383f7df621d18",
    ),
    "sv-to": (
        "5779b0be2b902678e12ee582b9ece79917f24a7d9ed1b7c77df7228b6195afbe",
        "19ae9271d306f7072ba6b276ee3f3b09e3d21150a4278c5256b0d647c610cc25",
        "27aed6a35ae762acf8b10b50c912ae0afab3632f40dec67ddf1224c73b4f4816",
        "56f58730189b2957c21c916822b6fd9194b3f2830475d6cbe321f904e445bf83",
    ),
    "vc-adaptive": (
        "af2b23cae2defc9906d99b6657bc23319919388c74e59069f35cf18f976541ae",
        "04f052a1e7b7fda3ba1568ec6fc01037624c2b92c744ae7e261338ff9cb228ab",
        "4aee1dafb321663ae6c868fac17fade3d234dd123e854a47c481fb0126b1f11d",
        "b49f3c116d2976c08ab0100c764cd34abf92a9a2ec9254c529d0c1dc8bebe79a",
    ),
    "vc-2pl-wal": (
        "661a5800bae08d0b809e6db50328bc5cb56556121d019c961ca621f314b8fdb9",
        "e0c41a3ae367a4d6790a7dab837b495bc381c6e85a0c34bfdb474bdb336c0fa6",
        "6ca0db6acf3f25f77e970eb1fe309509ae32b7944a53b841d6c812e1743a4dac",
        "1357df096bfd8e71e1f20d974eae4799ba3519e78cc188a0df7c709427810aca",
    ),
    "vc-2pl-granular": (
        "ca0759a6be26dc694cd0eb30853742c3d52f1692ed6d60abe306d3ee472984a9",
        "aadd3e5777147c54644eff824fa66c3a2657377b0347a91a97c0f42095257bdb",
        "64ba2202bfd84e337779ccc0ca5f924ad466d80967d402026c33b34ae756c72f",
        "4d92472ecd308a9d264343b9e459f1476dbbae8081c9c34be8e1dabb6cdd5a09",
    ),
    "vc-occ-fwd": (
        "d50fc150dc819231f4a97e01d1ccdcb6bd82408991c892241bd35be06bb8df81",
        "85e981fa730b53400078617b003a1c94e10e956c2b364c0fd04988e4d51f4dc7",
        "0bb4ee49d69677248fd865002dc8eb4c006629fc4335480e7ff6d933577b1444",
        "f7da70109d8e4a1f5093fc71f908eaeb47805e014517e5594023fc4e26a997e3",
    ),
    "dist-vc": (
        "1e45f8cfba90a4798ad96ad9dfdeb0a1fa5f456ba2e0ad2e3b930a50859a9294",
        "59f1063f43175225a22a12042bc9ab8e083ae06a0a4c404658965a69637d9eeb",
        "fddcda7f04597eb4e7da9e6dd88e651b6c2ae0d3a81de888239277b10fb713f2",
        "7fba63b036badeb10ca2c0266b704e35557ed2d27e835fc84602173198e653ef",
    ),
    "dist-mv2pl": (
        "fcafe7c0dd266818f9ecbd34569cb08d5608d1da684b2216ef68f16e4ebcdee1",
        "34da945742f069fbe487cbff99c3380507d9f6fdda3d02e2141ce4d251d773a4",
        "f94f7ef6fbec0536b7744cf95cd9d5747e156a6e55b040c5c3294948f1abf364",
        "fd74487d6a8da92e82a20914a8f5e62901228b220f0e4c1810a76eaaf2b0ff43",
    ),
    "shard": (
        "3034786c48dfd01b90720b284a673d5e49d136fc1b2dc7c30d727fa400c490b3",
        "11c5af09346e55f6d6545c25b72d537daa0bc19c3d4a4a66ce51d5159481f870",
        "c9a1231f3c751c8f49abe7f659b01ebbd6c9a6ecc3d7710546c92abecac401bf",
        "6c8d0b6caedf31251cdb240449820c69a948ceae51c442bdb571aa7220677539",
    ),
}


def runs(only=None):
    """Yield ``(name, db)`` after each seeded run (all 15, or just ``only``)."""
    from repro.bench.runner import SimConfig, run_simulation
    from repro.distributed.courier import Courier
    from repro.distributed.database import DistributedVCDatabase
    from repro.distributed.dmv2pl import DistributedMV2PL
    from repro.protocols.registry import PROTOCOLS, make_scheduler
    from repro.shard.database import ShardedDatabase
    from repro.sim.engine import Simulator
    from repro.workload.mixes import balanced

    class DeclaredMV2PL(DistributedMV2PL):
        """Read-only transactions declare every site, so the stock client
        loop (which knows nothing of a-priori read sites) can drive it."""

        def begin(self, read_only=False, deadline=None):
            return super().begin(read_only, self.sites if read_only else None, deadline)

    config = SimConfig(
        duration=200, user_abort_probability=0.02, check_serializability=False
    )
    topologies = {
        "dist-vc": DistributedVCDatabase,
        "dist-mv2pl": DeclaredMV2PL,
        "shard": ShardedDatabase,
    }
    for name in (*PROTOCOLS, *topologies):
        if only not in (None, name):
            continue
        sim = None
        if name in topologies:
            sim = Simulator()
            db = topologies[name](3, courier=Courier(sim=sim, latency=1.0))
        else:
            db = make_scheduler(name)
        run_simulation(db, balanced(seed=3), config, sim=sim)
        yield name, db


def capture() -> dict[str, tuple[str, str, str, str]]:
    from repro.histories.checker import check_one_copy_serializable

    digests = {}
    for name, db in runs():
        report = check_one_copy_serializable(db.history)
        masked = dataclasses.replace(report, edges=0, cycle=[])
        digests[name] = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (
                str(db.history), repr(db.recorder.live), repr(report), repr(masked)
            )
        )
    return digests


@pytest.mark.parametrize("hashseed", ["0", "7"])
def test_recorded_histories_are_pinned(hashseed):
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
        capture_output=True, text=True, timeout=120, check=True,
    )
    captured = {
        name: tuple(digests)
        for name, *digests in (line.split() for line in done.stdout.splitlines())
    }
    assert captured == PINNED


def test_the_reported_cycle_is_a_cycle_of_the_reference_graph():
    """The fourth digest masks ``cycle``; this is what holds it instead."""
    from repro.histories.checker import check_one_copy_serializable
    from tests.histories.test_serializability import reference_mvsg

    ((_name, db),) = runs(only="dist-mv2pl")
    report = check_one_copy_serializable(db.history)
    assert not report.serializable
    assert len(report.cycle) >= 3 and report.cycle[0] == report.cycle[-1]
    reference = reference_mvsg(db.history)
    for src, dst in zip(report.cycle, report.cycle[1:]):
        assert reference.has_edge(src, dst), f"{src} -> {dst} is not an MVSG edge"


if __name__ == "__main__":
    for name, digests in capture().items():
        print(name, *digests)
