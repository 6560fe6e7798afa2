"""Pinned history digests: what every scheduler records, byte for byte.

A seeded run is byte-deterministic under any ``PYTHONHASHSEED``, so "the
recorder and the schedulers' bookkeeping record what they recorded before"
is a digest comparison, the way ``tests/faults/test_campaign_harness.py::
TestPinnedOutput`` pins drill output.  For the 12 registry protocols and one
run each of the three distributed topologies the literals below pin sha256 of
``str(db.history)``, ``repr(db.recorder.live)``,
``repr(check_one_copy_serializable(db.history))`` and that report again with
``edges`` and ``cycle`` masked.  The first three were taken at ``e44ad8e``,
the fourth at ``cdce730``; they must never move unless a change *means* to
alter what a scheduler records.  The one exception is the third column: a
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
        "62d518bd9c70fdbcf77844a28447aa82263ac813f636c7c3d3682bd0680d5335",
        "d361a1207628ffc30d30291e346f8f284f485c9ac3ba741aecfa7dbed3471873",
    ),
    "vc-to": (
        "214c1ba97add5690eb5780ef1817844776b2101c693c3a50c7705fcfce6355b3",
        "8c91a8f40b0eeec0bd9b71d90fdec627cc427f2377c3c12503cc40f23b232881",
        "8e78298ba8c3d4464cd181f9c6d9dca21c7e0e18e9a738e7778cd0a1733d7a1d",
        "e7cecdaf4abd709a9f181364fb0b3454629ff806aa69915050478bdfd95ddcc1",
    ),
    "vc-occ": (
        "1ef45703e4f0c50073ba25d008ae3a34a46b615819660c36657ecb557638d388",
        "d92897a6ba8664bccbc3296b1cbc22b45bb33ee7dbd57ac5afc712f1ca15166a",
        "af105c11583bd0f0787203755cd00b58422a047076629f2d285a6cda6fe449fd",
        "156bb893206345dc15ff7851e5c7cb92be02ed22cee7b613c97b2a9ccbad66f0",
    ),
    "mvto-reed": (
        "6409d7993da4544365f0d2e962dc25bd5ae19dab2e6b52f3fbda1d4e45c54248",
        "a073a310846968cb7ab6825d3c5e80da0b00c9be742bacef749ce469d5552d6d",
        "98916a5b8112e2cc544847d3bbb65072c0363d5ae1d6b3b085a085c4d240f40a",
        "ee26a20027ea25893b8321eeef60e0264c4eabe2cdc93e8e29ee3b4ee2c872e0",
    ),
    "mv2pl-chan": (
        "b159829463c950c83231991c1ecb387f7f7eb8dc41cb7ccb6297ddca9ebf6a71",
        "3b4709622313ba13caba0c3783ad16a7002c17ccba42edfa2451f582423191da",
        "0242442d9d8f21180d4e4c672070670d39f0ee87bf58f07f4cf91e003a268cb7",
        "d19e09ddc7aa2dd137ee6beee6634c5bb2cae8075b75580949f66ba5f1901496",
    ),
    "weihl-ti": (
        "fdb07eed55013fb43a7a33c5ba7ee59c1fc33996269cb9b4201ed48bb06e5a2e",
        "57e38828719a1404abda0deed85b588c7a0fd522da12d5e35f6ce1537da7ca94",
        "dbe951e7e7c799d7f3e0021c6ad10d37073ac80f950a20b410e96860f758b568",
        "29fe49e27bd1561623ae5e5af591a28242dc422f67436706e9312f9a2b5d03e8",
    ),
    "sv-2pl": (
        "0f341c3431d4d70d1adb5d04700a52002110063db8f98874189887c0464ad496",
        "da2dc7293c62dd77443c071e7c299ef969e233f81d4b23459ee82f18788d63a9",
        "348626e232f92535c75e99089c4e184b9699d0ce8f6ed5bf35abda813862df4d",
        "3ec9e0ac4d18d09ac4152f65e1cc82d5f4712ccdb04babff68f383f7df621d18",
    ),
    "sv-to": (
        "5779b0be2b902678e12ee582b9ece79917f24a7d9ed1b7c77df7228b6195afbe",
        "19ae9271d306f7072ba6b276ee3f3b09e3d21150a4278c5256b0d647c610cc25",
        "de21f71400ef4e61a745bc928ac5adb81fe6c18c74f32c366b50dce45728de7a",
        "56f58730189b2957c21c916822b6fd9194b3f2830475d6cbe321f904e445bf83",
    ),
    "vc-adaptive": (
        "af2b23cae2defc9906d99b6657bc23319919388c74e59069f35cf18f976541ae",
        "04f052a1e7b7fda3ba1568ec6fc01037624c2b92c744ae7e261338ff9cb228ab",
        "ac3e6908874549e4f612d218f4e87d0966dc39f42da00d0abaf25c729616d34e",
        "b49f3c116d2976c08ab0100c764cd34abf92a9a2ec9254c529d0c1dc8bebe79a",
    ),
    "vc-2pl-wal": (
        "661a5800bae08d0b809e6db50328bc5cb56556121d019c961ca621f314b8fdb9",
        "e0c41a3ae367a4d6790a7dab837b495bc381c6e85a0c34bfdb474bdb336c0fa6",
        "63a6034cb1f34f5bee638531bbf56cb84e58fba44179be4db25d0a463d51ac49",
        "1357df096bfd8e71e1f20d974eae4799ba3519e78cc188a0df7c709427810aca",
    ),
    "vc-2pl-granular": (
        "ca0759a6be26dc694cd0eb30853742c3d52f1692ed6d60abe306d3ee472984a9",
        "aadd3e5777147c54644eff824fa66c3a2657377b0347a91a97c0f42095257bdb",
        "bd1107ca4d19fa004fca23e861c21b285d181b61dba498db0d23d688a9809238",
        "4d92472ecd308a9d264343b9e459f1476dbbae8081c9c34be8e1dabb6cdd5a09",
    ),
    "vc-occ-fwd": (
        "d50fc150dc819231f4a97e01d1ccdcb6bd82408991c892241bd35be06bb8df81",
        "85e981fa730b53400078617b003a1c94e10e956c2b364c0fd04988e4d51f4dc7",
        "86b40ff682794be85a203f520d21a5c087b4e072b8491646c9abf7bd9f33fdf8",
        "f7da70109d8e4a1f5093fc71f908eaeb47805e014517e5594023fc4e26a997e3",
    ),
    "dist-vc": (
        "1e45f8cfba90a4798ad96ad9dfdeb0a1fa5f456ba2e0ad2e3b930a50859a9294",
        "59f1063f43175225a22a12042bc9ab8e083ae06a0a4c404658965a69637d9eeb",
        "a3783fadb173b33efaf7640fe0db2e9d8c24d9272d3dbfb68b95d1790199693e",
        "7fba63b036badeb10ca2c0266b704e35557ed2d27e835fc84602173198e653ef",
    ),
    "dist-mv2pl": (
        "fcafe7c0dd266818f9ecbd34569cb08d5608d1da684b2216ef68f16e4ebcdee1",
        "34da945742f069fbe487cbff99c3380507d9f6fdda3d02e2141ce4d251d773a4",
        "7684d398bcea38d24f9be0d840877e92e365e4029cc63e9b874c87d17aa9df07",
        "fd74487d6a8da92e82a20914a8f5e62901228b220f0e4c1810a76eaaf2b0ff43",
    ),
    "shard": (
        "3034786c48dfd01b90720b284a673d5e49d136fc1b2dc7c30d727fa400c490b3",
        "11c5af09346e55f6d6545c25b72d537daa0bc19c3d4a4a66ce51d5159481f870",
        "64d6fb4856f371aefa37215b24cd17b382eed09841026d3a6ff3249d9aa77f3c",
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
