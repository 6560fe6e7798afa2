"""Comparator protocols the paper discusses in Section 2.

Baselines do not own a :class:`~repro.core.version_control.VersionControl`
module — integrating versions with the chosen concurrency control in a
protocol-specific way is precisely what the paper argues against; these
classes reproduce those entangled designs for comparison.
"""

from repro.baselines.mv2pl_chan import MV2PLScheduler
from repro.baselines.mvto_reed import MVTOScheduler
from repro.baselines.sv_2pl import SV2PLScheduler
from repro.baselines.sv_to import SVTOScheduler
from repro.baselines.weihl_ti import WeihlTIScheduler

__all__ = [
    "MV2PLScheduler",
    "MVTOScheduler",
    "SV2PLScheduler",
    "SVTOScheduler",
    "WeihlTIScheduler",
]
