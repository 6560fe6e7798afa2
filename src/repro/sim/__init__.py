"""Deterministic discrete-event simulation substrate."""

from repro.sim.engine import Process, SimError, Simulator, run_processes
from repro.sim.random_streams import RandomStreams, ZipfGenerator
from repro.sim.server import FifoServer
from repro.sim.stats import Summary, TimeWeighted

__all__ = [
    "FifoServer",
    "Process",
    "RandomStreams",
    "SimError",
    "Simulator",
    "Summary",
    "TimeWeighted",
    "ZipfGenerator",
    "run_processes",
]
