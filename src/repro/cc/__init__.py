"""Concurrency-control substrates, each written once: the lock table and its
mode algebras, deadlock handling, the strict-2PL execution phase
(:mod:`~repro.cc.two_phase`) and the wait list (:mod:`~repro.cc.waitlist`)."""

from repro.cc.deadlock import WaitsForGraph, choose_victim
from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode, compatible

__all__ = ["LockManager", "LockMode", "WaitsForGraph", "choose_victim", "compatible"]
