"""Eager reference model of :class:`~repro.sim.system.SecureNVMSystem`.

``SecureNVMSystem`` derives a stored block's value, ``mix64(addr,
version)``, only when a dirty line leaves the hierarchy, and forgets
stores on a crash.  This module keeps the eager model it replaced,
verbatim: every store hashes its value into ``current`` at once, a fill
copies the persisted value into ``current``, and a crash rolls
``current`` back to a copy of ``persisted``.  Only the per-access
outcome record is gone (nothing read it).  ``RefSystem`` reuses the
system's wiring (device, clock, controller, stats) and overrides the
run and crash paths.  ``tests/test_reference_model.py`` requires the
two to agree on values, NVM contents, stats and time after every op.
"""
from __future__ import annotations

from repro.common.rng import mix64
from repro.mem.hierarchy import MemOp
from repro.sim.system import SecureNVMSystem
from repro.workloads.trace import TraceArrays


class RefSystem(SecureNVMSystem):
    """The system with the eager ``current`` reference model."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.current: dict[int, int] = {}
        self._versions: dict[int, int] = {}

    def store(self, block_addr: int, flush: bool = False) -> None:
        version = self._versions.get(block_addr, 0) + 1
        self._versions[block_addr] = version
        self.current[block_addr] = mix64(block_addr, version)
        self._access(block_addr, is_write=True)
        if flush and self.hierarchy.clwb(block_addr):
            value = self.current[block_addr]
            self.controller.write_data(block_addr, value)
            self.persisted[block_addr] = value

    def load(self, block_addr: int) -> None:
        self._access(block_addr, is_write=False)

    def _access(self, block_addr: int, is_write: bool) -> None:
        self.accesses += 1
        result = self.hierarchy.access(block_addr, is_write)
        self.clock.advance_cycles(result.cycles)
        for request in result.requests:
            if request.op is MemOp.WRITE:
                value = self.current.get(request.line_addr, 0)
                self.controller.write_data(request.line_addr, value)
                self.persisted[request.line_addr] = value
            else:
                plaintext = self.controller.read_data(request.line_addr)
                if self.check:
                    expected = self.persisted.get(request.line_addr, 0)
                    if plaintext != expected:
                        raise AssertionError(
                            f"scheme {self.scheme!r} returned wrong data "
                            f"for block {request.line_addr}: "
                            f"{plaintext} != {expected}")
                # a fill makes the persisted value architecturally current
                self.current.setdefault(request.line_addr,
                                        self.persisted.get(request.line_addr, 0))

    def run_stream(self, trace: TraceArrays,
                   flush_writes: bool = False) -> None:
        is_write_col, address_col, gap_col = trace.columns
        clock = self.clock
        hierarchy = self.hierarchy
        controller = self.controller
        current = self.current
        persisted = self.persisted
        versions = self._versions
        check = self.check
        pending_cycles = 0
        n = len(address_col)
        for i in range(n):
            addr = address_col[i]
            is_write = is_write_col[i]
            pending_cycles += gap_col[i]
            if is_write:
                version = versions.get(addr, 0) + 1
                versions[addr] = version
                current[addr] = mix64(addr, version)
            result = hierarchy.access(addr, is_write)
            pending_cycles += result.cycles
            requests = result.requests
            if requests:
                clock.advance_cycles(pending_cycles)
                pending_cycles = 0
                for request in requests:
                    line = request.line_addr
                    if request.op is MemOp.WRITE:
                        value = current.get(line, 0)
                        controller.write_data(line, value)
                        persisted[line] = value
                    else:
                        plaintext = controller.read_data(line)
                        if check:
                            expected = persisted.get(line, 0)
                            if plaintext != expected:
                                raise AssertionError(
                                    f"scheme {self.scheme!r} returned "
                                    f"wrong data for block {line}: "
                                    f"{plaintext} != {expected}")
                        # a fill makes the persisted value
                        # architecturally current
                        current.setdefault(line, persisted.get(line, 0))
            if is_write and flush_writes and hierarchy.clwb(addr):
                if pending_cycles:
                    clock.advance_cycles(pending_cycles)
                    pending_cycles = 0
                value = current[addr]
                controller.write_data(addr, value)
                persisted[addr] = value
        if pending_cycles:
            clock.advance_cycles(pending_cycles)
        self.accesses += n

    def crash(self) -> None:
        from repro.faults.registry import active_plan

        plan = active_plan()
        budget = plan.begin_crash_flush() if plan is not None else None
        self.clock.drain_writes()   # in-flight writes join the WPQ
        self.hierarchy.clear()
        self.device.crash_drain(budget)
        self.controller.crash()
        # architecturally, unflushed stores are gone
        self.current = dict(self.persisted)
