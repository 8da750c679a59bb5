#!/usr/bin/env python3
"""Attack-detection demo (paper Sec. II-A threat model, III-H analysis).

Plays the attacker: tampers with and replays NVM content — during
runtime and between a crash and its recovery — and shows each attack
being caught by the matching defence:

* data/metadata tampering      -> HMAC mismatch,
* data/metadata replay         -> monotonic counters + LIncs,
* offset-record manipulation   -> LInc accounting (dirty hidden as
  clean) or harmlessness (clean forged as dirty).

Run:  python examples/attack_detection.py
"""
from repro import IntegrityError, make_system, small_config
from repro.attacks import AttackInjector
from repro.common.rng import make_rng
from repro.nvm.layout import Region


def expect_detection(label: str, action) -> None:
    try:
        action()
    except IntegrityError as exc:
        print(f"  [DETECTED] {label}\n             -> {exc}")
        return
    raise SystemExit(f"SECURITY HOLE: {label} was NOT detected!")


def fresh_victim():
    system = make_system("steins-gc", small_config())
    rng = make_rng(99, "victim")
    for addr in rng.integers(0, 2000, 400):
        system.store(int(addr), flush=True)
    return system, AttackInjector(system.device)


def main() -> None:
    print("== runtime attacks ==")
    system, attacker = fresh_victim()
    addr = next(iter(system.model.blocks))
    attacker.tamper_data_block(block_addr=addr)
    expect_detection("ciphertext bit-flip",
                     lambda: system.controller.read_data(addr))

    system, attacker = fresh_victim()
    addr = next(iter(system.model.blocks))
    attacker.record(Region.DATA, addr)      # snoop the bus
    system.store(addr, flush=True)          # victim writes a new version
    attacker.replay(Region.DATA, addr)      # splice the old one back
    system.hierarchy.clear()                # force a memory fetch
    expect_detection("data replay (old data + old authentic HMAC)",
                     lambda: system.load(addr))

    print("\n== attacks between crash and recovery ==")
    system, attacker = fresh_victim()
    system.crash()
    offset = attacker.pick_populated(Region.TREE)
    attacker.tamper_tree_counter(offset)
    expect_detection("tree-node counter tamper during recovery",
                     system.recover)

    system, attacker = fresh_victim()
    system.controller.flush_all()           # epoch-1 tree fully persisted
    attacker.record_populated(Region.TREE)  # record epoch-1 of the tree
    rng = make_rng(100, "more")
    for addr in rng.integers(0, 2000, 300):
        system.store(int(addr), flush=True)  # the tree advances...
    system.controller.flush_all()           # ...and persists (epoch 2)
    for addr in rng.integers(0, 2000, 50):
        system.store(int(addr), flush=True)  # dirty state for the crash
    system.crash()
    attacker.replay_all_recorded()          # roll the whole tree back
    expect_detection("whole-tree rollback replay during recovery",
                     system.recover)

    system, attacker = fresh_victim()
    system.crash()
    records, _ = system.controller.tracker.read_all_offsets(system.device)
    dirty_leaf = next(off for off in sorted(records)
                      if system.controller.geometry
                      .offset_to_node(off)[0] == 0)
    attacker.erase_offset_record(dirty_leaf)
    expect_detection("hiding a dirty node by scrubbing its record",
                     system.recover)

    print("\n== the harmless case the paper proves (Sec. III-H) ==")
    system, attacker = fresh_victim()
    # mark a clean node dirty: recovery must succeed anyway
    clean = next(off for off, _ in system.device.populated(Region.TREE)
                 if not system.controller.metacache.is_dirty(off))
    system.crash()
    attacker.forge_offset_record(clean)
    report = system.recover()
    print(f"  [HARMLESS] clean node forged as dirty: recovery succeeded, "
          f"{report.nodes_recovered} nodes restored")
    system.verify_all_persisted()
    print("  all data still verifies")


if __name__ == "__main__":
    main()
