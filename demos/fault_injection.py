"""
Error classes and the single-retry rule
=======================================

Wires a three-node line by hand (no scenario file): a client and two workers
that both offer the `enhance` service. A fault plan makes worker 2 fail
every execution. The assigner then re-selects exactly once, excluding the
failed worker, and the error log travels with the workflow so the client
can read what went wrong. With every worker failing, the second error is
terminal.
"""

from carryflow import (CapabilityVector, Collector, FaultPlan, LinkModel,
                       Node, RunSettings, ServiceDefinition, Strategy, World)

ENHANCE = ServiceDefinition(name="enhance", exec_seconds_mean=0.3,
                            exec_seconds_jitter=0.0, output_size_bytes=4000,
                            energy_cost_e=2.0, output_ext="png")


def build_world(fault_plan):
    world = World(LinkModel(bandwidth_bps=1e8, latency_s=0.005),
                  adjacency=[(1, 2), (2, 3)])
    collector = Collector()
    # the same settings a scenario file's [run] section produces
    run = RunSettings(strategy=Strategy.BEST, preprocess_s=0.01,
                      postprocess_s=0.01, fault=fault_plan)
    nodes = {}
    for addr in (1, 2, 3):
        caps = CapabilityVector(cpu=4.0, memory=4096.0, disk=16384.0,
                                energy=100.0, position=(30.0 * addr, 0.0))
        services = {} if addr == 1 else {"enhance": ENHANCE}
        nodes[addr] = Node(addr, world, collector, run, caps, services)
    world.run_until(1.0)    # let the offers flood the line
    return world, collector, nodes


# -- one flaky worker: the retry saves the workflow ---------------------------

world, collector, nodes = build_world(
    FaultPlan(rate=1.0, nodes=frozenset({2})))
handle = nodes[1].offload("any enhance photo.raw\n",
                          {"photo.raw": b"\0" * 2048})
world.run_until(10.0)

print(f"one flaky worker  -> {handle.status}")
print("selections:", dict(sorted(collector.selections.items())))
print("log carried back to the client:")
for line in handle.result.error_log.strip().splitlines():
    print("   ", line)

# -- every worker flaky: the second failure is terminal -----------------------

world, collector, nodes = build_world(FaultPlan(rate=1.0))
handle = nodes[1].offload("any enhance photo.raw\n",
                          {"photo.raw": b"\0" * 2048})
world.run_until(10.0)

print(f"\nall workers flaky -> {handle.status}")
print("selections:", dict(sorted(collector.selections.items())))
print(f"error class {handle.result.error.error_class.value!r} "
      f"from worker {handle.result.error.worker}")
