// Reference kernel: a fixed host workload that calibrates the host's speed.
//
// The benchmark's hosts are shared: measured on a 4-core VM, the same pass
// ran anywhere from 0.52 s to 0.96 s within minutes, with CPU time equal to
// wall time, so the slowdown is contention for the core and its caches, not
// descheduling. Each pass therefore times this kernel just before and just
// after the workload, and run.py reports host times scaled by the kernel's
// nominal time over its measured time.
//
// The kernel mixes what the simulator's hot path does: a binary heap of
// timed entries, an indirect call per event, random reads and writes over
// 8 MiB, 1 KiB copies and a user-level context switch every 16 events. It
// uses no code from src/, so no change to the simulator moves it.
#pragma once

namespace perfbench {

/// Host seconds for one run of the reference kernel (about 80 ms on a quiet
/// 4-core Xeon VM).
[[nodiscard]] double reference_seconds();

}  // namespace perfbench
