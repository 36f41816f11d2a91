// The benchmark's workloads: closed-loop SPMD programs, one pass each.
//
//   p2p_paper      2 nodes x {Native Pipes, LAPI Base, LAPI Enhanced, RDMA}:
//                  ping-pong and Isend-stream bandwidth at 8 B .. 1 MiB, plus
//                  the interrupt-mode 8 B ping-pong (Figs. 10-13)
//   coll_256       256-node SP multistage, LAPI Enhanced: repeated 64 KiB
//                  bcast, 1024-double allreduce, 8-double alltoall, barrier
//   apps_64_lossy  64 ranks, 1% drop: NAS IS/CG/LU/FT on Native Pipes and
//                  LAPI Enhanced, plus a tag-permuted halo exchange
//
// Every workload takes its inputs from the recorder's seed and checks every
// output it can: seeded payload patterns, exact collective results and the
// NAS kernels' verified flags.
#pragma once

#include <cstdint>
#include <string>

#include "recorder.hpp"

namespace perfbench {

/// Run one pass of `workload`; false if the name is unknown.
bool run_workload(const std::string& workload, Recorder& rec);

/// Host cost per 8 B message through MPI (LAPI Enhanced) and through raw
/// LAPI, from ping-pongs timed around rank 0's calls. Traced passes only.
void msg_cost_probe(Recorder& rec);

/// The benchmark's own tests: its paper numbers equal the figure harness's
/// (bench/common.hpp) at the same config and iterations, and the lossy
/// config's drop schedule follows the seed. Returns the number of failures.
int selftest(std::uint64_t seed);

}  // namespace perfbench
