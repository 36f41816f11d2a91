// perfbench: one benchmark pass, or the benchmark's self-test.
//
//   perfbench pass --workload NAME --seed N --trace 0|1
//       Runs one pass of the workload and prints it as one JSON line, with
//       the reference kernel timed just before and after it. Traced
//       passes turn on Telemetry, time every call the rank programs make, and
//       add the per-message host-cost probe. run.py starts one process per
//       pass, so each pass's peak RSS is its own.
//   perfbench selftest [--seed N]
//       Cross-checks the paper numbers against the figure harness and checks
//       the lossy config's determinism; exits non-zero on any failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "recorder.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench pass --workload p2p_paper|coll_256|apps_64_lossy --seed N "
               "--trace 0|1\n"
               "       perfbench selftest [--seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return usage();  // a mode, then flag/value pairs
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--trace") {
      traced = std::strcmp(argv[i + 1], "0") != 0;
    } else {
      return usage();
    }
  }

  try {
    if (mode == "selftest") return perfbench::selftest(seed) == 0 ? 0 : 1;
    if (mode != "pass") return usage();
    perfbench::Recorder rec(seed, traced);
    const double ref_before = perfbench::reference_seconds();
    if (!perfbench::run_workload(workload, rec)) return usage();
    rec.capture_peak_rss();
    rec.set_reference((ref_before + perfbench::reference_seconds()) / 2);
    if (traced) perfbench::msg_cost_probe(rec);
    rec.print_json(stdout, workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
