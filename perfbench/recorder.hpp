// Recorder: everything one benchmark pass measures.
//
// The benchmark times each layer only through that layer's public entry
// points, from its own code: Machine construction (set-up), Machine::run and
// run_lapi (host time), and the Mpi::* / Lapi::* calls its rank programs
// make (host ns from the steady clock, and an event-queue depth sample at
// each boundary). Per-layer work counts come from the layers' public
// counters: Machine::stats() after every run and, on traced passes, the
// Telemetry counters and span records, which also give every MPI call's
// exact simulated duration.
//
// Values are kept in three groups so run.py can check determinism:
//   det   simulated results and Machine::stats counts; must be identical on
//         every pass with the same seed, traced or not
//   telem Telemetry-derived values and queue-depth samples (traced passes
//         only); identical on every traced pass with the same seed
//   host  host timings; vary run to run
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpi/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Recorder {
 public:
  Recorder(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Construct a Machine inside the set-up span. Traced passes turn on
  /// Telemetry with a ring of at least `ring_bytes`.
  [[nodiscard]] std::unique_ptr<sp::mpi::Machine> machine(sp::sim::MachineConfig cfg, int tasks,
                                                          sp::mpi::Backend backend,
                                                          std::size_t ring_bytes = 0);

  /// Machine::run / run_lapi inside the host-time span, then fold the
  /// machine's counters into the pass.
  void run(sp::mpi::Machine& m, const std::function<void(sp::mpi::Mpi&)>& program);
  void run_lapi(sp::mpi::Machine& m, const std::function<void(sp::lapi::Lapi&)>& program);

  /// Span around one Mpi::* or Lapi::* call made by a rank program running
  /// on `node`. Returns the call's host ns (0 on untraced passes, which make
  /// the call with no clock reads at all).
  template <typename F>
  double call(sp::sim::NodeRuntime& node, F&& f) {
    if (!traced_) {
      f();
      return 0.0;
    }
    sample_queue(node.sim);
    const auto t0 = Clock::now();
    f();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    sample_queue(node.sim);
    return ns;
  }

  /// One correctness check. A failure is counted, never fatal.
  void check(bool ok, const char* what);
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::map<std::string, double>& det() const noexcept { return det_; }

  /// A deterministic simulated result (e.g. sim_lat_8b_us).
  void set_det(const std::string& name, double value) { det_[name] = value; }
  void add_det(const std::string& name, double value) { det_[name] += value; }
  /// A host-timed per-layer value (traced passes).
  void set_host(const std::string& name, double value) { host_[name] = value; }
  /// Host seconds of the reference kernel around this pass (reference.hpp).
  void set_reference(double seconds) noexcept { ref_s_ = seconds; }
  /// Record the process's peak RSS so far; call right after the workload.
  void capture_peak_rss();

  /// Write the pass as one JSON object line.
  void print_json(std::FILE* out, const std::string& workload) const;

 private:
  void fold(sp::mpi::Machine& m, double host_s);
  void fold_telemetry(const sp::mpi::Machine& m);
  void sample_queue(const sp::sim::Simulator& sim) noexcept {
    const auto depth = static_cast<double>(sim.queue().size());
    if (depth > queue_depth_max_) queue_depth_max_ = depth;
  }

  std::uint64_t seed_;
  bool traced_;
  double setup_s_ = 0.0;
  double host_s_ = 0.0;
  double ref_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> det_;
  std::map<std::string, double> telem_;
  std::map<std::string, double> host_;
  double queue_depth_max_ = 0.0;
  // Exact distributions gathered from Telemetry over the whole pass.
  std::vector<double> p2p_sim_us_;
  std::vector<double> coll_sim_us_;
  std::vector<double> irq_service_ns_;
  std::vector<double> match_scanned_;
  double mpi_sim_ns_ = 0.0;   ///< Simulated ns inside top-level MPI calls, all ranks.
  double rank_sim_ns_ = 0.0;  ///< Simulated ns of rank lifetimes, all ranks.
};

/// Exact quantile (nearest rank) of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Deterministic 64-bit mixing (splitmix64) for seeded inputs.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
