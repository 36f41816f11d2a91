#include "recorder.hpp"

#include <algorithm>
#include <cmath>

#include <sys/resource.h>

namespace perfbench {

using sp::mpi::Machine;
using sp::sim::Ev;
using sp::sim::MpiCall;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool is_collective(std::uint64_t call) {
  return call >= static_cast<std::uint64_t>(MpiCall::kBarrier) &&
         call <= static_cast<std::uint64_t>(MpiCall::kReduceScatter);
}

void print_map(std::FILE* out, const char* key, const std::map<std::string, double>& m) {
  std::fprintf(out, ", \"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::fprintf(out, "%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::fprintf(out, "}");
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = k == 0 ? 0 : std::min(k - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

std::unique_ptr<Machine> Recorder::machine(sp::sim::MachineConfig cfg, int tasks,
                                           sp::mpi::Backend backend, std::size_t ring_bytes) {
  if (traced_) {
    cfg.telemetry_enabled = true;
    cfg.telemetry_ring_bytes = std::max(cfg.telemetry_ring_bytes, ring_bytes);
  }
  const auto t0 = Clock::now();
  auto m = std::make_unique<Machine>(cfg, tasks, backend);
  setup_s_ += seconds_since(t0);
  return m;
}

void Recorder::run(Machine& m, const std::function<void(sp::mpi::Mpi&)>& program) {
  if (traced_) sample_queue(m.sim());
  const auto t0 = Clock::now();
  m.run(program);
  fold(m, seconds_since(t0));
}

void Recorder::run_lapi(Machine& m, const std::function<void(sp::lapi::Lapi&)>& program) {
  if (traced_) sample_queue(m.sim());
  const auto t0 = Clock::now();
  m.run_lapi(program);
  fold(m, seconds_since(t0));
}

void Recorder::check(bool ok, const char* what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
}

void Recorder::capture_peak_rss() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Recorder::fold(Machine& m, double host_s) {
  host_s_ += host_s;
  const Machine::Stats s = m.stats();
  add_det("sim_elapsed_ms", sp::sim::to_us(m.elapsed()) / 1e3);
  add_det("sim.events", static_cast<double>(s.sim_events));
  add_det("sim.events_pushed", static_cast<double>(s.events_pushed));
  add_det("sim.actions_inline", static_cast<double>(s.actions_inline));
  add_det("sim.pool_misses", static_cast<double>(s.action_pool_misses));
  add_det("sim.fallback_allocs", static_cast<double>(s.action_fallback_allocs));
  add_det("net.packets", static_cast<double>(s.fabric_packets));
  add_det("net.bytes", static_cast<double>(s.fabric_bytes));
  add_det("net.dropped", static_cast<double>(s.fabric_dropped));
  add_det("net.duplicated", static_cast<double>(s.fabric_duplicated));
  add_det("net.frames_recycled", static_cast<double>(s.frames_recycled));
  add_det("net.frames_fresh", static_cast<double>(s.frames_fresh));
  add_det("hal.packets_sent", static_cast<double>(s.packets_sent));
  add_det("hal.staged_bytes", static_cast<double>(s.hal_staged_bytes));
  add_det("hal.interrupts", static_cast<double>(s.interrupts));
  add_det("hal.rdma_writes", static_cast<double>(s.rdma_writes));
  add_det("hal.rdma_reads", static_cast<double>(s.rdma_reads));
  add_det("pipes.acks", static_cast<double>(s.pipes_acks));
  add_det("pipes.retransmits", static_cast<double>(s.pipes_retransmits));
  add_det("pipes.dup_deliveries", static_cast<double>(s.pipes_duplicate_deliveries));
  add_det("pipes.reacks_coalesced", static_cast<double>(s.pipes_reacks_coalesced));
  add_det("lapi.messages", static_cast<double>(s.lapi_messages));
  add_det("lapi.acks", static_cast<double>(s.lapi_acks));
  add_det("lapi.retransmits", static_cast<double>(s.lapi_retransmits));
  add_det("lapi.dup_deliveries", static_cast<double>(s.lapi_duplicate_deliveries));
  add_det("lapi.reacks_coalesced", static_cast<double>(s.lapi_reacks_coalesced));
  add_det("lapi.completion_thread_dispatches",
          static_cast<double>(s.completion_thread_dispatches));
  add_det("lapi.completion_inline_runs", static_cast<double>(s.completion_inline_runs));
  add_det("mpci.eager_sends", static_cast<double>(s.eager_sends));
  add_det("mpci.rendezvous_sends", static_cast<double>(s.rendezvous_sends));
  add_det("mpci.early_arrivals", static_cast<double>(s.early_arrivals));
  add_det("mpci.ea_fallbacks", static_cast<double>(s.ea_fallbacks));
  if (traced_) {
    sample_queue(m.sim());
    fold_telemetry(m);
  }
}

void Recorder::fold_telemetry(const Machine& m) {
  const sp::sim::Telemetry& t = *m.telemetry();
  check(t.records_dropped() == 0, "telemetry ring held every record");
  telem_["mpi.calls"] += static_cast<double>(t.counter_total(Ev::kMpiEnter));
  telem_["mpci.match_attempts"] += static_cast<double>(t.counter_total(Ev::kMatch));
  // Walk the span records once: top-level MPI call durations (nested calls,
  // such as a collective's internal sends, are inside their parent's span),
  // rank lifetimes, and the exact per-event samples the log2 histograms
  // would only bucket.
  const auto n = static_cast<std::size_t>(m.num_tasks());
  std::vector<int> depth(n, 0);
  std::vector<sp::sim::TimeNs> rank_start(n, 0);
  for (const sp::sim::TraceRecord& r : t.records()) {
    const auto node = static_cast<std::size_t>(r.node);
    switch (static_cast<Ev>(r.event)) {
      case Ev::kMpiEnter:
        ++depth[node];
        break;
      case Ev::kMpiExit:
        if (--depth[node] == 0) {
          const auto ns = static_cast<double>(r.a1);
          mpi_sim_ns_ += ns;
          (is_collective(r.a0) ? coll_sim_us_ : p2p_sim_us_).push_back(ns / 1e3);
        }
        break;
      case Ev::kRankStart:
        rank_start[node] = r.t;
        break;
      case Ev::kRankFinish:
        rank_sim_ns_ += static_cast<double>(r.t - rank_start[node]);
        break;
      case Ev::kMatch:
        match_scanned_.push_back(static_cast<double>(r.a0));
        break;
      case Ev::kIrqExit:
        irq_service_ns_.push_back(static_cast<double>(r.a0));
        break;
      default:
        break;
    }
  }
}

void Recorder::print_json(std::FILE* out, const std::string& workload) const {
  std::map<std::string, double> det = det_;
  const double pushed = det["sim.events_pushed"];
  det["sim.inline_action_ratio"] = pushed > 0 ? det["sim.actions_inline"] / pushed : 0.0;
  const double frames = det["net.frames_recycled"] + det["net.frames_fresh"];
  det["net.frame_recycle_ratio"] = frames > 0 ? det["net.frames_recycled"] / frames : 0.0;

  std::map<std::string, double> telem = telem_;
  if (traced_) {
    telem["sim.queue_depth_max"] = queue_depth_max_;
    telem["hal.irq_service_ns_p50"] = quantile(irq_service_ns_, 0.50);
    double scanned = 0.0;
    for (double v : match_scanned_) scanned += v;
    telem["mpci.match_scanned_mean"] =
        match_scanned_.empty() ? 0.0 : scanned / static_cast<double>(match_scanned_.size());
    telem["mpci.match_scanned_p99"] = quantile(match_scanned_, 0.99);
    telem["mpi.p2p_sim_us_p50"] = quantile(p2p_sim_us_, 0.50);
    telem["mpi.p2p_sim_us_p99"] = quantile(p2p_sim_us_, 0.99);
    telem["mpi.coll_sim_us_p50"] = quantile(coll_sim_us_, 0.50);
    telem["mpi.coll_sim_us_p99"] = quantile(coll_sim_us_, 0.99);
    telem["mpi.comm_frac"] = rank_sim_ns_ > 0 ? mpi_sim_ns_ / rank_sim_ns_ : 0.0;
  }
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"host_s\": %.9f, "
               "\"setup_s\": %.9f, \"ref_s\": %.9f, \"peak_rss_mb\": %.6f, \"attempted\": %llu, "
               "\"failed\": %llu",
               workload.c_str(), static_cast<unsigned long long>(seed_),
               traced_ ? "true" : "false", host_s_, setup_s_, ref_s_, peak_rss_mb_,
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  std::fprintf(out, ", \"failures\": [");
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", failures_[i].c_str());
  }
  std::fprintf(out, "]");
  print_map(out, "det", det);
  print_map(out, "telem", telem);
  print_map(out, "host", host_);
  std::fprintf(out, "}\n");
}

}  // namespace perfbench
