#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "nas/kernels.hpp"

namespace perfbench {
namespace {

using sp::mpi::Backend;
using sp::mpi::Comm;
using sp::mpi::Datatype;
using sp::mpi::Machine;
using sp::mpi::Mpi;
using sp::mpi::Request;
using sp::sim::MachineConfig;

// --- p2p_paper ---------------------------------------------------------------
constexpr std::array<std::size_t, 5> kSizes = {8, 1024, 4096, 64 * 1024, 1024 * 1024};
constexpr std::array<Backend, 4> kP2pBackends = {Backend::kNativePipes, Backend::kLapiBase,
                                                 Backend::kLapiEnhanced, Backend::kRdma};
constexpr int kIrqIters = 200;
/// Telemetry ring for the two-node machines: holds a whole 1 MiB stream.
constexpr std::size_t kP2pRingBytes = std::size_t{16} << 20;

int pingpong_iters(std::size_t bytes) {
  if (bytes <= 8) return 1000;
  if (bytes <= 4096) return 400;
  if (bytes <= 64 * 1024) return 80;
  return 10;
}

int stream_iters(std::size_t bytes) {
  if (bytes <= 8) return 2000;
  if (bytes <= 4096) return 800;
  if (bytes <= 64 * 1024) return 150;
  return 16;
}

const char* short_name(Backend b) {
  switch (b) {
    case Backend::kNativePipes: return "native";
    case Backend::kLapiBase: return "base";
    case Backend::kLapiCounters: return "counters";
    case Backend::kLapiEnhanced: return "enhanced";
    case Backend::kRdma: return "rdma";
  }
  return "?";
}

std::string key(const char* metric, Backend b, std::size_t bytes) {
  return std::string(metric) + "." + short_name(b) + "." + std::to_string(bytes);
}

/// Seeded message payloads: one random block per (seed, size) whose first
/// eight bytes are overwritten by a per-message stamp, so a receiver checks
/// both the bytes and which message it got.
class Payload {
 public:
  Payload(std::uint64_t seed, std::size_t bytes) : seed_(mix(seed)), block_(bytes) {
    for (std::size_t i = 0; i < bytes; i += 8) {
      const std::uint64_t v = mix(seed_ + i);
      std::memcpy(block_.data() + i, &v, std::min<std::size_t>(8, bytes - i));
    }
  }

  [[nodiscard]] const std::vector<std::byte>& block() const noexcept { return block_; }

  void stamp(std::byte* buf, std::uint64_t id) const noexcept {
    const std::uint64_t v = mix(seed_ ^ id);
    std::memcpy(buf, &v, std::min<std::size_t>(8, block_.size()));
  }

  [[nodiscard]] bool holds(const std::byte* buf, std::uint64_t id) const noexcept {
    const std::uint64_t v = mix(seed_ ^ id);
    const std::size_t head = std::min<std::size_t>(8, block_.size());
    return std::memcmp(buf, &v, head) == 0 &&
           std::memcmp(buf + head, block_.data() + head, block_.size() - head) == 0;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::byte> block_;
};

/// One-way latency in µs; the same calls, in the same order, as
/// bench::mpi_pingpong_us, plus an echo check of every message.
double pingpong_us(Recorder& rec, const MachineConfig& cfg, Backend backend, std::size_t bytes,
                   int iters) {
  constexpr int kWarmup = 4;
  constexpr std::uint64_t kPong = std::uint64_t{1} << 63;
  auto m = rec.machine(cfg, 2, backend, kP2pRingBytes);
  const Payload pay(rec.seed() ^ bytes, bytes);
  double result = 0.0;
  rec.run(*m, [&](Mpi& mpi) {
    Comm& w = mpi.world();
    sp::sim::NodeRuntime& node = mpi.node();
    std::vector<std::byte> buf = pay.block();
    const int peer = 1 - w.rank();
    double t0 = 0.0;
    for (int i = 0; i < kWarmup + iters; ++i) {
      const auto id = static_cast<std::uint64_t>(i);
      if (w.rank() == 0) {
        if (i == kWarmup) t0 = mpi.wtime();
        pay.stamp(buf.data(), id);
        rec.call(node, [&] { mpi.send(buf.data(), bytes, Datatype::kByte, peer, 0, w); });
        rec.call(node, [&] { mpi.recv(buf.data(), bytes, Datatype::kByte, peer, 0, w); });
        rec.check(pay.holds(buf.data(), id | kPong), "ping-pong echo payload");
      } else {
        rec.call(node, [&] { mpi.recv(buf.data(), bytes, Datatype::kByte, peer, 0, w); });
        rec.check(pay.holds(buf.data(), id), "ping-pong payload");
        pay.stamp(buf.data(), id | kPong);
        rec.call(node, [&] { mpi.send(buf.data(), bytes, Datatype::kByte, peer, 0, w); });
      }
    }
    if (w.rank() == 0) result = (mpi.wtime() - t0) * 1e6 / (2.0 * iters);
  });
  return result;
}

/// One-way interrupt-mode latency in µs; mirrors
/// bench::mpi_interrupt_pingpong_us (receiver spins outside the library).
double interrupt_pingpong_us(Recorder& rec, const MachineConfig& cfg, Backend backend,
                             std::size_t bytes, int iters) {
  constexpr int kWarmup = 2;
  constexpr std::uint64_t kPong = std::uint64_t{1} << 63;
  auto m = rec.machine(cfg, 2, backend, kP2pRingBytes);
  const Payload pay(rec.seed() ^ bytes ^ 0x1f, bytes);
  double result = 0.0;
  rec.run(*m, [&](Mpi& mpi) {
    Comm& w = mpi.world();
    sp::sim::NodeRuntime& node = mpi.node();
    rec.call(node, [&] { mpi.set_interrupt_mode(true); });
    std::vector<std::byte> buf = pay.block();
    const int peer = 1 - w.rank();
    auto spin_recv = [&] {
      Request r;
      rec.call(node, [&] { r = mpi.irecv(buf.data(), bytes, Datatype::kByte, peer, 0, w); });
      bool done = false;
      while (true) {
        rec.call(node, [&] { done = mpi.test(r); });
        if (done) break;
        rec.call(node, [&] { mpi.compute(cfg.spin_check_ns); });
      }
    };
    auto send = [&] {
      rec.call(node, [&] { mpi.send(buf.data(), bytes, Datatype::kByte, peer, 0, w); });
    };
    double t0 = 0.0;
    for (int i = 0; i < kWarmup + iters; ++i) {
      const auto id = static_cast<std::uint64_t>(i);
      if (w.rank() == 0) {
        if (i == kWarmup) t0 = mpi.wtime();
        pay.stamp(buf.data(), id);
        send();
        spin_recv();
        rec.check(pay.holds(buf.data(), id | kPong), "interrupt ping-pong echo payload");
      } else {
        spin_recv();
        rec.check(pay.holds(buf.data(), id), "interrupt ping-pong payload");
        pay.stamp(buf.data(), id | kPong);
        send();
      }
    }
    if (w.rank() == 0) result = (mpi.wtime() - t0) * 1e6 / (2.0 * iters);
  });
  return result;
}

/// Isend-stream bandwidth in MB/s; mirrors bench::mpi_bandwidth_mbs, except
/// that every message has its own stamped buffers so each can be checked.
double stream_mbs(Recorder& rec, const MachineConfig& cfg, Backend backend, std::size_t bytes,
                  int iters) {
  auto m = rec.machine(cfg, 2, backend, kP2pRingBytes);
  const Payload pay(rec.seed() ^ bytes ^ 0x2f, bytes);
  const auto n = static_cast<std::size_t>(iters);
  std::vector<std::vector<std::byte>> out(n, pay.block());
  std::vector<std::vector<std::byte>> in(n, std::vector<std::byte>(bytes));
  for (std::size_t i = 0; i < n; ++i) pay.stamp(out[i].data(), i);
  double result = 0.0;
  rec.run(*m, [&](Mpi& mpi) {
    Comm& w = mpi.world();
    sp::sim::NodeRuntime& node = mpi.node();
    std::byte token{};
    std::vector<Request> reqs;
    reqs.reserve(n);
    if (w.rank() == 0) {
      const double t0 = mpi.wtime();
      for (std::size_t i = 0; i < n; ++i) {
        rec.call(node, [&] {
          reqs.push_back(mpi.isend(out[i].data(), bytes, Datatype::kByte, 1, 0, w));
        });
      }
      rec.call(node, [&] { mpi.waitall(reqs.data(), reqs.size()); });
      rec.call(node, [&] { mpi.recv(&token, 0, Datatype::kByte, 1, 1, w); });
      const double dt = mpi.wtime() - t0;
      result = (static_cast<double>(bytes) * iters / 1e6) / dt;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        rec.call(node, [&] {
          reqs.push_back(mpi.irecv(in[i].data(), bytes, Datatype::kByte, 0, 0, w));
        });
      }
      rec.call(node, [&] { mpi.waitall(reqs.data(), reqs.size()); });
      rec.call(node, [&] { mpi.send(&token, 0, Datatype::kByte, 0, 1, w); });
      for (std::size_t i = 0; i < n; ++i) rec.check(pay.holds(in[i].data(), i), "stream payload");
    }
  });
  return result;
}

void p2p_paper(Recorder& rec) {
  const MachineConfig cfg;
  for (Backend b : kP2pBackends) {
    for (std::size_t s : kSizes) {
      rec.set_det(key("lat_us", b, s), pingpong_us(rec, cfg, b, s, pingpong_iters(s)));
      rec.set_det(key("bw_mbs", b, s), stream_mbs(rec, cfg, b, s, stream_iters(s)));
    }
  }
  for (Backend b : {Backend::kNativePipes, Backend::kLapiEnhanced}) {
    rec.set_det(key("irq_lat_us", b, 8), interrupt_pingpong_us(rec, cfg, b, 8, kIrqIters));
  }
}

// --- coll_256 ----------------------------------------------------------------
constexpr int kCollNodes = 256;
constexpr int kCollRounds = 2;
constexpr std::size_t kBcastBytes = 64 * 1024;
constexpr std::size_t kAllreduceCount = 1024;
constexpr std::size_t kAlltoallCount = 8;

/// Small integers, so every sum is exact in double whatever the order.
double allreduce_input(std::uint64_t salt, int rank, std::size_t i) {
  return static_cast<double>((salt + static_cast<std::uint64_t>(rank) * 1031 + i * 7919) & 1023);
}

double alltoall_value(std::uint64_t salt, int src, int dst, std::size_t k) {
  return static_cast<double>(
      (salt + static_cast<std::uint64_t>(src) * 65537 + static_cast<std::uint64_t>(dst) * 257 + k) &
      0xffffff);
}

void coll_256(Recorder& rec) {
  const MachineConfig cfg;  // SP multistage is the default interconnect
  std::vector<std::uint64_t> salt(kCollRounds);
  std::vector<int> root(kCollRounds);
  std::vector<Payload> bcast;
  std::vector<std::vector<double>> sum(kCollRounds, std::vector<double>(kAllreduceCount, 0.0));
  for (int r = 0; r < kCollRounds; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    salt[rr] = mix(rec.seed() ^ mix(static_cast<std::uint64_t>(r)));
    root[rr] = static_cast<int>(salt[rr] % kCollNodes);
    bcast.emplace_back(salt[rr], kBcastBytes);
    for (int p = 0; p < kCollNodes; ++p) {
      for (std::size_t i = 0; i < kAllreduceCount; ++i) sum[rr][i] += allreduce_input(salt[rr], p, i);
    }
  }
  auto m = rec.machine(cfg, kCollNodes, Backend::kLapiEnhanced);
  rec.run(*m, [&](Mpi& mpi) {
    Comm& w = mpi.world();
    sp::sim::NodeRuntime& node = mpi.node();
    const int me = w.rank();
    std::vector<std::byte> buf(kBcastBytes);
    std::vector<double> in(kAllreduceCount), out(kAllreduceCount);
    std::vector<double> a2a_out(kAlltoallCount * kCollNodes), a2a_in(kAlltoallCount * kCollNodes);
    for (int r = 0; r < kCollRounds; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      const std::vector<std::byte>& want = bcast[rr].block();
      if (me == root[rr]) {
        std::memcpy(buf.data(), want.data(), kBcastBytes);
      } else {
        std::fill(buf.begin(), buf.end(), std::byte{0});
      }
      rec.call(node, [&] { mpi.bcast(buf.data(), kBcastBytes, Datatype::kByte, root[rr], w); });
      rec.check(buf == want, "bcast payload");

      for (std::size_t i = 0; i < kAllreduceCount; ++i) in[i] = allreduce_input(salt[rr], me, i);
      rec.call(node, [&] {
        mpi.allreduce(in.data(), out.data(), kAllreduceCount, Datatype::kDouble,
                      sp::mpi::Op::kSum, w);
      });
      rec.check(out == sum[rr], "allreduce sum");

      for (int d = 0; d < kCollNodes; ++d) {
        for (std::size_t k = 0; k < kAlltoallCount; ++k) {
          a2a_out[static_cast<std::size_t>(d) * kAlltoallCount + k] =
              alltoall_value(salt[rr], me, d, k);
        }
      }
      rec.call(node, [&] {
        mpi.alltoall(a2a_out.data(), kAlltoallCount, a2a_in.data(), Datatype::kDouble, w);
      });
      bool ok = true;
      for (int s = 0; s < kCollNodes; ++s) {
        for (std::size_t k = 0; k < kAlltoallCount; ++k) {
          ok = ok && a2a_in[static_cast<std::size_t>(s) * kAlltoallCount + k] ==
                         alltoall_value(salt[rr], s, me, k);
        }
      }
      rec.check(ok, "alltoall blocks");

      rec.call(node, [&] { mpi.barrier(w); });
    }
  });
}

// --- apps_64_lossy -----------------------------------------------------------
constexpr int kAppsGrid = 8;  // 8 x 8 torus of ranks
constexpr int kHaloRounds = 4;
constexpr int kNasScale = 1;

/// 1% independent drops and 0.5% duplicate deliveries, seeded by the
/// workload seed, with a retransmit timeout short enough that recovery does
/// not dominate simulated time.
MachineConfig lossy_config(std::uint64_t seed) {
  MachineConfig cfg;
  cfg.packet_drop_rate = 0.01;
  cfg.packet_dup_rate = 0.005;
  cfg.retransmit_timeout_ns = 400'000;
  cfg.fabric_seed = seed;
  return cfg;
}

/// West, east, north, south on a gx x gy torus (gx, gy >= 3 keeps them distinct).
std::array<int, 4> neighbours(int me, int gx, int gy) {
  const int x = me % gx;
  const int y = me / gx;
  return {y * gx + (x + gx - 1) % gx, y * gx + (x + 1) % gx, ((y + gy - 1) % gy) * gx + x,
          ((y + 1) % gy) * gx + x};
}

double halo_value(std::uint64_t salt, int src, int dst, std::size_t tag, std::size_t k) {
  const std::uint64_t h = mix(salt ^ (static_cast<std::uint64_t>(src) << 32) ^
                              (static_cast<std::uint64_t>(dst) << 8) ^ tag);
  return static_cast<double>((h >> (k % 32)) & 0xffff) + static_cast<double>(k);
}

/// Each rank preposts irecvs for every (neighbour, tag) in order, then sends
/// the same set in a seeded random order, so arrivals match deep in the
/// posted queue. Every message is checked, then an allreduce of the received
/// sums is checked against the exact total.
void halo(Recorder& rec, const MachineConfig& cfg, Backend backend, int gx, int gy, int rounds) {
  constexpr std::size_t kTags = 16;
  constexpr std::size_t kSlots = 4 * kTags;  // (neighbour, tag) pairs
  constexpr std::size_t kDoubles = 32;
  const int n = gx * gy;
  std::vector<std::uint64_t> salt;
  std::vector<double> total;
  for (int r = 0; r < rounds; ++r) {
    salt.push_back(mix(rec.seed() ^ mix(0x4a10 + static_cast<std::uint64_t>(r))));
    double sum = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int nb : neighbours(p, gx, gy)) {
        for (std::size_t t = 0; t < kTags; ++t) {
          for (std::size_t k = 0; k < kDoubles; ++k) sum += halo_value(salt.back(), nb, p, t, k);
        }
      }
    }
    total.push_back(sum);
  }
  auto m = rec.machine(cfg, n, backend);
  rec.run(*m, [&](Mpi& mpi) {
    Comm& w = mpi.world();
    sp::sim::NodeRuntime& node = mpi.node();
    const int me = w.rank();
    const std::array<int, 4> nbr = neighbours(me, gx, gy);
    std::vector<double> sendb(kSlots * kDoubles), recvb(kSlots * kDoubles);
    std::vector<Request> reqs(2 * kSlots);
    std::array<std::size_t, kSlots> order{};
    for (std::size_t r = 0; r < salt.size(); ++r) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        rec.call(node, [&] {
          reqs[s] = mpi.irecv(&recvb[s * kDoubles], kDoubles, Datatype::kDouble, nbr[s / kTags],
                              static_cast<int>(s % kTags), w);
        });
      }
      for (std::size_t s = 0; s < kSlots; ++s) order[s] = s;
      std::uint64_t h = mix(salt[r] ^ static_cast<std::uint64_t>(me));
      for (std::size_t s = kSlots - 1; s > 0; --s) {
        h = mix(h);
        std::swap(order[s], order[h % (s + 1)]);
      }
      for (std::size_t i = 0; i < kSlots; ++i) {
        const std::size_t s = order[i];
        double* slot = &sendb[s * kDoubles];
        for (std::size_t k = 0; k < kDoubles; ++k) {
          slot[k] = halo_value(salt[r], me, nbr[s / kTags], s % kTags, k);
        }
        rec.call(node, [&] {
          reqs[kSlots + i] = mpi.isend(slot, kDoubles, Datatype::kDouble, nbr[s / kTags],
                                       static_cast<int>(s % kTags), w);
        });
      }
      rec.call(node, [&] { mpi.waitall(reqs.data(), reqs.size()); });
      double local = 0.0;
      for (std::size_t s = 0; s < kSlots; ++s) {
        bool ok = true;
        for (std::size_t k = 0; k < kDoubles; ++k) {
          const double v = recvb[s * kDoubles + k];
          ok = ok && v == halo_value(salt[r], nbr[s / kTags], me, s % kTags, k);
          local += v;
        }
        rec.check(ok, "halo payload");
      }
      double global = 0.0;
      rec.call(node, [&] {
        mpi.allreduce(&local, &global, 1, Datatype::kDouble, sp::mpi::Op::kSum, w);
      });
      rec.check(global == total[r], "halo allreduce total");
    }
  });
}

void apps_64_lossy(Recorder& rec) {
  const MachineConfig cfg = lossy_config(rec.seed());
  const int n = kAppsGrid * kAppsGrid;
  const std::array<std::pair<const char*, sp::nas::KernelFn>, 4> kernels = {{
      {"is", &sp::nas::run_is}, {"cg", &sp::nas::run_cg},
      {"lu", &sp::nas::run_lu}, {"ft", &sp::nas::run_ft}}};
  for (const auto& [name, fn] : kernels) {
    std::array<std::uint64_t, 2> checksum = {0, 1};  // differ unless both runs report
    std::size_t which = 0;
    for (Backend b : {Backend::kNativePipes, Backend::kLapiEnhanced}) {
      auto m = rec.machine(cfg, n, b);
      rec.run(*m, [&](Mpi& mpi) {
        sp::nas::KernelResult res;
        rec.call(mpi.node(), [&] { res = fn(mpi, kNasScale); });
        rec.check(res.verified, "NAS verified");
        if (mpi.world().rank() == 0) checksum[which] = res.checksum;
      });
      rec.add_det(std::string("nas.") + name + ".sim_ms", sp::sim::to_us(m->elapsed()) / 1e3);
      ++which;
    }
    rec.check(checksum[0] == checksum[1], "NAS checksum equal across stacks");
  }
  for (Backend b : {Backend::kNativePipes, Backend::kLapiEnhanced}) {
    halo(rec, cfg, b, kAppsGrid, kAppsGrid, kHaloRounds);
  }
}

}  // namespace

bool run_workload(const std::string& workload, Recorder& rec) {
  if (workload == "p2p_paper") {
    p2p_paper(rec);
  } else if (workload == "coll_256") {
    coll_256(rec);
  } else if (workload == "apps_64_lossy") {
    apps_64_lossy(rec);
  } else {
    return false;
  }
  return true;
}

void msg_cost_probe(Recorder& rec) {
  constexpr int kIters = 2000;
  constexpr int kWarmup = 4;
  constexpr int kReps = 5;
  const MachineConfig cfg;
  std::vector<double> mpi_ns, lapi_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    // A recorder of its own, so the probe's machines stay out of the pass's
    // deterministic totals.
    Recorder probe(rec.seed(), true);
    double ns = 0.0;
    auto m = probe.machine(cfg, 2, Backend::kLapiEnhanced);
    probe.run(*m, [&](Mpi& mpi) {
      Comm& w = mpi.world();
      sp::sim::NodeRuntime& node = mpi.node();
      std::uint64_t buf = 0;
      const int peer = 1 - w.rank();
      for (int i = 0; i < kWarmup + kIters; ++i) {
        double call_ns = 0.0;
        if (w.rank() == 0) {
          call_ns += probe.call(node, [&] { mpi.send(&buf, 8, Datatype::kByte, peer, 0, w); });
          call_ns += probe.call(node, [&] { mpi.recv(&buf, 8, Datatype::kByte, peer, 0, w); });
          if (i >= kWarmup) ns += call_ns;
        } else {
          probe.call(node, [&] { mpi.recv(&buf, 8, Datatype::kByte, peer, 0, w); });
          probe.call(node, [&] { mpi.send(&buf, 8, Datatype::kByte, peer, 0, w); });
        }
      }
    });
    mpi_ns.push_back(ns / (2.0 * kIters));

    ns = 0.0;
    auto l = probe.machine(cfg, 2, Backend::kLapiEnhanced);
    probe.run_lapi(*l, [&](sp::lapi::Lapi& lapi) {
      const int me = lapi.task_id();
      const int peer = 1 - me;
      sp::sim::NodeRuntime& node = lapi.runtime();
      std::uint64_t buf = 0;
      sp::lapi::Cntr arrival;
      sp::lapi::Cntr org;
      auto bufs = lapi.address_init(1, sp::lapi::Lapi::token_of(&buf));
      auto cntrs = lapi.address_init(2, sp::lapi::Lapi::token_of(&arrival));
      const auto p = static_cast<std::size_t>(peer);
      for (int i = 0; i < kWarmup + kIters; ++i) {
        double call_ns = 0.0;
        if (me == 0) {
          call_ns += probe.call(node, [&] { lapi.put(peer, bufs[p], &buf, 8, cntrs[p], &org, nullptr); });
          call_ns += probe.call(node, [&] { lapi.waitcntr(arrival, 1); });
          if (i >= kWarmup) ns += call_ns;
        } else {
          probe.call(node, [&] { lapi.waitcntr(arrival, 1); });
          probe.call(node, [&] { lapi.put(peer, bufs[p], &buf, 8, cntrs[p], &org, nullptr); });
        }
      }
      probe.call(node, [&] { lapi.waitcntr(org, kWarmup + kIters); });
    });
    lapi_ns.push_back(ns / (2.0 * kIters));
  }
  rec.set_host("mpi.host_ns_per_msg", quantile(mpi_ns, 0.5));
  rec.set_host("lapi.host_ns_per_msg", quantile(lapi_ns, 0.5));
}

int selftest(std::uint64_t seed) {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };
  const MachineConfig cfg;
  const Backend enh = Backend::kLapiEnhanced;
  const std::size_t mib = kSizes.back();
  Recorder rec(seed, false);
  expect(pingpong_us(rec, cfg, enh, 8, pingpong_iters(8)) ==
             sp::bench::mpi_pingpong_us(cfg, enh, 8, pingpong_iters(8)),
         "sim_lat_8b_us equals bench::mpi_pingpong_us");
  expect(interrupt_pingpong_us(rec, cfg, enh, 8, kIrqIters) ==
             sp::bench::mpi_interrupt_pingpong_us(cfg, enh, 8, kIrqIters),
         "sim_lat_irq_8b_us equals bench::mpi_interrupt_pingpong_us");
  expect(stream_mbs(rec, cfg, enh, mib, stream_iters(mib)) ==
             sp::bench::mpi_bandwidth_mbs(cfg, enh, mib, stream_iters(mib)),
         "sim_bw_1mib_mbs equals bench::mpi_bandwidth_mbs");

  // The lossy config's schedule: repeatable per seed, traced or not, and
  // moved by a different seed. A 4 x 4 halo keeps this quick.
  auto lossy = [](std::uint64_t s, bool traced, int* failed) {
    Recorder r(s, traced);
    halo(r, lossy_config(s), Backend::kLapiEnhanced, 4, 4, 2);
    *failed += r.failed() > 0 ? 1 : 0;
    return r.det();
  };
  int check_failures = 0;
  const auto a = lossy(seed, false, &check_failures);
  const auto b = lossy(seed, false, &check_failures);
  const auto traced = lossy(seed, true, &check_failures);
  const auto other = lossy(seed + 1, false, &check_failures);
  expect(rec.failed() == 0 && check_failures == 0, "every payload and sum check passes");
  expect(a.at("net.dropped") > 0, "the lossy config drops packets");
  expect(a == b, "same seed gives identical simulated results and counts");
  expect(a == traced, "telemetry on gives the same results as telemetry off");
  expect(a != other, "a different seed changes the drop schedule");
  return failures;
}

}  // namespace perfbench
