#include "lapi/reliable_link.hpp"

#include <cassert>
#include <utility>

namespace sp::lapi {

namespace {
/// Floor when re-arming the retransmit timer: an already-expired deadline
/// (e.g. a HAL-full retry) must not respin at the current instant.
constexpr sim::TimeNs kMinRetryDelayNs = 1'000;
}  // namespace

ReliableLink::ReliableLink(sim::NodeRuntime& node, hal::Hal& hal, int peer, Profile profile)
    : node_(node), hal_(hal), peer_(peer), profile_(profile) {}

bool ReliableLink::hal_send(std::span<const std::byte> payload, std::size_t modeled) {
  return profile_.nic_context ? hal_.send_packet_nic(peer_, profile_.proto, payload, modeled)
                              : hal_.send_packet(peer_, profile_.proto, payload, modeled);
}

const std::byte* ReliableLink::data_ptr(const Pending& p) const noexcept {
  return p.msg.owned.empty() ? p.msg.data : p.msg.owned.data();
}

std::size_t ReliableLink::data_len(const Pending& p) const noexcept {
  return p.msg.owned.empty() ? p.msg.len : p.msg.owned.size();
}

void ReliableLink::submit(Message&& msg) {
  queue_.push_back(Pending{std::move(msg), 0, false});
  pump();
}

void ReliableLink::pump() {
  const auto window = static_cast<std::uint32_t>(node_.cfg.sliding_window_packets);
  while (!queue_.empty() && (next_seq_ - 1) - acked_ < window) {
    if (hal_.send_buffers_in_use() >= node_.cfg.hal_send_buffers) {
      // Blocked on HAL send buffers (not the window): arm a one-shot waiter
      // so only links that actually stalled get woken when a buffer frees.
      if (!waiting_for_space_) {
        waiting_for_space_ = true;
        hal_.wait_send_space([this] {
          waiting_for_space_ = false;
          pump();
        });
      }
      break;
    }
    materialize_one();
  }
}

void ReliableLink::materialize_one() {
  assert(!queue_.empty());
  Pending& p = queue_.front();
  const std::size_t total = data_len(p);
  const bool first = !p.first_sent;
  const std::size_t uhdr_len = first ? p.msg.uhdr.size() : 0;
  assert(uhdr_len <= node_.cfg.packet_mtu && "user header exceeds packet capacity");
  const std::size_t capacity = node_.cfg.packet_mtu - uhdr_len;
  const std::size_t remaining = total - p.next_offset;
  const std::size_t chunk = remaining < capacity ? remaining : capacity;

  PktHdr h = p.msg.meta;
  const std::uint64_t seq = next_seq_++;
  h.pkt_seq = static_cast<std::uint32_t>(seq);
  h.offset = static_cast<std::uint32_t>(p.next_offset);
  h.data_len = static_cast<std::uint32_t>(chunk);
  h.total_len = static_cast<std::uint32_t>(total);
  h.flags = first ? kFlagFirst : 0;
  h.uhdr_len = static_cast<std::uint16_t>(uhdr_len);

  std::vector<std::byte> payload = hal_.arena().acquire(0);
  payload.reserve(sizeof(PktHdr) + uhdr_len + chunk);
  append_hdr(payload, h);
  if (first && uhdr_len > 0) {
    payload.insert(payload.end(), p.msg.uhdr.begin(), p.msg.uhdr.end());
  }
  if (chunk > 0) {
    const std::byte* src = data_ptr(p) + p.next_offset;
    payload.insert(payload.end(), src, src + chunk);
  }
  // The single LAPI origin-side copy: user buffer -> HAL staging. The NIC
  // profile gathers straight from registered memory (zero host copies).
  if (!profile_.nic_context) {
    node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, chunk + uhdr_len));
  }

  const std::size_t modeled = header_bytes() + uhdr_len + chunk;
  const bool sent = hal_send(payload, modeled);
  assert(sent && "pump() checked for HAL space");
  (void)sent;

  store_.emplace(seq, Stored{std::move(payload), modeled, node_.sim.now()});
  schedule_retransmit_check();

  p.first_sent = true;
  p.next_offset += chunk;
  if (p.next_offset >= total) {
    auto done = std::move(p.msg.on_origin_done);
    queue_.pop_front();
    if (done) done();
  }
}

void ReliableLink::on_ack(std::uint32_t cum_wire) {
  if (!profile_.nic_context) node_.cpu.charge(node_.sim, node_.cfg.ack_processing_ns);
  const std::uint64_t cum = unwrap_seq(acked_, cum_wire);
  if (cum > acked_) acked_ = cum;
  const auto last = store_.upper_bound(cum);
  for (auto it = store_.begin(); it != last; ++it) {
    hal_.arena().release(std::move(it->second.payload));
  }
  store_.erase(store_.begin(), last);
  pump();
  if (drained()) drained_cond_.notify_all(node_.sim);
}

bool ReliableLink::accept(std::uint32_t seq_wire) {
  const std::uint64_t pkt_seq = unwrap_seq(cum_in_, seq_wire);
  const bool dup = pkt_seq <= cum_in_ || ooo_in_.count(pkt_seq) != 0;
  if (dup) {
    ++duplicates_;
    SP_TELEM(node_, sim::Ev::kLapiDupRecv, static_cast<std::uint64_t>(peer_), pkt_seq);
    // Re-advertise our cumulative position so the origin's retransmit loop
    // terminates, but coalesce: a go-back-N burst of N duplicates earns one
    // immediate re-ack; the rest fold into the delayed flush.
    // debug_disable_reack_coalescing re-introduces the PR 2 ack storm for the
    // conformance explorer's self-test; it must never be set otherwise.
    if (node_.cfg.debug_disable_reack_coalescing ||
        node_.sim.now() - last_reack_at_ >= node_.cfg.ack_delay_ns) {
      last_reack_at_ = node_.sim.now();
      ack_pending_ = true;
      send_ack();
    } else {
      ++reacks_coalesced_;
      ack_pending_ = true;
      schedule_ack_flush();
    }
    return false;
  }
  ooo_in_.insert(pkt_seq);
  while (!ooo_in_.empty() && *ooo_in_.begin() == cum_in_ + 1) {
    ooo_in_.erase(ooo_in_.begin());
    ++cum_in_;
  }
  ++unacked_count_;
  ack_pending_ = true;
  if (unacked_count_ >= node_.cfg.ack_every_packets) {
    send_ack();
  } else {
    schedule_ack_flush();
  }
  return true;
}

void ReliableLink::send_ack() {
  PktHdr h;
  h.kind = static_cast<std::uint8_t>(Kind::kAck);
  h.pkt_seq = static_cast<std::uint32_t>(cum_in_);
  h.origin = static_cast<std::uint32_t>(hal_.node());
  std::vector<std::byte> payload;
  append_hdr(payload, h);
  if (!profile_.nic_context) node_.cpu.charge(node_.sim, node_.cfg.ack_processing_ns);
  if (hal_send(payload, header_bytes())) {
    unacked_count_ = 0;
    ack_pending_ = false;
    ++acks_sent_;
    SP_TELEM(node_, sim::Ev::kLapiAck, static_cast<std::uint64_t>(peer_), cum_in_);
  } else {
    // HAL full: the ack stays owed; retry from the flush timer. ack_pending_
    // (not unacked_count_) records the debt so a duplicate re-ack — which
    // arrives with unacked_count_ == 0 — is retried too, instead of leaving
    // the origin stuck on its retransmit timer.
    ack_pending_ = true;
    schedule_ack_flush();
  }
}

void ReliableLink::schedule_ack_flush() {
  if (ack_flush_scheduled_) return;
  ack_flush_scheduled_ = true;
  node_.sim.after(node_.cfg.ack_delay_ns, sim::sched_node_key(node_.node), [this] {
    ack_flush_scheduled_ = false;
    if (ack_pending_) send_ack();
  });
}

void ReliableLink::schedule_retransmit_check() {
  if (retransmit_scheduled_ || store_.empty()) return;
  retransmit_scheduled_ = true;
  // Fire when the *oldest* unacked packet reaches its timeout — re-arming a
  // full timeout from now would let a loss linger for up to 2x the timeout.
  // The floor keeps a HAL-full retry from spinning at the current instant.
  const sim::TimeNs deadline =
      store_.begin()->second.sent_at + node_.cfg.retransmit_timeout_ns;
  sim::TimeNs delay = deadline - node_.sim.now();
  if (delay < kMinRetryDelayNs) delay = kMinRetryDelayNs;
  node_.sim.after(delay, sim::sched_node_key(node_.node), [this] {
    retransmit_scheduled_ = false;
    if (store_.empty()) return;
    const sim::TimeNs age = node_.sim.now() - store_.begin()->second.sent_at;
    if (age >= node_.cfg.retransmit_timeout_ns) {
      // Go-back-N: resend everything unacknowledged.
      for (auto& [seq, s] : store_) {
        if (hal_send(s.payload, s.modeled_bytes)) {
          s.sent_at = node_.sim.now();
          ++retransmits_;
          SP_TELEM(node_, sim::Ev::kLapiRetransmit, static_cast<std::uint64_t>(peer_), seq);
        } else {
          break;  // HAL full; the rescheduled check will retry
        }
      }
    }
    schedule_retransmit_check();
  });
}

}  // namespace sp::lapi
