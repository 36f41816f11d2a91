// Per-peer reliable packet channel used by the LAPI transport.
//
// The origin side paces message packets with a sliding window, stores sent
// packets for retransmission, and frees them on (cumulative) acknowledgement.
// The target side filters duplicates and generates coalesced acks. Unlike the
// Pipes byte stream, packets are *delivered upward out of order* — LAPI
// reassembles at offsets — so only the reliability bookkeeping is ordered.
//
// Packet materialization is lazy: a submitted message borrows its data buffer
// and packets are built (charging the single origin-side copy into HAL
// staging) only as the window admits them; `on_origin_done` fires when the
// last byte has been copied out and the origin buffer is safe to reuse —
// exactly LAPI's org_cntr semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "hal/hal.hpp"
#include "lapi/wire.hpp"
#include "sim/node_runtime.hpp"

namespace sp::lapi {

class ReliableLink {
 public:
  /// Transport personality. The default reproduces the LAPI link bit-exactly;
  /// the RDMA adapter (DESIGN.md §14) runs the same go-back-N machinery on
  /// its own HAL protocol with `nic_context = true`, which drops every host
  /// CPU charge (the origin-side staging copy and ack processing): the NIC
  /// engine gathers straight from registered memory and sinks acks itself.
  struct Profile {
    hal::ProtoId proto = hal::kProtoLapi;
    std::size_t header_bytes = 0;  ///< Modeled wire header; 0 = cfg.lapi_header_bytes.
    bool nic_context = false;
  };

  ReliableLink(sim::NodeRuntime& node, hal::Hal& hal, int peer)
      : ReliableLink(node, hal, peer, Profile{}) {}
  ReliableLink(sim::NodeRuntime& node, hal::Hal& hal, int peer, Profile profile);

  struct Message {
    PktHdr meta;                   ///< Template: kind/msg_id/total_len/tokens set by caller.
    std::vector<std::byte> uhdr;   ///< User header (first packet only; may be empty).
    const std::byte* data = nullptr;  ///< Borrowed data; must stay valid until on_origin_done.
    std::size_t len = 0;
    std::vector<std::byte> owned;  ///< Alternative owned data (control messages).
    std::function<void()> on_origin_done;  ///< Fires when data fully copied out.
  };

  /// Queue a message for transmission (FIFO per link).
  void submit(Message&& msg);

  /// Try to make progress (window + HAL space permitting).
  void pump();

  // --- target side ---
  /// Record an incoming sequenced packet (32-bit wire form, unwrapped against
  /// the receive cursor). Returns true if fresh (deliver it), false for
  /// duplicates (our cumulative position is re-advertised, coalesced to at
  /// most one immediate re-ack per duplicate burst).
  [[nodiscard]] bool accept(std::uint32_t pkt_seq);
  /// Process an acknowledgement for everything <= cum (32-bit wire form).
  void on_ack(std::uint32_t cum);

  /// True when nothing is queued or awaiting acknowledgement (fence support).
  [[nodiscard]] bool drained() const noexcept {
    return queue_.empty() && store_.empty();
  }
  sim::SimCondition& drained_cond() noexcept { return drained_cond_; }

  [[nodiscard]] std::int64_t retransmits() const noexcept { return retransmits_; }
  [[nodiscard]] std::int64_t duplicates() const noexcept { return duplicates_; }
  [[nodiscard]] std::int64_t acks_sent() const noexcept { return acks_sent_; }
  /// Duplicate deliveries folded into the delayed ack flush instead of each
  /// earning an immediate re-ack (the PR 2 coalescing fix at work; the
  /// conformance explorer asserts this stays proportional to duplicates).
  [[nodiscard]] std::int64_t reacks_coalesced() const noexcept { return reacks_coalesced_; }

  /// Test hook: start both reliability cursors at `base` as if `base` packets
  /// had already been exchanged (exercises 32-bit wire wrap). Call on the
  /// origin-side link and the matching target-side link before any traffic.
  void fast_forward_seq(std::uint64_t base) noexcept {
    next_seq_ = base + 1;
    acked_ = base;
    cum_in_ = base;
  }

 private:
  struct Stored {
    /// Serialized packet (hdr + uhdr + data); arena-backed, released on ack.
    std::vector<std::byte> payload;
    std::size_t modeled_bytes = 0;
    sim::TimeNs sent_at = 0;
  };

  struct Pending {
    Message msg;
    std::size_t next_offset = 0;
    bool first_sent = false;
  };

  void materialize_one();
  void send_ack();
  void schedule_ack_flush();
  void schedule_retransmit_check();
  [[nodiscard]] const std::byte* data_ptr(const Pending& p) const noexcept;
  [[nodiscard]] std::size_t data_len(const Pending& p) const noexcept;

  [[nodiscard]] std::size_t header_bytes() const noexcept {
    return profile_.header_bytes != 0 ? profile_.header_bytes : node_.cfg.lapi_header_bytes;
  }
  [[nodiscard]] bool hal_send(std::span<const std::byte> payload, std::size_t modeled);

  sim::NodeRuntime& node_;
  hal::Hal& hal_;
  int peer_;
  Profile profile_;

  // Origin side. Sequence bookkeeping is 64-bit internally; the wire carries
  // the low 32 bits and receivers unwrap (see wire.hpp unwrap_seq), so the
  // protocol survives 32-bit wire wrap.
  std::deque<Pending> queue_;
  std::map<std::uint64_t, Stored> store_;  ///< Unacked, keyed by pkt_seq.
  std::uint64_t next_seq_ = 1;
  std::uint64_t acked_ = 0;  ///< Highest cumulatively acked seq.
  bool retransmit_scheduled_ = false;
  bool waiting_for_space_ = false;  ///< A one-shot HAL space waiter is armed.
  sim::SimCondition drained_cond_;

  // Target side.
  std::uint64_t cum_in_ = 0;  ///< Highest contiguous seq received.
  std::set<std::uint64_t> ooo_in_;
  int unacked_count_ = 0;       ///< Fresh packets since the last ack (coalescing).
  bool ack_pending_ = false;    ///< An ack send is owed (fresh data or dup re-ack).
  bool ack_flush_scheduled_ = false;
  /// When the last immediate duplicate re-ack went out; further duplicates
  /// within ack_delay_ns coalesce into the delayed flush instead of each
  /// triggering an ack (a go-back-N burst would otherwise ack-storm).
  sim::TimeNs last_reack_at_ = kNeverReacked;
  static constexpr sim::TimeNs kNeverReacked = -(1LL << 62);

  std::int64_t retransmits_ = 0;
  std::int64_t duplicates_ = 0;
  std::int64_t acks_sent_ = 0;
  std::int64_t reacks_coalesced_ = 0;
};

}  // namespace sp::lapi
