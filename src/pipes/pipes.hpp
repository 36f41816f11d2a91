// Pipes: the native MPI stack's reliable byte-stream layer (§2 of the paper).
//
// One logical pipe per destination provides an *ordered* reliable byte
// stream: a sliding-window protocol with cumulative acks and go-back-N
// retransmission; out-of-order packets (the switch has four routes per node
// pair) are held in a reorder buffer and delivered to the reader strictly in
// stream order.
//
// Copy accounting — the heart of the paper's argument:
//   send:    the first and last `pipe_copy_span_bytes` (16 KiB) of a message
//            are copied user buffer -> pipe buffer at write() time, then pipe
//            buffer -> HAL per packet (two copies); the middle of larger
//            messages is fed to HAL directly from the user buffer (one copy).
//   receive: every arriving packet is copied HAL buffer -> pipe buffer, and
//            the reader's consume() copies pipe buffer -> destination (user
//            or early-arrival buffer): always two copies.
// The LAPI stack replaces this layer and pays exactly one copy per side.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "hal/hal.hpp"
#include "sim/node_runtime.hpp"

namespace sp::pipes {

class Pipes {
 public:
  Pipes(sim::NodeRuntime& node, hal::Hal& hal);

  Pipes(const Pipes&) = delete;
  Pipes& operator=(const Pipes&) = delete;

  /// Write one framed message to the stream toward `dst`: `prefix` (owned;
  /// typically the MPCI envelope) followed by `len` bytes at `data`
  /// (borrowed; must stay valid until `on_reusable` fires). `on_reusable`
  /// fires when the user buffer may be modified again.
  void write(int dst, std::vector<std::byte> prefix, const std::byte* data, std::size_t len,
             std::function<void()> on_reusable);

  /// Bytes currently readable, in order, from `src`.
  [[nodiscard]] std::size_t available(int src) const;

  /// Consume `n` bytes from the `src` stream into `out` (the pipe->user /
  /// pipe->early-arrival copy is charged). Precondition: n <= available(src).
  void consume(int src, std::byte* out, std::size_t n);

  /// Callback invoked (in event context) when new in-order bytes become
  /// readable from `src`.
  void set_on_data(std::function<void(int src)> fn) { on_data_ = std::move(fn); }

  [[nodiscard]] std::int64_t retransmits() const noexcept { return retransmits_; }
  [[nodiscard]] std::int64_t packets_sent() const noexcept { return packets_sent_; }
  /// Duplicate packet deliveries filtered out (fabric dups + go-back-N
  /// re-deliveries).
  [[nodiscard]] std::int64_t duplicate_deliveries() const noexcept { return duplicates_; }
  [[nodiscard]] std::int64_t acks_sent() const noexcept { return acks_sent_; }
  /// Duplicate deliveries folded into the delayed ack flush instead of each
  /// earning an immediate re-ack (the PR 2 coalescing fix at work).
  [[nodiscard]] std::int64_t reacks_coalesced() const noexcept { return reacks_coalesced_; }

 private:
  struct WireHdr {
    std::uint64_t stream_off = 0;
    std::uint32_t pkt_seq = 0;
    std::uint32_t data_len = 0;
    std::uint8_t kind = 0;  // 0 = data, 1 = ack
    std::uint8_t pad[7] = {};
    std::uint64_t ack_off = 0;  // cumulative in-order bytes received
  };

  /// A span of one written message queued for transmission.
  struct OutSpan {
    std::vector<std::byte> owned;        ///< Pipe-buffered bytes (prefix/head/tail).
    const std::byte* borrowed = nullptr; ///< Direct-from-user middle span.
    std::size_t len = 0;
    bool double_copy = false;            ///< True if this span went through the pipe buffer.
    std::function<void()> on_done;       ///< Fires when the span is fully staged.
  };

  struct Stored {
    std::vector<std::byte> payload;
    std::size_t modeled = 0;
    std::uint64_t end_off = 0;
    sim::TimeNs sent_at = 0;
  };

  struct Out {
    std::deque<OutSpan> queue;
    std::size_t span_next = 0;           ///< Bytes of the front span already staged.
    std::uint64_t next_off = 0;          ///< Next stream byte offset to send.
    std::uint64_t acked_off = 0;         ///< Cumulatively acknowledged bytes.
    std::uint32_t next_seq = 1;
    std::map<std::uint64_t, Stored> store;  ///< Unacked packets keyed by stream_off.
    bool retransmit_scheduled = false;
    bool waiting_for_space = false;      ///< A one-shot HAL space waiter is armed.
  };

  struct In {
    std::uint64_t delivered_off = 0;     ///< Bytes delivered to rx in order.
    std::map<std::uint64_t, std::vector<std::byte>> reorder;  // stream_off -> bytes
    std::deque<std::byte> rx;            ///< In-order readable bytes.
    std::uint64_t acked_off = 0;
    int unacked_packets = 0;             ///< Fresh packets since the last ack.
    bool ack_pending = false;            ///< An ack send is owed (data or dup re-ack).
    bool ack_flush_scheduled = false;
    /// Last immediate duplicate re-ack; later duplicates within ack_delay_ns
    /// coalesce into the flush (go-back-N bursts must not ack-storm).
    sim::TimeNs last_reack_at = -(1LL << 62);
  };

  void pump(int dst);
  void materialize_one(int dst, Out& o);
  void on_hal_packet(int src, std::span<const std::byte> bytes);
  void send_ack(int src);
  void schedule_ack_flush(int src);
  void schedule_retransmit(int dst);

  sim::NodeRuntime& node_;
  hal::Hal& hal_;
  std::vector<std::unique_ptr<Out>> out_;
  std::vector<std::unique_ptr<In>> in_;
  std::function<void(int)> on_data_;

  std::int64_t retransmits_ = 0;
  std::int64_t packets_sent_ = 0;
  std::int64_t duplicates_ = 0;
  std::int64_t acks_sent_ = 0;
  std::int64_t reacks_coalesced_ = 0;
};

}  // namespace sp::pipes
