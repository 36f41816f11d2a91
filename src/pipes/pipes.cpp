#include "pipes/pipes.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace sp::pipes {

namespace {
/// Floor when re-arming the retransmit timer: an already-expired deadline
/// (e.g. a HAL-full retry) must not respin at the current instant.
constexpr sim::TimeNs kMinRetryDelayNs = 1'000;
}  // namespace

Pipes::Pipes(sim::NodeRuntime& node, hal::Hal& hal)
    : node_(node), hal_(hal) {
  hal_.register_protocol(hal::kProtoPipes,
                         [this](int src, std::span<const std::byte> b) { on_hal_packet(src, b); });
  // No global send-space sweep: each destination pipe arms a one-shot HAL
  // waiter when (and only when) it actually stalls on send-buffer pressure.
}

void Pipes::write(int dst, std::vector<std::byte> prefix, const std::byte* data, std::size_t len,
                  std::function<void()> on_reusable) {
  if (out_.size() <= static_cast<std::size_t>(dst)) out_.resize(static_cast<std::size_t>(dst) + 1);
  auto& op = out_[static_cast<std::size_t>(dst)];
  if (!op) op = std::make_unique<Out>();
  Out& o = *op;

  node_.cpu.charge(node_.sim, node_.cfg.pipe_call_overhead_ns);

  // Envelope span (owned, built by the caller).
  if (!prefix.empty()) {
    OutSpan env;
    env.len = prefix.size();
    env.owned = std::move(prefix);
    o.queue.push_back(std::move(env));
  }

  const std::size_t span = node_.cfg.pipe_copy_span_bytes;
  if (len <= 2 * span) {
    // Whole message goes through the pipe buffer: user -> pipe copy now.
    if (len > 0) {
      node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, len));
      OutSpan s;
      s.owned.assign(data, data + len);
      s.len = len;
      s.double_copy = true;
      o.queue.push_back(std::move(s));
    }
    // User buffer already copied out: immediately reusable.
    if (on_reusable) on_reusable();
  } else {
    // Head and tail are pipe-buffered; the middle streams straight from the
    // user buffer to HAL (Snir et al.'s first/last-16 KiB rule).
    node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, 2 * span));
    OutSpan head;
    head.owned.assign(data, data + span);
    head.len = span;
    head.double_copy = true;

    OutSpan mid;
    mid.borrowed = data + span;
    mid.len = len - 2 * span;
    mid.on_done = std::move(on_reusable);  // safe once the middle is staged

    OutSpan tail;
    tail.owned.assign(data + len - span, data + len);
    tail.len = span;
    tail.double_copy = true;

    o.queue.push_back(std::move(head));
    o.queue.push_back(std::move(mid));
    o.queue.push_back(std::move(tail));
  }
  pump(dst);
}

void Pipes::pump(int dst) {
  auto& op = out_[static_cast<std::size_t>(dst)];
  if (!op) return;
  Out& o = *op;
  const auto window_pkts = static_cast<std::size_t>(node_.cfg.sliding_window_packets);
  while (!o.queue.empty() && o.store.size() < window_pkts &&
         o.next_off - o.acked_off < node_.cfg.pipe_buffer_bytes) {
    if (hal_.send_buffers_in_use() >= node_.cfg.hal_send_buffers) {
      // Stalled on HAL send buffers, not the window: arm a one-shot waiter.
      if (!o.waiting_for_space) {
        o.waiting_for_space = true;
        hal_.wait_send_space([this, dst] {
          out_[static_cast<std::size_t>(dst)]->waiting_for_space = false;
          pump(dst);
        });
      }
      return;
    }
    materialize_one(dst, o);
  }
}

void Pipes::materialize_one(int dst, Out& o) {
  // Fill one packet with up to MTU bytes, packing across span boundaries so
  // an envelope and a short payload share a packet (as the byte stream does).
  WireHdr h;
  h.stream_off = o.next_off;
  h.pkt_seq = o.next_seq++;
  h.kind = 0;

  std::vector<std::byte> payload = hal_.arena().acquire(sizeof(WireHdr));
  std::size_t data_bytes = 0;
  while (!o.queue.empty() && data_bytes < node_.cfg.packet_mtu) {
    OutSpan& s = o.queue.front();
    const std::size_t room = node_.cfg.packet_mtu - data_bytes;
    const std::size_t left = s.len - o.span_next;
    const std::size_t chunk = left < room ? left : room;
    const std::byte* src = (s.borrowed != nullptr ? s.borrowed : s.owned.data()) + o.span_next;
    payload.insert(payload.end(), src, src + chunk);
    data_bytes += chunk;
    o.span_next += chunk;
    if (o.span_next >= s.len) {
      auto done = std::move(s.on_done);
      o.queue.pop_front();
      o.span_next = 0;
      if (done) done();
    }
  }
  assert(data_bytes > 0);
  h.data_len = static_cast<std::uint32_t>(data_bytes);
  std::memcpy(payload.data(), &h, sizeof(WireHdr));

  // The pipe/user -> HAL copy plus per-packet bookkeeping.
  node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, data_bytes) + node_.cfg.pipe_packet_ns);

  const std::size_t modeled = node_.cfg.pipe_header_bytes + data_bytes;
  const bool sent = hal_.send_packet(dst, hal::kProtoPipes, payload, modeled);
  assert(sent && "pump() checked for HAL space");
  (void)sent;
  ++packets_sent_;
  SP_TELEM(node_, sim::Ev::kPipeSend, static_cast<std::uint64_t>(dst), data_bytes);

  o.store.emplace(h.stream_off,
                  Stored{std::move(payload), modeled, h.stream_off + data_bytes, node_.sim.now()});
  o.next_off += data_bytes;
  schedule_retransmit(dst);
}

void Pipes::on_hal_packet(int src, std::span<const std::byte> bytes) {
  assert(bytes.size() >= sizeof(WireHdr));
  WireHdr h;
  std::memcpy(&h, bytes.data(), sizeof(WireHdr));

  if (h.kind == 1) {
    // Ack: release stored packets and make progress.
    node_.cpu.charge(node_.sim, node_.cfg.ack_processing_ns);
    if (out_.size() <= static_cast<std::size_t>(src) || !out_[static_cast<std::size_t>(src)]) return;
    Out& o = *out_[static_cast<std::size_t>(src)];
    if (h.ack_off > o.acked_off) o.acked_off = h.ack_off;
    while (!o.store.empty() && o.store.begin()->second.end_off <= o.acked_off) {
      hal_.arena().release(std::move(o.store.begin()->second.payload));
      o.store.erase(o.store.begin());
    }
    pump(src);
    return;
  }

  if (in_.size() <= static_cast<std::size_t>(src)) in_.resize(static_cast<std::size_t>(src) + 1);
  auto& ip = in_[static_cast<std::size_t>(src)];
  if (!ip) ip = std::make_unique<In>();
  In& i = *ip;

  node_.cpu.charge(node_.sim, node_.cfg.pipe_packet_ns);
  const std::uint64_t off = h.stream_off;
  const std::size_t len = h.data_len;

  if (off + len <= i.delivered_off || i.reorder.count(off) != 0) {
    // Duplicate (retransmission raced the ack): re-advertise our position,
    // coalesced to one immediate re-ack per burst (the rest fold into the
    // delayed flush) so a go-back-N train does not trigger an ack storm.
    ++duplicates_;
    SP_TELEM(node_, sim::Ev::kPipeDupRecv, static_cast<std::uint64_t>(src), off);
    i.ack_pending = true;
    // debug_disable_reack_coalescing re-introduces the PR 2 ack storm for the
    // conformance explorer's self-test; it must never be set otherwise.
    if (node_.cfg.debug_disable_reack_coalescing ||
        node_.sim.now() - i.last_reack_at >= node_.cfg.ack_delay_ns) {
      i.last_reack_at = node_.sim.now();
      send_ack(src);
    } else {
      ++reacks_coalesced_;
      schedule_ack_flush(src);
    }
    return;
  }

  // HAL buffer -> pipe buffer copy (always paid by the native stack). The
  // modeled copy is the same either way; on the host side, in-order packets
  // go straight from the receive frame into the stream buffer, and only
  // out-of-order ones need their own parking allocation.
  node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, len));
  const std::byte* body = bytes.data() + sizeof(WireHdr);

  if (off == i.delivered_off) {
    i.rx.insert(i.rx.end(), body, body + len);
    i.delivered_off += len;
    // Drain any reorder-buffer chunks that are now contiguous.
    auto it = i.reorder.begin();
    while (it != i.reorder.end() && it->first == i.delivered_off) {
      i.rx.insert(i.rx.end(), it->second.begin(), it->second.end());
      i.delivered_off += it->second.size();
      it = i.reorder.erase(it);
    }
  } else {
    // Out-of-order: park until the gap fills (ordering enforcement, §2).
    i.reorder.emplace(off, std::vector<std::byte>(body, body + len));
  }

  SP_TELEM(node_, sim::Ev::kPipeDeliver, static_cast<std::uint64_t>(src), len);
  ++i.unacked_packets;
  i.ack_pending = true;
  if (i.unacked_packets >= node_.cfg.ack_every_packets) {
    send_ack(src);
  } else {
    schedule_ack_flush(src);
  }
  if (on_data_ && available(src) > 0) on_data_(src);
}

void Pipes::send_ack(int src) {
  In& i = *in_[static_cast<std::size_t>(src)];
  WireHdr h;
  h.kind = 1;
  h.ack_off = i.delivered_off;
  std::vector<std::byte> payload(sizeof(WireHdr));
  std::memcpy(payload.data(), &h, sizeof(WireHdr));
  node_.cpu.charge(node_.sim, node_.cfg.ack_processing_ns);
  if (hal_.send_packet(src, hal::kProtoPipes, std::move(payload), node_.cfg.pipe_header_bytes)) {
    i.unacked_packets = 0;
    i.ack_pending = false;
    i.acked_off = i.delivered_off;
    ++acks_sent_;
    SP_TELEM(node_, sim::Ev::kPipeAck, static_cast<std::uint64_t>(src), i.delivered_off);
  } else {
    // HAL full: the ack stays owed. ack_pending (not unacked_packets) records
    // the debt so a duplicate re-ack is retried too, instead of leaving the
    // sender stuck on its retransmit timer.
    i.ack_pending = true;
    schedule_ack_flush(src);
  }
}

void Pipes::schedule_ack_flush(int src) {
  In& i = *in_[static_cast<std::size_t>(src)];
  if (i.ack_flush_scheduled) return;
  i.ack_flush_scheduled = true;
  node_.sim.after(node_.cfg.ack_delay_ns, sim::sched_node_key(node_.node), [this, src] {
    In& in = *in_[static_cast<std::size_t>(src)];
    in.ack_flush_scheduled = false;
    if (in.ack_pending) send_ack(src);
  });
}

void Pipes::schedule_retransmit(int dst) {
  Out& o = *out_[static_cast<std::size_t>(dst)];
  if (o.retransmit_scheduled || o.store.empty()) return;
  o.retransmit_scheduled = true;
  // Fire when the *oldest* unacked packet reaches its timeout rather than a
  // full timeout from now (which could let a loss linger for up to 2x the
  // timeout). The floor keeps a HAL-full retry from spinning at one instant.
  const sim::TimeNs deadline =
      o.store.begin()->second.sent_at + node_.cfg.retransmit_timeout_ns;
  sim::TimeNs delay = deadline - node_.sim.now();
  if (delay < kMinRetryDelayNs) delay = kMinRetryDelayNs;
  node_.sim.after(delay, sim::sched_node_key(node_.node), [this, dst] {
    Out& o2 = *out_[static_cast<std::size_t>(dst)];
    o2.retransmit_scheduled = false;
    if (o2.store.empty()) return;
    const sim::TimeNs age = node_.sim.now() - o2.store.begin()->second.sent_at;
    if (age >= node_.cfg.retransmit_timeout_ns) {
      for (auto& [off, s] : o2.store) {
        if (hal_.send_packet(dst, hal::kProtoPipes, s.payload, s.modeled)) {
          s.sent_at = node_.sim.now();
          ++retransmits_;
          SP_TELEM(node_, sim::Ev::kPipeRetransmit, static_cast<std::uint64_t>(dst), off);
        } else {
          break;
        }
      }
    }
    schedule_retransmit(dst);
  });
}

std::size_t Pipes::available(int src) const {
  if (in_.size() <= static_cast<std::size_t>(src) || !in_[static_cast<std::size_t>(src)]) return 0;
  return in_[static_cast<std::size_t>(src)]->rx.size();
}

void Pipes::consume(int src, std::byte* out, std::size_t n) {
  In& i = *in_[static_cast<std::size_t>(src)];
  assert(i.rx.size() >= n);
  // Pipe buffer -> destination copy (user buffer or early-arrival buffer).
  node_.cpu.charge(node_.sim, sim::copy_cost(node_.cfg, n));
  std::copy(i.rx.begin(), i.rx.begin() + static_cast<std::ptrdiff_t>(n), out);
  i.rx.erase(i.rx.begin(), i.rx.begin() + static_cast<std::ptrdiff_t>(n));
}

}  // namespace sp::pipes
