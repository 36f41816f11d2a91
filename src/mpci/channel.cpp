#include "mpci/channel.hpp"

#include <cstring>

namespace sp::mpci {

// ---------------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------------

RecvReq* Channel::match_posted(const Envelope& env) {
  int scanned = 0;
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    ++scanned;
    RecvReq* r = *it;
    if (r->ctx == env.ctx && (r->src_sel == kAnySource || r->src_sel == env.src) &&
        (r->tag_sel == kAnyTag || r->tag_sel == env.tag)) {
      posted_.erase(it);
      charge_match_event(scanned);
      return r;
    }
  }
  charge_match_event(scanned);
  return nullptr;
}

Channel::EaEntry* Channel::find_unexpected(int ctx, int src_sel, int tag_sel) {
  // MPI non-overtaking: take the first match in arrival order, unless a later
  // match from the same source task carries a lower seq (arrival order !=
  // send order on LAPI's multipath switch). Only a parked entry can be
  // overtaken that way: everything queued after an in-order entry from its
  // source carries a higher seq. So the scan ends at the first unparked
  // choice, and transports that never park pay first-match cost.
  EaEntry* chosen = nullptr;
  for (const auto& ep : ea_) {
    EaEntry& e = *ep;
    if (!e.matchable || e.bound != nullptr || e.env.ctx != ctx) continue;
    if (src_sel != kAnySource && src_sel != e.env.src) continue;
    if (tag_sel != kAnyTag && tag_sel != e.env.tag) continue;
    if (chosen == nullptr || (e.src_task == chosen->src_task && e.env.seq < chosen->env.seq)) {
      chosen = &e;
      if (!e.parked) break;
    }
  }
  return chosen;
}

bool Channel::iprobe(int ctx, int src_sel, int tag_sel, Status* st) {
  charge_match_app(static_cast<int>(ea_.size()));
  const EaEntry* e = find_unexpected(ctx, src_sel, tag_sel);
  if (e == nullptr) return false;
  if (st != nullptr) *st = Status{static_cast<int>(e->env.src), e->env.tag, e->env.len};
  return true;
}

void Channel::post_recv(RecvReq& req) {
  charge_match_app(static_cast<int>(ea_.size()));
  EaEntry* e = find_unexpected(req.ctx, req.src_sel, req.tag_sel);
  if (e == nullptr) {
    posted_.push_back(&req);
  } else {
    take_unexpected(req, *e, /*app_context=*/true);
  }
}

void Channel::take_unexpected(RecvReq& req, EaEntry& e, bool app_context) {
  if (e.is_rts) {
    // The sender is waiting for us: clear it to send (Fig. 9).
    grant_rts(e.src_task, e.env, req);
    erase_ea(&e);
  } else if (e.arrived) {
    deliver_from_ea(req, e, app_context);
  } else {
    e.bound = &req;  // complete (and copy) when the payload finishes arriving
  }
}

// ---------------------------------------------------------------------------
// The early-arrival queue
// ---------------------------------------------------------------------------

Channel::EaEntry& Channel::queue_ea(const Envelope& env, int src_task) {
  EaEntry& e = *ea_.emplace_back(std::make_unique<EaEntry>());
  e.env = env;
  e.src_task = src_task;
  e.self = std::prev(ea_.end());
  return e;
}

Channel::EaEntry& Channel::queue_rts(const Envelope& env, int src_task) {
  EaEntry& e = queue_ea(env, src_task);
  e.is_rts = true;
  e.arrived = true;  // an RTS carries no payload
  publish_arrival();
  return e;
}

void Channel::erase_ea(EaEntry* e) {
  if (e->counted) ea_release(e->env.len);
  // Credit the sender for a consumed eager (a pseudo-RTS — kind kEager but
  // is_rts — is credited later, when its rendezvous data lands).
  if (!e->is_rts) maybe_retire(e->src_task, e->env);
  ea_.erase(e->self);
}

void Channel::deliver_from_ea(RecvReq& req, EaEntry& e, bool app_context) {
  const std::size_t n = std::min<std::size_t>(e.env.len, req.cap);
  const sim::TimeNs cost = sim::copy_cost(node_.cfg, n);
  if (app_context) {
    node_.app_charge(cost);
  } else {
    node_.cpu.charge(node_.sim, cost);
  }
  if (n > 0) std::memcpy(req.buf, e.data.data(), n);
  publish_recv_complete(req, e.env);
  erase_ea(&e);
}

// ---------------------------------------------------------------------------
// Receive completion
// ---------------------------------------------------------------------------

void Channel::mark_recv_complete(RecvReq& req, const Envelope& env) {
  req.complete = true;
  req.truncated = env.len > req.cap;
  req.status = Status{static_cast<int>(env.src), env.tag, std::min<std::size_t>(env.len, req.cap)};
  note_recv_complete(env.ctx, env.src, env.tag, env.seq, env.len);
}

void Channel::publish_recv_complete(RecvReq& req, const Envelope& env) {
  node_.publish([this, &req, env] {
    mark_recv_complete(req, env);
    req.cond.notify_all(node_.sim);
  });
}

void Channel::finish_direct_recv(int src_task, RecvReq& req, const Envelope& env) {
  publish_recv_complete(req, env);
  maybe_retire(src_task, env);
  if ((env.flags & kFlagNotifyDone) != 0) send_recv_done(src_task, env.sreq);
}

void Channel::maybe_retire(int src_task, const Envelope& env) {
  const bool eager = env.kind == static_cast<std::uint8_t>(EnvKind::kEager);
  const bool nack_served = (env.flags & kFlagNackServed) != 0;
  if (eager || nack_served) ea_note_retired(src_task, env);
}

void Channel::grant_rts(int src_task, const Envelope& rts, RecvReq& req) {
  req.status = Status{static_cast<int>(rts.src), rts.tag, rts.len};  // provisional
  req.id = next_rreq_++;
  rreqs_.emplace(req.id, &req);
  Envelope cts;
  cts.kind = static_cast<std::uint8_t>(EnvKind::kCts);
  cts.sreq = rts.sreq;
  cts.rreq = req.id;
  send_cts(src_task, cts);
}

void Channel::send_recv_done(int dst_task, std::uint32_t sreq) {
  Envelope d;
  d.kind = static_cast<std::uint8_t>(EnvKind::kRecvDone);
  d.sreq = sreq;
  send_control_env(dst_task, d);
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

void Channel::number_send(SendReq& req) {
  req.id = next_sreq_++;
  req.seq = send_seq_[static_cast<std::size_t>(req.dst)]++;
}

Envelope Channel::envelope_for(const SendReq& req, EnvKind kind) {
  Envelope env;
  env.ctx = static_cast<std::uint16_t>(req.ctx);
  env.src = static_cast<std::uint16_t>(req.src_in_comm);
  env.tag = req.tag;
  env.seq = req.seq;
  env.len = static_cast<std::uint32_t>(req.len);
  env.sreq = req.id;
  env.kind = static_cast<std::uint8_t>(kind);
  if (req.mode == Mode::kReady) env.flags |= kFlagReady;
  return env;
}

void Channel::send_buffer_done(SendReq& req) {
  node_.publish([this, &req] {
    req.reusable = true;
    maybe_complete_send(req);
  });
}

bool Channel::maybe_complete_send(SendReq& req) {
  if (req.complete) {
    req.cond.notify_all(node_.sim);
    return false;
  }
  if (!req.reusable || (req.proto == Protocol::kRendezvous && !req.data_sent)) return false;
  req.complete = true;
  req.cond.notify_all(node_.sim);
  return true;
}

}  // namespace sp::mpci
