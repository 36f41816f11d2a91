#include "mpci/pipes_channel.hpp"

#include <cassert>
#include <utility>

namespace sp::mpci {

PipesChannel::PipesChannel(sim::NodeRuntime& node, pipes::Pipes& pipes, int my_task,
                           int num_tasks)
    : Channel(node, num_tasks),
      pipes_(pipes),
      my_task_(my_task),
      parsers_(static_cast<std::size_t>(num_tasks)) {
  pipes_.set_on_data([this](int src) { on_data(src); });
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

void PipesChannel::start_send(SendReq& req) {
  req.proto = choose_protocol(req.mode, req.len, req.dst);
  number_send(req);
  const bool eager = req.proto == Protocol::kEager;
  Envelope env = envelope_for(req, eager ? EnvKind::kEager : EnvKind::kRts);
  if (req.bsend_slot >= 0) env.flags |= kFlagNotifyDone;

  if (eager) {
    note_eager_send(req.dst, req.len);
    ea_note_eager_departure(req.dst, env, req.buf);
    if (req.bsend_slot >= 0) sreqs_.emplace(req.id, &req);
    pipes_.write(req.dst, pack(env), req.buf, req.len, [this, &req] { send_buffer_done(req); });
  } else {
    note_rendezvous_send(req.dst, req.len);
    sreqs_.emplace(req.id, &req);
    pipes_.write(req.dst, pack(env), nullptr, 0, nullptr);
  }

  if (req.bsend_slot >= 0) {
    // Buffered sends complete immediately: the payload already lives in the
    // attach buffer; the slot is reclaimed when kRecvDone arrives.
    req.reusable = true;
    req.complete = true;
  }
}

void PipesChannel::progress(SendReq& req) {
  // The blocking rendezvous path (Fig. 6): the application thread, woken by
  // the CTS, pushes the data phase itself.
  if (req.proto == Protocol::kRendezvous && req.cts_received && !req.data_sent) {
    send_data_phase(req, req.rreq_cache);
  }
}

void PipesChannel::send_data_phase(SendReq& req, std::uint32_t rreq) {
  if (req.data_sent) return;  // progress() and the CTS path can race
  req.data_sent = true;
  Envelope env = envelope_for(req, EnvKind::kRtsData);
  env.rreq = rreq;
  if (req.bsend_slot >= 0) env.flags |= kFlagNotifyDone;
  pipes_.write(req.dst, pack(env), req.buf, req.len, [this, &req] { send_buffer_done(req); });
  if (req.bsend_slot < 0) sreqs_.erase(req.id);
}

void PipesChannel::send_control_env(int dst_task, const Envelope& env) {
  pipes_.write(dst_task, pack(env), nullptr, 0, nullptr);
}

void PipesChannel::serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq) {
  const RetainedEager* ret = ea_retained(sreq);
  assert(ret != nullptr && "CTS for unknown send request (no retained NACK copy)");
  Envelope env = ret->env;
  env.kind = static_cast<std::uint8_t>(EnvKind::kRtsData);
  env.rreq = rreq;
  env.flags |= kFlagNackServed;
  // The retained vector stays alive until the receiver's credit retires it,
  // which is strictly after this data lands — safe to borrow.
  pipes_.write(dst_task, pack(env), ret->data.data(), ret->data.size(), nullptr);
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void PipesChannel::on_data(int src) {
  Parser& p = parsers_[static_cast<std::size_t>(src)];
  for (;;) {
    if (p.in_payload) {
      const std::size_t n = std::min(p.remaining, pipes_.available(src));
      if (n == 0) return;
      pipes_.consume(src, p.sink, n);
      p.sink += n;
      p.remaining -= n;
      if (p.remaining > 0) return;
      p.in_payload = false;
      auto done = std::move(p.on_complete);
      if (done) done();
    } else {
      if (pipes_.available(src) < sizeof(Envelope)) return;
      std::byte raw[sizeof(Envelope)];
      pipes_.consume(src, raw, sizeof(Envelope));
      dispatch_envelope(src, unpack(raw), p);
    }
  }
}

void PipesChannel::dispatch_envelope(int src, const Envelope& env, Parser& p) {
  switch (static_cast<EnvKind>(env.kind)) {
    case EnvKind::kEager: {
      if (RecvReq* r = match_posted(env)) {
        receive_into(src, *r, env, p);
        return;
      }
      if ((env.flags & kFlagReady) != 0) {
        throw FatalMpiError("ready-mode message arrived before its receive was posted");
      }
      if (!try_ea_reserve(env.len)) {
        // EA pool exhausted: refuse the eager and fail it over to rendezvous.
        // The in-flight payload drains to scratch; the envelope stays behind
        // as a pseudo-RTS that, once matched, clears the *sender* to re-send
        // the data from its retained copy (previously this was fatal).
        ea_issue_nack(src, env);
        queue_rts(env, src);
        if (env.len > 0) {
          auto scratch = std::make_shared<std::vector<std::byte>>(env.len);
          // scratch outlives the drain, then drops
          p.expect(scratch->data(), env.len, [scratch] {});
        }
        return;
      }
      // Early arrival: stream into an EA buffer.
      EaEntry& e = queue_ea(env, src);
      e.counted = true;  // the try_ea_reserve above succeeded
      publish_arrival();
      if (env.len == 0) {
        e.arrived = true;
      } else {
        fill_ea(src, e, p);
      }
      return;
    }

    case EnvKind::kRts:
      if (RecvReq* r = match_posted(env)) {
        grant_rts(src, env, *r);
      } else {
        queue_rts(env, src);
      }
      return;

    case EnvKind::kCts: {
      auto it = sreqs_.find(env.sreq);
      if (it == sreqs_.end() || it->second->proto == Protocol::kEager) {
        // A CTS for an eager send: the receiver NACKed it into a pseudo-RTS
        // and is now clearing us to re-send from the retained copy. (A plain
        // eager isn't in sreqs_ at all; a buffered one still is, waiting for
        // its kRecvDone, which the rendezvous completion will trigger.)
        serve_nacked(src, env.sreq, env.rreq);
        return;
      }
      SendReq* s = it->second;
      s->cts_received = true;
      s->rreq_cache = env.rreq;
      if (s->blocking) {
        // Wake the blocked sender; it pushes the data phase (Fig. 6).
        node_.publish([this, s] { s->cond.notify_all(node_.sim); });
      } else {
        send_data_phase(*s, env.rreq);
      }
      return;
    }

    case EnvKind::kRtsData: {
      auto it = rreqs_.find(env.rreq);
      assert(it != rreqs_.end() && "rendezvous data for unknown receive");
      RecvReq* r = it->second;
      rreqs_.erase(it);
      receive_into(src, *r, env, p);
      return;
    }

    case EnvKind::kRecvDone: {
      auto it = sreqs_.find(env.sreq);
      assert(it != sreqs_.end() && "RecvDone for unknown send request");
      SendReq* s = it->second;
      sreqs_.erase(it);
      node_.publish([this, s] {
        if (s->bsend_slot >= 0) bsend_.release(s->bsend_slot);
        s->bsend_released = true;
        s->cond.notify_all(node_.sim);
      });
      return;
    }

    case EnvKind::kEaCredit:
      ea_on_credit(src, env);
      return;

    case EnvKind::kEaNack:
      ea_on_nack(env);
      return;

    case EnvKind::kRingCredit:
      assert(false && "ring credits are RDMA-channel traffic");
      return;
  }
}

void PipesChannel::receive_into(int src, RecvReq& r, const Envelope& env, Parser& p) {
  if (env.len > r.cap) {
    // Truncation detour through an EA buffer.
    EaEntry& e = queue_ea(env, src);
    e.bound = &r;
    fill_ea(src, e, p);
  } else if (env.len == 0) {
    finish_direct_recv(src, r, env);
  } else {
    // Direct path: pipe buffer -> user buffer as bytes arrive.
    p.expect(r.buf, env.len, [this, &r, env, src] { finish_direct_recv(src, r, env); });
  }
}

void PipesChannel::fill_ea(int src, EaEntry& e, Parser& p) {
  e.data.resize(e.env.len);
  EaEntry* ep = &e;
  p.expect(e.data.data(), e.env.len, [this, ep, src] {
    node_.publish([this, ep, src] {
      ep->arrived = true;
      if ((ep->env.flags & kFlagNotifyDone) != 0) send_recv_done(src, ep->env.sreq);
      if (ep->bound != nullptr) deliver_from_ea(*ep->bound, *ep, /*app_context=*/false);
    });
  });
}

}  // namespace sp::mpci
