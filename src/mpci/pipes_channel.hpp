// The native MPCI: point-to-point messaging over the Pipes byte stream
// (Fig. 1a). Messages are framed as [Envelope][payload] on the ordered
// stream; this channel parses the stream and runs the eager/rendezvous
// protocols over it. Matching is Channel's.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mpci/channel.hpp"
#include "mpci/envelope.hpp"
#include "pipes/pipes.hpp"

namespace sp::mpci {

class PipesChannel : public Channel {
 public:
  PipesChannel(sim::NodeRuntime& node, pipes::Pipes& pipes, int my_task, int num_tasks);

  void start_send(SendReq& req) override;
  void progress(SendReq& req) override;

 private:
  /// Per-source stream parser state.
  struct Parser {
    bool in_payload = false;
    std::size_t remaining = 0;
    std::byte* sink = nullptr;
    std::function<void()> on_complete;

    /// Route the next `n` (> 0) payload bytes to `to`, then run `done`.
    void expect(std::byte* to, std::size_t n, std::function<void()> done) {
      in_payload = true;
      remaining = n;
      sink = to;
      on_complete = std::move(done);
    }
  };

  void on_data(int src);
  void dispatch_envelope(int src, const Envelope& env, Parser& p);
  /// Receive `env`'s payload for matched receive `r`: straight into the user
  /// buffer as bytes arrive, or through an EA buffer when it would truncate.
  void receive_into(int src, RecvReq& r, const Envelope& env, Parser& p);
  /// Stream `e`'s payload into its EA buffer; once it has all arrived, FIN a
  /// buffered sender and deliver to the receive bound to it, if any.
  void fill_ea(int src, EaEntry& e, Parser& p);
  void send_data_phase(SendReq& req, std::uint32_t rreq);
  /// Serve a NACKed eager's retained copy as rendezvous data (EA failover).
  void serve_nacked(int dst_task, std::uint32_t sreq, std::uint32_t rreq);
  void send_control_env(int dst_task, const Envelope& env) override;

  pipes::Pipes& pipes_;
  int my_task_;
  std::vector<Parser> parsers_;
};

}  // namespace sp::mpci
