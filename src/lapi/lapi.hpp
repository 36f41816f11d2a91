// LAPI: the Low-level Application Programming Interface (Shah et al.,
// IPPS'98), reimplemented over the simulated SP HAL.
//
// Provides the complete Table-1 function set of the paper:
//   LAPI_Init/Term        -> construction / destruction (Machine-managed)
//   LAPI_Put, LAPI_Get    -> put(), get()
//   LAPI_Amsend           -> amsend() with header + completion handlers
//   LAPI_Rmw              -> rmw()
//   LAPI_Setcntr/Getcntr/Waitcntr -> setcntr()/getcntr()/waitcntr()
//   LAPI_Address_init     -> address_init()
//   LAPI_Fence/Gfence     -> fence()/gfence()
//   LAPI_Qenv/Senv        -> qenv()/senv_*()
//
// Semantics follow the paper's Fig. 2: the first packet of an Amsend runs the
// registered *header handler* at the target, which returns the buffer to
// reassemble into plus an optional *completion handler*. Stock LAPI executes
// completion handlers on a separate thread (modeled as the
// completion_thread_switch_ns critical-path cost); the paper's "Enhanced
// LAPI" modification (§5.3) allows predefined completion handlers to run
// inline in dispatcher context — enabled per-instance with
// set_inline_completion_allowed(true).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hal/hal.hpp"
#include "lapi/counter.hpp"
#include "lapi/reliable_link.hpp"
#include "lapi/wire.hpp"
#include "sim/node_runtime.hpp"

namespace sp::lapi {

/// Raised on LAPI usage errors (e.g. LAPI calls from a header handler).
class LapiError : public std::runtime_error {
 public:
  explicit LapiError(const std::string& what) : std::runtime_error(what) {}
};

enum class RmwOp : std::uint8_t {
  kFetchAndAdd = 1,
  kFetchAndOr = 2,
  kSwap = 3,
  kCompareAndSwap = 4,
};

class Lapi;

/// Shared wiring for one machine's LAPI tasks: peer table plus the
/// LAPI_Address_init exchange rendezvous.
class LapiGroup {
 public:
  explicit LapiGroup(int num_tasks) : tasks_(static_cast<std::size_t>(num_tasks)) {}

  void attach(int task, Lapi* l) { tasks_[static_cast<std::size_t>(task)] = l; }
  [[nodiscard]] Lapi* task(int t) const { return tasks_[static_cast<std::size_t>(t)]; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(tasks_.size()); }

 private:
  friend class Lapi;
  struct Exchange {
    std::vector<Token> slots;
    int contributed = 0;
    sim::SimCondition done;
  };
  std::map<std::uint64_t, Exchange> exchanges_;
  std::vector<Lapi*> tasks_;
};

class Lapi {
 public:
  /// Completion handler, run after the whole message is in the target buffer.
  using CompletionFn = std::function<void(void* cookie)>;

  /// What a header handler returns (Fig. 2 step 3).
  struct HeaderHandlerResult {
    std::byte* buffer = nullptr;   ///< Where to assemble the message data.
    CompletionFn completion;       ///< Optional completion handler.
    void* cookie = nullptr;        ///< Passed to the completion handler.
    /// Enhanced-LAPI: run the (predefined) completion handler inline in the
    /// dispatcher instead of on the completion-handler thread. Honoured only
    /// when the instance allows inline completion (§5.3).
    bool inline_completion = false;
  };

  /// Header handler, run in dispatcher context when the first packet of an
  /// Amsend arrives (Fig. 2 step 2). LAPI calls are forbidden inside.
  using HeaderHandler = std::function<HeaderHandlerResult(
      int origin, const std::byte* uhdr, std::size_t uhdr_len, std::size_t total_len)>;

  struct Env {
    int task_id = 0;
    int num_tasks = 0;
    bool interrupt_on = false;
    std::size_t max_uhdr_bytes = 0;
    std::size_t max_data_bytes = 0;
    bool inline_completion_allowed = false;
  };

  Lapi(sim::NodeRuntime& node, hal::Hal& hal, LapiGroup& group, int task_id);

  Lapi(const Lapi&) = delete;
  Lapi& operator=(const Lapi&) = delete;

  // --- handler registration (SPMD: same order on every task) ---
  [[nodiscard]] int register_header_handler(HeaderHandler fn);

  // --- communication (Table 1) ---
  /// LAPI_Amsend: active-message send. `tgt_cntr` is a Token for a counter in
  /// the *target's* address space (from address_init), or 0.
  void amsend(int tgt, int handler_id, const void* uhdr, std::size_t uhdr_len,
              const void* udata, std::size_t udata_len, Token tgt_cntr, Cntr* org_cntr,
              Cntr* cmpl_cntr);

  /// LAPI_Put: one-sided write of `len` bytes to `tgt_addr` (a Token for
  /// memory in the target's address space).
  void put(int tgt, Token tgt_addr, const void* src, std::size_t len, Token tgt_cntr,
           Cntr* org_cntr, Cntr* cmpl_cntr);

  /// LAPI_Get: one-sided read of `len` bytes from `tgt_addr` into `origin_buf`.
  /// org_cntr increments when the data has landed locally; tgt_cntr (remote)
  /// when the target has sourced it.
  void get(int tgt, Token tgt_addr, void* origin_buf, std::size_t len, Token tgt_cntr,
           Cntr* org_cntr);

  /// LAPI_Rmw: remote atomic on an int64 at `tgt_var`. `prev_out` (optional)
  /// receives the pre-op value once org_cntr fires.
  void rmw(int tgt, RmwOp op, Token tgt_var, std::int64_t in_val, std::int64_t cas_compare,
           std::int64_t* prev_out, Cntr* org_cntr);

  /// LAPI_Putv-style vector put: `n` blocks, local `srcs[i]`/`lens[i]` to
  /// remote `tgt_addrs[i]`. Data travels as one message; the target scatters
  /// it in a (predefined) completion handler, then bumps tgt_cntr / notifies
  /// cmpl_cntr once for the whole vector. n is limited by the block table
  /// having to fit one packet (see kMaxVecBlocks).
  void putv(int tgt, int n, const Token* tgt_addrs, const void* const* srcs,
            const std::size_t* lens, Token tgt_cntr, Cntr* org_cntr, Cntr* cmpl_cntr);

  /// LAPI_Getv-style vector get: remote `tgt_addrs[i]`/`lens[i]` into local
  /// `dsts[i]`; org_cntr fires once everything has been scattered locally.
  void getv(int tgt, int n, const Token* tgt_addrs, void* const* dsts,
            const std::size_t* lens, Cntr* org_cntr);

  static constexpr int kMaxVecBlocks = 60;

  // --- counters ---
  void setcntr(Cntr& c, int value);
  [[nodiscard]] int getcntr(const Cntr& c);
  /// Wait until the counter reaches `value`, then decrement it by `value`.
  void waitcntr(Cntr& c, int value);

  // --- utility ---
  /// LAPI_Address_init: collective exchange of one token per task; returns
  /// the table indexed by task id. `exchange_id` must match across tasks.
  [[nodiscard]] std::vector<Token> address_init(std::uint64_t exchange_id, Token mine);

  /// LAPI_Fence: block until all messages this task sent to `tgt` have been
  /// delivered (transport-acknowledged).
  void fence(int tgt);
  /// LAPI_Gfence: fence to all targets, then barrier across all tasks.
  void gfence();

  [[nodiscard]] Env qenv() const;
  void senv_interrupt(bool on);
  /// The paper's §5.3 LAPI enhancement switch.
  void set_inline_completion_allowed(bool on) noexcept { inline_completion_allowed_ = on; }

  [[nodiscard]] int task_id() const noexcept { return task_id_; }
  [[nodiscard]] sim::NodeRuntime& runtime() noexcept { return node_; }
  [[nodiscard]] hal::Hal& hal() noexcept { return hal_; }

  // --- statistics ---
  [[nodiscard]] std::int64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::int64_t header_handlers_run() const noexcept { return header_handlers_run_; }
  [[nodiscard]] std::int64_t completion_thread_dispatches() const noexcept {
    return completion_thread_dispatches_;
  }
  [[nodiscard]] std::int64_t completion_inline_runs() const noexcept {
    return completion_inline_runs_;
  }
  [[nodiscard]] std::int64_t retransmits() const;
  /// Duplicate packet deliveries filtered by this task's links (fabric dups
  /// and go-back-N re-deliveries both land here).
  [[nodiscard]] std::int64_t duplicate_deliveries() const;
  /// Transport acks this task's links put on the wire.
  [[nodiscard]] std::int64_t acks_sent() const;
  /// Duplicate deliveries folded into delayed ack flushes (re-ack coalescing).
  [[nodiscard]] std::int64_t reacks_coalesced() const;

  /// Test hook: the reliable link toward `peer` (sequence-wrap tests).
  [[nodiscard]] ReliableLink& link_for_test(int peer) { return link(peer); }

  /// Convert a local pointer to a Token (for address_init).
  template <typename T>
  [[nodiscard]] static Token token_of(T* p) noexcept {
    return reinterpret_cast<Token>(p);
  }

  /// RAII guard marking dispatcher/event-context execution: LAPI calls made
  /// under it charge no application-thread time (they run on the protocol
  /// engine, like completion handlers do). Layers built on LAPI use this for
  /// work they schedule as simulator events.
  class CallbackScope {
   public:
    explicit CallbackScope(Lapi& l) noexcept : l_(l), prev_(l.in_callback_) {
      l_.in_callback_ = true;
    }
    ~CallbackScope() { l_.in_callback_ = prev_; }
    CallbackScope(const CallbackScope&) = delete;
    CallbackScope& operator=(const CallbackScope&) = delete;

   private:
    Lapi& l_;
    bool prev_;
  };

 private:
  struct Reassembly {
    std::byte* buffer = nullptr;
    bool resolved = false;  ///< Header handler ran / address known.
    std::size_t received = 0;
    std::size_t total = 0;
    PktHdr meta;  ///< From the packet that created the state.
    CompletionFn completion;
    void* cookie = nullptr;
    bool inline_completion = false;
    /// Packets that arrived before the header handler could run.
    std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> stash;
  };

  ReliableLink& link(int peer);
  void on_hal_packet(int src, std::span<const std::byte> bytes);
  void on_data_packet(const PktHdr& h, std::span<const std::byte> payload);
  void handle_get_request(const PktHdr& h);
  void handle_getv_request(const PktHdr& h, const std::byte* body);
  void handle_rmw_request(const PktHdr& h);
  void place_data(Reassembly& r, std::uint32_t offset, const std::byte* data, std::size_t len);
  void finish_message(std::uint64_t key_origin, std::uint64_t msg_id);
  void bump_local(Cntr* c);
  void bump_local_token(Token t);
  void send_internal(int tgt, PktHdr meta, std::vector<std::byte> owned_data);
  void maybe_app_charge(sim::TimeNs cost);
  void check_not_in_header_handler(const char* fn) const;

  sim::NodeRuntime& node_;
  hal::Hal& hal_;
  LapiGroup& group_;
  int task_id_;

  std::vector<HeaderHandler> handlers_;
  std::vector<std::unique_ptr<ReliableLink>> links_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, Reassembly> reass_;
  std::uint64_t next_msg_id_ = 1;

  bool in_header_handler_ = false;
  bool in_callback_ = false;
  bool inline_completion_allowed_ = false;

  // Internal gfence barrier state (dissemination rounds).
  std::array<Cntr, 32> barrier_cntrs_;
  int internal_barrier_handler_ = -1;

  // Vector-transfer internals (putv/getv).
  int internal_vec_put_handler_ = -1;
  int internal_getv_reply_handler_ = -1;
  struct GetvPending {
    std::vector<void*> dsts;
    std::vector<std::size_t> lens;
    Cntr* org = nullptr;
  };
  std::map<std::uint32_t, GetvPending> pending_getv_;
  std::uint32_t next_getv_id_ = 1;

  std::int64_t messages_sent_ = 0;
  std::int64_t header_handlers_run_ = 0;
  std::int64_t completion_thread_dispatches_ = 0;
  std::int64_t completion_inline_runs_ = 0;
};

}  // namespace sp::lapi
