#include "reference.hpp"

#include <sys/mman.h>
#include <ucontext.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "recorder.hpp"

namespace perfbench {
namespace {

constexpr int kEvents = 400'000;
constexpr std::uint32_t kPending = 4096;

ucontext_t main_ctx;
ucontext_t fiber_ctx;
std::uint64_t fiber_switches = 0;
/// Keeps the kernel's result observable so the optimizer cannot drop it.
volatile std::uint64_t sink = 0;

/// The kernel's 8 MiB table, mapped straight from the OS. Going through
/// malloc would raise glibc's mmap threshold and change how the workload's
/// own allocations are served, and with it the pass's time and peak RSS.
class Table {
 public:
  Table() {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::uint64_t*>(p);
  }
  ~Table() { munmap(data_, kBytes); }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  static constexpr std::size_t kWords = std::size_t{1} << 20;
  std::uint64_t& operator[](std::uint64_t i) noexcept { return data_[i & (kWords - 1)]; }

 private:
  static constexpr std::size_t kBytes = kWords * sizeof(std::uint64_t);
  std::uint64_t* data_ = nullptr;
};

void fiber_body() {
  for (;;) {
    ++fiber_switches;
    swapcontext(&fiber_ctx, &main_ctx);
  }
}

}  // namespace

double reference_seconds() {
  const auto t0 = Clock::now();
  Table mem;
  std::vector<char> src(1024), dst(1024);
  std::vector<char> stack(64 * 1024);
  getcontext(&fiber_ctx);
  fiber_ctx.uc_stack.ss_sp = stack.data();
  fiber_ctx.uc_stack.ss_size = stack.size();
  fiber_ctx.uc_link = nullptr;
  makecontext(&fiber_ctx, fiber_body, 0);

  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::uint64_t h = 1;
  for (std::uint32_t i = 0; i < kPending; ++i) {
    h = mix(h);
    heap.push({h % 100'000, i});
  }
  std::uint64_t acc = 0;
  const std::function<void(std::uint64_t)> action = [&](std::uint64_t x) {
    acc += mem[x]++;
  };
  for (int i = 0; i < kEvents; ++i) {
    const auto [t, id] = heap.top();
    heap.pop();
    h = mix(h ^ t);
    action(h);
    if ((i & 7) == 0) {
      std::memcpy(dst.data(), src.data(), src.size());
      src[h & 1023] = static_cast<char>(dst[(h >> 10) & 1023] + 1);
    }
    if ((i & 15) == 0) swapcontext(&main_ctx, &fiber_ctx);
    heap.push({t + h % 1000, id});
  }
  sink = acc + fiber_switches;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
