#include "common/mutex.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace sq {

namespace {

struct HeldEntry {
  const void* mu;
  int rank;
  const char* name;
};

// Per-thread stack of ranked locks currently held, acquisition order. A
// fixed array plus a count, not a vector: it must have no destructor, because
// other thread-locals (the trace ring's exit flush) still take ranked locks
// after a vector constructed later would already have been destroyed.
constexpr size_t kMaxHeld = 64;
thread_local HeldEntry t_held[kMaxHeld];
thread_local size_t t_held_count = 0;

bool DefaultEnabled() {
  // Env override first so RelWithDebInfo/Release test runs can opt in
  // (SQ_LOCK_RANK_CHECKS=1) and debug hammers can opt out (=0).
  if (const char* env = std::getenv("SQ_LOCK_RANK_CHECKS")) {
    return env[0] != '0';
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{DefaultEnabled()};
  return flag;
}

const char* NameOf(const char* name) {
  return name != nullptr ? name : "<unnamed>";
}

// Plain fprintf, not SQ_LOG/SQ_CHECK: the logging mutex is itself
// rank-checked, and a diagnostic that takes locks mid-abort could recurse
// into the validator or deadlock.
void PrintHeldStack() {
  for (size_t i = 0; i < t_held_count; ++i) {
    std::fprintf(stderr, "  [%zu] \"%s\" (rank %d)\n", i,
                 NameOf(t_held[i].name), t_held[i].rank);
  }
}

[[noreturn]] void ReportInversionAndAbort(int rank, const char* name) {
  std::fprintf(stderr,
               "FATAL: lock rank inversion: acquiring \"%s\" (rank %d) below "
               "the top of this thread's held-lock stack\n",
               NameOf(name), rank);
  std::fprintf(stderr, "held-lock stack (outermost first):\n");
  PrintHeldStack();
  std::fprintf(stderr, "acquiring-lock stack (what the acquisition would "
                       "make, outermost first):\n");
  PrintHeldStack();
  std::fprintf(stderr, "  [%zu] \"%s\" (rank %d)  <-- rank decreases\n",
               t_held_count, NameOf(name), rank);
  std::fflush(stderr);
  std::abort();
}

void PushHeld(const void* mu, int rank, const char* name) {
  if (t_held_count == kMaxHeld) {
    std::fprintf(stderr,
                 "FATAL: more than %zu ranked locks held at once; acquiring "
                 "\"%s\" (rank %d)\nheld-lock stack (outermost first):\n",
                 kMaxHeld, NameOf(name), rank);
    PrintHeldStack();
    std::fflush(stderr);
    std::abort();
  }
  t_held[t_held_count++] = HeldEntry{mu, rank, name};
}

}  // namespace

namespace internal_rank {

void CheckAcquire(const void* mu, int rank, const char* name) {
  if (rank == lockrank::kUnranked || !EnabledFlag().load(std::memory_order_relaxed)) {
    return;
  }
  // Compare against the maximum held rank, not just the top of the stack,
  // so out-of-order try-lock successes cannot mask a later inversion.
  for (size_t i = 0; i < t_held_count; ++i) {
    if (rank < t_held[i].rank) ReportInversionAndAbort(rank, name);
  }
  PushHeld(mu, rank, name);
}

void RecordAcquire(const void* mu, int rank, const char* name) {
  if (rank == lockrank::kUnranked || !EnabledFlag().load(std::memory_order_relaxed)) {
    return;
  }
  PushHeld(mu, rank, name);
}

void RecordRelease(const void* mu) {
  // Runs even when checking is disabled so a mid-run disable drains the
  // stack instead of leaving stale entries.
  for (size_t i = t_held_count; i-- > 0;) {
    if (t_held[i].mu == mu) {
      std::copy(t_held + i + 1, t_held + t_held_count, t_held + i);
      --t_held_count;
      return;
    }
  }
}

}  // namespace internal_rank

void Mutex::SetRankCheckingEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

bool Mutex::RankCheckingEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void CondVar::Wait(Mutex& mu) {
  // Adopt the already-held native mutex, wait, then hand ownership back so
  // the unique_lock destructor does not release it a second time.
  std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
  cv_.wait(native);
  native.release();
}

bool CondVar::WaitUntil(Mutex& mu,
                        std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
  const std::cv_status status = cv_.wait_until(native, deadline);
  native.release();
  return status == std::cv_status::timeout;
}

bool CondVar::WaitFor(Mutex& mu, std::chrono::nanoseconds timeout) {
  return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
}

}  // namespace sq
