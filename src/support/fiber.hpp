// Stackful fibers: the substrate of the runtime's cooperative lane engine.
//
// A Fiber is a suspended computation with its own stack. resume() runs it on
// the calling OS thread (the "carrier") until it calls Fiber::yield() or its
// function returns; yield() switches straight back to the carrier in user
// space — no futex, no scheduler, no kernel. This is what lets the Executor
// multiplex p simulated-processor program lanes onto a handful of carrier
// threads: a lane blocked at the phase barrier parks by yielding instead of
// sleeping in the kernel, so p = 512 costs 512 swapcontext calls per phase
// rather than 512 OS context switches.
//
// Implementation is POSIX makecontext/swapcontext, with a register-only
// _setjmp/_longjmp switch on plain Linux builds (see fiber.cpp). Sanitizer
// support is first-class: every switch is bracketed with the TSan fiber API
// (__tsan_create_fiber / __tsan_switch_to_fiber) so TSan tracks each fiber
// as its own logical thread, and with the ASan fake-stack API
// (__sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber) so
// stack-use-after-return machinery follows the stack switches. Without
// these annotations the TSan/ASan CI jobs would report every switch as a
// stack corruption.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace qsm::support {

class Fiber {
 public:
  /// Default stack per fiber. Allocated but not touched up front, so the
  /// host commits pages only as a lane actually grows its stack; 512 lanes
  /// cost 512 * kDefaultStackBytes of address space, not of RSS.
  static constexpr std::size_t kDefaultStackBytes = std::size_t{1} << 20;

  /// Prepares a suspended fiber that will run `fn` on its own stack. `fn`
  /// must not let an exception escape (catch inside, as program lanes do).
  explicit Fiber(std::function<void()> fn,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes. Must be called from plain
  /// thread context (not from inside another fiber): carriers schedule
  /// fibers, fibers never schedule each other.
  void resume();

  /// True once fn has returned; resuming a finished fiber is an error.
  [[nodiscard]] bool finished() const;

  /// Suspends the fiber currently running on this thread back to its
  /// carrier's resume() call. Must be called from inside a fiber.
  static void yield();

  /// True when this thread is currently executing inside a fiber (as
  /// opposed to plain carrier context).
  [[nodiscard]] static bool in_fiber();

  struct Impl;  // keeps <ucontext.h> and sanitizer hooks out of the header

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace qsm::support
